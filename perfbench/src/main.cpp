// perfbench — the repository benchmark program.
//
//   perfbench --workload rpc_small|bulk_stream --seed N --seconds S --trace 0|1
//             [--commit SHA]
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 the run is split into an untraced and a traced half, the
// per-layer suite runs afterwards, and the last line carries the per-layer
// metrics. The line before it is the host and provenance block. Exit 0 when
// every output checked out, 1 when any was wrong, 2 on a usage or set-up
// error (no result line).
#include <csignal>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "src/backend/backend.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& commit) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(a + " needs a value");
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--commit") commit = v;
      else usage("unknown flag " + a);
    } catch (const std::logic_error&) {
      usage(a + ": bad value " + v);
    }
  }
  if (opt.workload != "rpc_small" && opt.workload != "bulk_stream") {
    usage("--workload must be rpc_small or bulk_stream");
  }
  if (opt.seconds <= 0) usage("--seconds must be positive");
  return opt;
}

perfbench::WorkloadResult run(const Options& opt, perfbench::Tracer& tracer) {
  return opt.workload == "bulk_stream" ? perfbench::run_bulk(opt, tracer)
                                       : perfbench::run_rpc(opt, tracer);
}

}  // namespace

int main(int argc, char** argv) {
  std::string commit = "unknown";
  const Options opt = parse(argc, argv, commit);
  std::error_code mkdir_error;
  std::filesystem::create_directories(perfbench::kRunDir, mkdir_error);
  // A daemon that closes a connection must surface as a failed request, not
  // kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  perfbench::Metrics metrics;
  perfbench::Tally tally;
  std::string info;
  perfbench::Metrics unbounded;
  std::string trace_file;
  const auto cpu_before = perfbench::CpuTimes::now();
  try {
    perfbench::Tracer off(false);
    if (!opt.trace) {
      const auto res = run(opt, off);
      metrics = res.e2e;
      tally = res.tally;
      info = res.info;
      unbounded = res.unbounded;
    } else {
      // End-to-end numbers come only from untraced runs: the untraced half
      // is the reference the traced half's overhead is measured against.
      Options half = opt;
      half.seconds = opt.seconds / 2;
      const auto untraced = run(half, off);
      perfbench::Tracer tracer(true);
      const auto traced = run(half, tracer);
      const bool layers_ok = perfbench::run_layers(opt, untraced, traced, tracer, metrics);
      trace_file = perfbench::kRunDir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".jsonl";
      tracer.write(trace_file);
      tally.attempted = untraced.tally.attempted + traced.tally.attempted;
      tally.failed = untraced.tally.failed + traced.tally.failed;
      tally.correct = untraced.tally.correct && traced.tally.correct && layers_ok;
      info = traced.info;
      unbounded = untraced.unbounded;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 2;
  }

  const double steal = perfbench::steal_pct(cpu_before, perfbench::CpuTimes::now());
  std::cout << "{\"provenance\": {\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
            << ", \"seconds\": " << opt.seconds << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"backend\": \""
            << mhhea::backend::active().name() << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"cxx_flags\": \"" << PERFBENCH_CXX_FLAGS << "\", \"commit\": \"" << commit
            << "\", \"transport\": \"unix socket on loopback\", \"host_steal_pct\": " << steal
            << ", \"trace_file\": \"" << trace_file
            << "\", \"unbounded\": " << unbounded.json() << ", " << info << "}}\n";
  std::cout << "{\"correct\": " << (tally.correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return tally.correct ? 0 : 1;
}
