// The two workloads and the traced per-layer suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// What a workload run hands to the report and to the traced layer suite.
struct WorkloadResult {
  Metrics e2e;       // the end-to-end metrics of this run
  Metrics unbounded; // reported figures that cannot hold a bound on this host
  Tally tally;
  std::string info;  // JSON object fields: sample counts, offered rates, ...
  double overhead_ref_ms = 0.0;  // the figure trace.overhead_ratio compares

  // Daemon-side references (rpc_small; the layer suite probes a
  // daemon itself for bulk_stream).
  bool has_rpc = false;
  double ping_rtt_us = 0.0;       // median send -> reply of the workload's pings
  double crypto_p50_us = 0.0;     // median seal/open latency, scheduled -> verified
  std::vector<double> handshake_us;
  std::uint64_t shed = 0, errors = 0, backlog_max = 0;
  double failed_ratio = 0.0;
  std::vector<std::vector<std::uint8_t>> request_frames;  // sample
  std::vector<std::vector<std::uint8_t>> containers;      // sample of sealed bytes

  // Library-side reference (bulk_stream; for rpc_small the suite
  // uses its own 64 KiB replay).
  bool has_bulk = false;
  double bulk_roundtrip_us = 0.0;  // mean seal+open time of one 64 KiB message
};

/// Shard count of the bulk sessions: one per hardware thread.
int bulk_shards();

WorkloadResult run_rpc(const Options& opt, Tracer& tracer);
WorkloadResult run_bulk(const Options& opt, Tracer& tracer);

/// Time each layer's public functions on the workload's own inputs (plus a
/// short daemon or bulk probe for the layers the workload does not reach)
/// and fill the per-layer metrics. Returns false when a replayed call gave a
/// wrong result.
bool run_layers(const Options& opt, const WorkloadResult& untraced,
                const WorkloadResult& traced, Tracer& tracer, Metrics& out);

}  // namespace perfbench
