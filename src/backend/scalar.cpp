// The scalar engine: the leap-table chains (extracted from the PR-2/PR-4
// paths in lfsr.cpp and yaea.cpp) and the block-at-a-time apply kernels
// behind the Backend interface. One lane — the engine of record on hosts
// without SIMD, and the remainder engine the vector backends defer to.

#include "src/backend/backend.hpp"
#include "src/backend/kernels.hpp"

namespace mhhea::backend {
namespace {

class ScalarBackend final : public Backend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "scalar"; }
  [[nodiscard]] std::size_t lanes() const noexcept override { return 1; }

  void lfsr_blocks(const LinearMapTables& leap, int degree,
                   std::uint32_t* states, std::size_t n_lanes,
                   std::uint64_t* out, std::size_t per_lane) const override {
    detail::lfsr_blocks_scalar_any(leap, degree, states, n_lanes, out, per_lane);
  }

  void geffe_units(const GeffeKernel& k, std::uint32_t* a, std::uint32_t* b,
                   std::uint32_t* c, std::size_t n_lanes,
                   const std::uint8_t* in, std::uint8_t* out,
                   std::size_t per_lane) const override {
    detail::geffe_units_scalar(k, a, b, c, n_lanes, in, out, per_lane);
  }

  void embed_blocks(int vector_bits, const ApplyBatch& b, const std::uint64_t* covers,
                    std::span<const std::uint8_t> msg, std::uint8_t* out) const override {
    util::with_vector_bits(vector_bits, [&]<int N>() {
      detail::embed_blocks_scalar<N>(b, covers, msg, out);
    });
  }

  void extract_blocks(int vector_bits, const ApplyBatch& b, const std::uint8_t* blocks,
                      std::uint32_t* bits) const override {
    util::with_vector_bits(vector_bits, [&]<int N>() {
      detail::extract_blocks_scalar<N>(b, blocks, bits);
    });
  }
};

}  // namespace

namespace detail {
const Backend& scalar_backend() noexcept {
  static const ScalarBackend instance;
  return instance;
}
}  // namespace detail

}  // namespace mhhea::backend
