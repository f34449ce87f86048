// The scalar engine: the leap-table chains (the word-at-a-time paths of
// lfsr.cpp and yaea.cpp) and the block-at-a-time plan, schedule and apply
// kernels behind the Backend interface. One lane — the engine of record on
// hosts without SIMD, and the remainder engine the vector backends defer to.

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

  void plan_blocks(const KeyTables& k, std::uint64_t first, const std::uint8_t* blocks,
                   std::size_t n, Transfer& t) const override {
    detail::with_layout(k, [&]<int N, bool Framed>() {
      detail::plan_blocks_scalar<N, Framed>(k, first, blocks, n, t);
    });
  }

  std::size_t schedule_blocks(const KeyTables& k, Cursor& at, std::uint64_t end,
                              const std::uint8_t* blocks, std::size_t n,
                              ApplyBatch& b) const override {
    const std::uint64_t base = at.bit & ~std::uint64_t{7};
    return detail::with_layout(k, [&]<int N, bool Framed>() {
      return detail::schedule_blocks_scalar<N, Framed>(k, at, end, blocks, n, b, 0, base);
    });
  }

  void embed_blocks(int vector_bits, const ApplyBatch& b, const std::uint8_t* covers,
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
