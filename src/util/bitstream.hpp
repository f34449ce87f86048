// LSB-first bit streams over byte buffers.
//
// The MHHEA algorithm consumes and produces *bit* streams while files and
// network packets are byte streams. The normative convention for this
// repository (DESIGN.md §3) is:
//   * within a byte, bit 0 (the LSB) is consumed first;
//   * 16-bit hardware words are little-endian (byte[0] = bits 7..0).
// This makes the software bit stream identical to the hardware view of the
// message cache, which is what the co-simulation tests rely on.
//
// The cipher walks themselves read and write message bits through the
// kernel-private BitSource/BitSink (core/walk.hpp); what is left here is the
// bit-granular splice writer and the hardware word packing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace mhhea::util {

/// LSB-first bit sink over caller-provided storage, the splice stage of
/// HHEA's continuous sharded decrypt. Bits accumulate in a word and are
/// flushed to the span one whole byte at a time, so each output byte is
/// written exactly once (the target needs no pre-zeroing). Running past the
/// span throws std::length_error — a short output buffer must never
/// truncate a message silently.
class SpanBitWriter {
 public:
  SpanBitWriter() = default;
  explicit SpanBitWriter(std::span<std::uint8_t> out) noexcept : out_(out) {}

  /// Append the low `n` (<=64) bits of `v`, bit 0 first.
  void write_bits(std::uint64_t v, int n);
  /// Append the first `n_bits` bits of `bytes` (LSB-first) — the splice
  /// primitive the sharded `_into` decrypt paths use for per-shard buffers
  /// whose bit offsets are not byte-aligned.
  void append_bits(std::span<const std::uint8_t> bytes, std::size_t n_bits);
  /// Number of bits written so far.
  [[nodiscard]] std::size_t size_bits() const noexcept { return bits_; }
  /// Write the trailing partial byte (zero-padded), if any. Must be called
  /// once after the last write_bits; further writes are invalid.
  void flush();

 private:
  void put_byte(std::uint8_t b) {
    if (pos_ == out_.size()) {
      throw std::length_error("SpanBitWriter: output buffer too small");
    }
    out_[pos_++] = b;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;    // bytes flushed
  std::size_t bits_ = 0;   // bits written (flushed + pending)
  std::uint64_t acc_ = 0;  // pending bits, LSB-first
  int fill_ = 0;           // pending bit count (< 8 between calls)
};

/// Pack a byte span into little-endian 16-bit words (zero-padded tail) —
/// exactly how the hardware message cache sees a file.
[[nodiscard]] std::vector<std::uint16_t> to_words16(std::span<const std::uint8_t> bytes);

/// Inverse of to_words16; `n_bytes` trims the zero-padded tail.
[[nodiscard]] std::vector<std::uint8_t> from_words16(std::span<const std::uint16_t> words,
                                                     std::size_t n_bytes);

}  // namespace mhhea::util
