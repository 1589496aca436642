// Binary serialization primitives.
//
// The paper's scalability argument is about *bytes on the wire*: a flat
// matrix timestamp costs O(n^2) per message while the domain split plus
// the Updates optimization keeps stamps small.  To make those costs
// measurable rather than notional, every message and clock stamp in this
// repo is encoded through this explicit little-endian codec, and the
// transports charge serialization cost per encoded byte.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cmom {

using Bytes = std::vector<std::uint8_t>;

// Appends fixed-width and varint-encoded values to a byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes initial) : buffer_(std::move(initial)) {}

  void WriteU8(std::uint8_t v) { buffer_.push_back(v); }
  void WriteU16(std::uint16_t v) { WriteLittleEndian(v); }
  void WriteU32(std::uint32_t v) { WriteLittleEndian(v); }
  void WriteU64(std::uint64_t v) { WriteLittleEndian(v); }

  // LEB128-style variable-length encoding; small counters (the common
  // case for clock entries) cost one byte.
  void WriteVarU64(std::uint64_t v) { PutVarU64(Extend(VarU64Size(v)), v); }
  void WriteVarU32(std::uint32_t v) { WriteVarU64(v); }
  // A run of varints with no count prefix, sized once and written in
  // one pass (clock images: s^2 cells).
  void WriteVarU64s(std::span<const std::uint64_t> values);

  void WriteBytes(std::span<const std::uint8_t> data);
  void WriteString(std::string_view s);

  // Pre-grows capacity for `additional` more bytes.  Encode paths that
  // know their frame size (message serialization, per-peer wire
  // buffers) call this once instead of letting push_back reallocate
  // O(log n) times per frame.
  void Reserve(std::size_t additional) {
    buffer_.reserve(buffer_.size() + additional);
  }

  // Exact-size append for encoders that know their size up front: grows
  // the buffer by exactly `n` bytes and returns a pointer to the first
  // of them, for the caller to fill through the Put* helpers below.
  // Sizing first and writing through a pointer replaces one
  // capacity-checked push_back per byte with a single resize, which is
  // what makes the s^2 clock images and stamps cheap to encode.  The
  // pointer is invalidated by the next write to this writer.
  //
  // When the buffer must grow, its capacity goes to a power of two, not
  // to the exact length.  Store records and frames are freed on other
  // threads than the ones that wrote them; buffers of every possible
  // length would each occupy their own slot of the allocator's
  // per-thread caches and inflate peak RSS (EXPERIMENTS.md, exact-size
  // codec section).
  [[nodiscard]] std::uint8_t* Extend(std::size_t n) {
    const std::size_t old = buffer_.size();
    if (old + n > buffer_.capacity()) buffer_.reserve(std::bit_ceil(old + n));
    buffer_.resize(old + n);
    return buffer_.data() + old;
  }

  // Encoded length of WriteVarU64(v): 1 byte per started 7 bits, 1..10.
  // (floor(log2 v) * 9 + 73) / 64 equals ceil(bit_width / 7) on every
  // width 1..64 and needs no division.
  [[nodiscard]] static constexpr std::size_t VarU64Size(std::uint64_t v) {
    if (v < 0x80) return 1;
    const auto log2 = static_cast<std::size_t>(std::bit_width(v) - 1);
    return (log2 * 9 + 73) / 64;
  }
  // Raw writers over an Extend()ed region; each returns the position
  // just past what it wrote.  Byte-for-byte the same as WriteVarU64 and
  // WriteU32.
  static std::uint8_t* PutVarU64(std::uint8_t* p, std::uint64_t v) {
    while (v >= 0x80) {
      *p++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
  }
  static std::uint8_t* PutU32(std::uint8_t* p, std::uint32_t v) {
    for (std::size_t i = 0; i < sizeof(v); ++i) {
      *p++ = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return p;
  }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] const Bytes& buffer() const { return buffer_; }
  [[nodiscard]] Bytes Take() && { return std::move(buffer_); }

 private:
  template <typename T>
  void WriteLittleEndian(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buffer_;
};

// Reads values written by ByteWriter.  All reads are bounds-checked and
// report kDataLoss on truncated input instead of crashing: transports
// hand us bytes that may have been corrupted by fault injection.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> ReadU8();
  [[nodiscard]] Result<std::uint16_t> ReadU16();
  [[nodiscard]] Result<std::uint32_t> ReadU32();
  [[nodiscard]] Result<std::uint64_t> ReadU64();
  // One-byte varints (most clock entries) take the inline fast path;
  // longer ones, truncation and overflow go to ReadVarU64Slow.
  [[nodiscard]] Result<std::uint64_t> ReadVarU64() {
    if (pos_ < data_.size() && data_[pos_] < 0x80) {
      return std::uint64_t{data_[pos_++]};
    }
    return ReadVarU64Slow();
  }
  // The same read for tight decode loops: no Result per value.  False
  // on truncation or overflow, which ReadVarU64 would report as
  // kDataLoss; `out` is then unspecified.
  [[nodiscard]] bool ReadVarU64(std::uint64_t& out) {
    if (pos_ < data_.size() && data_[pos_] < 0x80) {
      out = data_[pos_++];
      return true;
    }
    auto slow = ReadVarU64Slow();
    if (!slow.ok()) return false;
    out = slow.value();
    return true;
  }
  [[nodiscard]] Result<std::uint32_t> ReadVarU32();
  [[nodiscard]] Result<Bytes> ReadBytes();
  // ReadBytes into a buffer recycled from the calling thread's
  // BufferPool freelist (common/buffer_pool.h) -- decode paths on the
  // frame hot path use this so payload allocations amortize to zero.
  [[nodiscard]] Result<Bytes> ReadBytesPooled();
  [[nodiscard]] Result<std::string> ReadString();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  [[nodiscard]] Result<std::uint64_t> ReadVarU64Slow();

  template <typename T>
  [[nodiscard]] Result<T> ReadLittleEndian() {
    if (remaining() < sizeof(T)) {
      return Status::DataLoss("truncated fixed-width field");
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cmom
