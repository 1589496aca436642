#include "common/bytes.h"

#include "common/buffer_pool.h"

namespace cmom {

void ByteWriter::WriteVarU64s(std::span<const std::uint64_t> values) {
  std::size_t size = 0;
  for (std::uint64_t v : values) size += VarU64Size(v);
  std::uint8_t* p = Extend(size);
  for (std::uint64_t v : values) p = PutVarU64(p, v);
}

void ByteWriter::WriteBytes(std::span<const std::uint8_t> data) {
  WriteVarU64(data.size());
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void ByteWriter::WriteString(std::string_view s) {
  WriteVarU64(s.size());
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

Result<std::uint8_t> ByteReader::ReadU8() {
  return ReadLittleEndian<std::uint8_t>();
}
Result<std::uint16_t> ByteReader::ReadU16() {
  return ReadLittleEndian<std::uint16_t>();
}
Result<std::uint32_t> ByteReader::ReadU32() {
  return ReadLittleEndian<std::uint32_t>();
}
Result<std::uint64_t> ByteReader::ReadU64() {
  return ReadLittleEndian<std::uint64_t>();
}

Result<std::uint64_t> ByteReader::ReadVarU64Slow() {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    std::uint8_t byte = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7E) != 0)) {
      return Status::DataLoss("varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::DataLoss("truncated varint");
}

Result<std::uint32_t> ByteReader::ReadVarU32() {
  auto v = ReadVarU64();
  if (!v.ok()) return v.status();
  if (v.value() > 0xFFFFFFFFull) {
    return Status::DataLoss("varint exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(v.value());
}

Result<Bytes> ByteReader::ReadBytes() {
  auto len = ReadVarU64();
  if (!len.ok()) return len.status();
  if (remaining() < len.value()) {
    return Status::DataLoss("truncated byte string");
  }
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len.value()));
  pos_ += len.value();
  return out;
}

Result<Bytes> ByteReader::ReadBytesPooled() {
  auto len = ReadVarU64();
  if (!len.ok()) return len.status();
  if (remaining() < len.value()) {
    return Status::DataLoss("truncated byte string");
  }
  Bytes out = BufferPool::Acquire(len.value());
  out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
             data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len.value()));
  pos_ += len.value();
  return out;
}

Result<std::string> ByteReader::ReadString() {
  auto raw = ReadBytes();
  if (!raw.ok()) return raw.status();
  return std::string(raw.value().begin(), raw.value().end());
}

}  // namespace cmom
