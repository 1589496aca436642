#include "clocks/stamp.h"

namespace cmom::clocks {

const StampEntry* Stamp::Find(DomainServerId row, DomainServerId col) const {
  for (const StampEntry& e : entries) {
    if (e.row == row && e.col == col) return &e;
  }
  return nullptr;
}

void Stamp::Encode(ByteWriter& out) const {
  std::uint8_t* p = out.Extend(EncodedSize());
  p = ByteWriter::PutVarU64(p, entries.size());
  for (const StampEntry& e : entries) {
    p = ByteWriter::PutVarU64(p, e.row.value());
    p = ByteWriter::PutVarU64(p, e.col.value());
    p = ByteWriter::PutVarU64(p, e.value);
  }
}

Result<Stamp> Stamp::Decode(ByteReader& in) {
  auto count = in.ReadVarU64();
  if (!count.ok()) return count.status();
  // Each entry costs at least 3 encoded bytes; a count the input cannot
  // possibly back is corruption, and must be rejected *before* any
  // allocation sized from it.
  if (count.value() > in.remaining() / 3) {
    return Status::DataLoss("stamp entry count exceeds input");
  }
  Stamp stamp;
  stamp.entries.resize(static_cast<std::size_t>(count.value()));
  for (StampEntry& e : stamp.entries) {
    std::uint64_t row = 0;
    std::uint64_t col = 0;
    if (!in.ReadVarU64(row) || !in.ReadVarU64(col) ||
        !in.ReadVarU64(e.value)) {
      return Status::DataLoss("truncated or overlong varint in stamp");
    }
    if (row > 0xFFFFFFFFull || col > 0xFFFFFFFFull) {
      return Status::DataLoss("varint exceeds 32 bits");
    }
    e.row = DomainServerId(static_cast<std::uint16_t>(row));
    e.col = DomainServerId(static_cast<std::uint16_t>(col));
  }
  return stamp;
}

std::size_t Stamp::EncodedSize() const {
  std::size_t size = ByteWriter::VarU64Size(entries.size());
  for (const StampEntry& e : entries) {
    size += ByteWriter::VarU64Size(e.row.value()) +
            ByteWriter::VarU64Size(e.col.value()) +
            ByteWriter::VarU64Size(e.value);
  }
  return size;
}

const StampEntry* FindOwnEntry(std::size_t size, DomainServerId src,
                               DomainServerId self, const Stamp& stamp) {
  if (src.value() >= size) return nullptr;
  const StampEntry* own = nullptr;
  for (const StampEntry& e : stamp.entries) {
    if (e.row.value() >= size || e.col.value() >= size) return nullptr;
    if (own == nullptr && e.row == src && e.col == self) own = &e;
  }
  return own;
}

std::ostream& operator<<(std::ostream& os, const Stamp& stamp) {
  os << "{";
  for (std::size_t i = 0; i < stamp.entries.size(); ++i) {
    const StampEntry& e = stamp.entries[i];
    if (i > 0) os << ", ";
    os << "(" << e.row << "," << e.col << ")=" << e.value;
  }
  return os << "}";
}

}  // namespace cmom::clocks
