#include "clocks/updates_tracker.h"

namespace cmom::clocks {

UpdatesTracker::UpdatesTracker(std::size_t size)
    : size_(size), cells_(size * size), node_state_(size, 0) {}

void UpdatesTracker::NoteChange(DomainServerId row, DomainServerId col,
                                std::optional<DomainServerId> writer) {
  CellMeta& cell = cells_[index(row, col)];
  cell.state = ++state_;
  cell.writer = writer ? writer->value() : kSelfWriter;
}

Stamp UpdatesTracker::CollectFor(DomainServerId dest,
                                 const MatrixClock& matrix) {
  Stamp stamp;
  const std::uint64_t since = node_state_[dest.value()];
  for (std::uint16_t row = 0; row < size_; ++row) {
    for (std::uint16_t col = 0; col < size_; ++col) {
      const CellMeta& cell = cells_[static_cast<std::size_t>(row) * size_ + col];
      if (cell.state <= since) continue;
      if (cell.writer == dest.value()) continue;  // dest already knows it
      stamp.entries.push_back(StampEntry{DomainServerId(row),
                                         DomainServerId(col),
                                         matrix.at(DomainServerId(row),
                                                   DomainServerId(col))});
    }
  }
  node_state_[dest.value()] = state_;
  return stamp;
}

UpdatesTracker UpdatesTracker::Remap(
    std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  // Inverse map: old local id -> new local id (or none when departed).
  std::vector<std::optional<std::uint16_t>> new_of_old(size_);
  for (std::size_t i = 0; i < new_size; ++i) {
    if (old_of_new[i]) {
      new_of_old[old_of_new[i]->value()] =
          static_cast<std::uint16_t>(i);
    }
  }
  UpdatesTracker out(new_size);
  out.state_ = state_;
  for (std::size_t i = 0; i < new_size; ++i) {
    if (!old_of_new[i]) continue;
    for (std::size_t j = 0; j < new_size; ++j) {
      if (!old_of_new[j]) continue;
      const CellMeta& old_cell =
          cells_[static_cast<std::size_t>(old_of_new[i]->value()) * size_ +
                 old_of_new[j]->value()];
      CellMeta& cell = out.cells_[i * new_size + j];
      cell.state = old_cell.state;
      // The "never echo back to its writer" refinement only survives
      // when the writer is still a member; a departed writer resets to
      // self-written so the entry is (redundantly, safely) re-sent.
      cell.writer = kSelfWriter;
      if (old_cell.writer != kSelfWriter &&
          old_cell.writer < new_of_old.size() &&
          new_of_old[old_cell.writer]) {
        cell.writer = *new_of_old[old_cell.writer];
      }
    }
  }
  for (std::size_t j = 0; j < new_size; ++j) {
    // A joiner starts at 0: the first message to it carries every live
    // entry, i.e. the full matrix it has no other way to learn.
    out.node_state_[j] =
        old_of_new[j] ? node_state_[old_of_new[j]->value()] : 0;
  }
  return out;
}

void UpdatesTracker::Encode(ByteWriter& out) const {
  out.WriteVarU64(size_);
  out.WriteVarU64(state_);
  // Each cell is a varint state plus a fixed u32 writer id.
  std::size_t size = cells_.size() * sizeof(std::uint32_t);
  for (const CellMeta& cell : cells_) {
    size += ByteWriter::VarU64Size(cell.state);
  }
  std::uint8_t* p = out.Extend(size);
  for (const CellMeta& cell : cells_) {
    p = ByteWriter::PutVarU64(p, cell.state);
    p = ByteWriter::PutU32(p, cell.writer);
  }
  out.WriteVarU64s(node_state_);
}

Result<UpdatesTracker> UpdatesTracker::Decode(ByteReader& in) {
  auto size = in.ReadVarU64();
  if (!size.ok()) return size.status();
  // size^2 cells of >= 5 encoded bytes each must fit in the remaining
  // input; reject corrupt sizes before allocating from them.
  if (size.value() > 0xFFFF ||
      size.value() * size.value() > in.remaining() / 5) {
    return Status::DataLoss("tracker size exceeds input");
  }
  UpdatesTracker tracker(static_cast<std::size_t>(size.value()));
  auto state = in.ReadVarU64();
  if (!state.ok()) return state.status();
  tracker.state_ = state.value();
  for (CellMeta& cell : tracker.cells_) {
    auto cell_state = in.ReadVarU64();
    if (!cell_state.ok()) return cell_state.status();
    auto writer = in.ReadU32();
    if (!writer.ok()) return writer.status();
    cell.state = cell_state.value();
    cell.writer = writer.value();
  }
  for (std::uint64_t& s : tracker.node_state_) {
    auto node_state = in.ReadVarU64();
    if (!node_state.ok()) return node_state.status();
    s = node_state.value();
  }
  return tracker;
}

}  // namespace cmom::clocks
