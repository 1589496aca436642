#include "clocks/causal_clock.h"

#include <cassert>

namespace cmom::clocks {

CausalDomainClock::CausalDomainClock(DomainServerId self,
                                     std::size_t domain_size, StampMode mode)
    : self_(self), mode_(mode), matrix_(domain_size),
      tracker_(domain_size) {
  assert(self.value() < domain_size);
}

Stamp CausalDomainClock::PrepareSend(DomainServerId dest) {
  assert(dest.value() < matrix_.size());
  matrix_.Increment(self_, dest);
  ++version_;
  tracker_.NoteChange(self_, dest, std::nullopt);
  if (mode_ == StampMode::kUpdates) {
    return tracker_.CollectFor(dest, matrix_);
  }
  Stamp stamp;
  stamp.entries.reserve(matrix_.size() * matrix_.size());
  for (std::uint16_t row = 0; row < matrix_.size(); ++row) {
    for (std::uint16_t col = 0; col < matrix_.size(); ++col) {
      stamp.entries.push_back(StampEntry{
          DomainServerId(row), DomainServerId(col),
          matrix_.at(DomainServerId(row), DomainServerId(col))});
    }
  }
  return stamp;
}

void CausalDomainClock::PrepareSendBatch(DomainServerId dest,
                                         std::size_t count,
                                         std::vector<Stamp>& out) {
  if (count == 0) return;
  assert(dest.value() < matrix_.size());
  ++version_;
  out.reserve(out.size() + count);
  if (mode_ == StampMode::kUpdates) {
    for (std::size_t i = 0; i < count; ++i) {
      matrix_.Increment(self_, dest);
      tracker_.NoteChange(self_, dest, std::nullopt);
      // The first CollectFor drains everything pending toward `dest`;
      // each later stamp carries only its own send counter.
      out.push_back(tracker_.CollectFor(dest, matrix_));
    }
    return;
  }
  // Full-matrix mode: snapshot the matrix once after the first
  // increment, then patch the single (self, dest) cell per message.
  matrix_.Increment(self_, dest);
  tracker_.NoteChange(self_, dest, std::nullopt);
  Stamp base;
  base.entries.reserve(matrix_.size() * matrix_.size());
  for (std::uint16_t row = 0; row < matrix_.size(); ++row) {
    for (std::uint16_t col = 0; col < matrix_.size(); ++col) {
      base.entries.push_back(StampEntry{
          DomainServerId(row), DomainServerId(col),
          matrix_.at(DomainServerId(row), DomainServerId(col))});
    }
  }
  const std::size_t send_cell =
      self_.value() * matrix_.size() + dest.value();
  out.push_back(base);
  for (std::size_t i = 1; i < count; ++i) {
    matrix_.Increment(self_, dest);
    tracker_.NoteChange(self_, dest, std::nullopt);
    base.entries[send_cell].value = matrix_.at(self_, dest);
    out.push_back(base);
  }
}

CheckResult CausalDomainClock::Check(DomainServerId src,
                                     const Stamp& stamp) const {
  // PrepareSend always bumps M[src][dest] last, so the entry is present
  // in both full and delta stamps; a stamp without it is corrupt.
  const StampEntry* own = FindOwnEntry(matrix_.size(), src, self_, stamp);
  if (own == nullptr) return CheckResult::kMalformed;
  const std::uint64_t delivered = matrix_.at(src, self_);
  if (own->value <= delivered) return CheckResult::kDuplicate;
  if (own->value > delivered + 1) return CheckResult::kHold;  // FIFO gap
  for (const StampEntry& e : stamp.entries) {
    if (e.col != self_ || e.row == src) continue;
    if (e.value > matrix_.at(e.row, e.col)) return CheckResult::kHold;
  }
  return CheckResult::kDeliver;
}

void CausalDomainClock::Commit(DomainServerId src, const Stamp& stamp) {
  bool changed = false;
  for (const StampEntry& e : stamp.entries) {
    if (e.value > matrix_.at(e.row, e.col)) {
      matrix_.set(e.row, e.col, e.value);
      tracker_.NoteChange(e.row, e.col, src);
      changed = true;
    }
  }
  if (changed) ++version_;
}

CausalDomainClock CausalDomainClock::Remap(
    DomainServerId new_self, std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  assert(new_self.value() < new_size);
  CausalDomainClock out;
  out.self_ = new_self;
  out.mode_ = mode_;
  out.matrix_ = matrix_.Remap(new_size, old_of_new);
  out.tracker_ = tracker_.Remap(new_size, old_of_new);
  return out;
}

void CausalDomainClock::EncodeState(ByteWriter& out) const {
  out.WriteU16(self_.value());
  out.WriteU8(static_cast<std::uint8_t>(mode_));
  matrix_.Encode(out);
  tracker_.Encode(out);
}

Result<CausalDomainClock> CausalDomainClock::DecodeState(ByteReader& in) {
  auto self = in.ReadU16();
  if (!self.ok()) return self.status();
  return DecodeStateTail(in, DomainServerId(self.value()));
}

Result<CausalDomainClock> CausalDomainClock::DecodeStateTail(
    ByteReader& in, DomainServerId self) {
  auto mode = in.ReadU8();
  if (!mode.ok()) return mode.status();
  if (mode.value() > static_cast<std::uint8_t>(StampMode::kUpdates)) {
    return Status::DataLoss("bad stamp mode");
  }
  auto matrix = MatrixClock::Decode(in);
  if (!matrix.ok()) return matrix.status();
  // The self id indexes the matrix on every send and check.  This also
  // refuses sentinel-tagged records of other cores (self 0xFFFF).
  if (self.value() >= matrix.value().size()) {
    return Status::DataLoss("clock self id outside its domain");
  }
  auto tracker = UpdatesTracker::Decode(in);
  if (!tracker.ok()) return tracker.status();
  CausalDomainClock clock;
  clock.self_ = self;
  clock.mode_ = static_cast<StampMode>(mode.value());
  clock.matrix_ = std::move(matrix).value();
  clock.tracker_ = std::move(tracker).value();
  return clock;
}

}  // namespace cmom::clocks
