#include "clocks/causal_core.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace cmom::clocks {
namespace {

// Leading u16 of a sentinel-tagged durable record.  A legacy matrix
// image starts with the domain-local self id, which is always a valid
// matrix index and therefore < 0xFFFF.
constexpr std::uint16_t kCoreStateSentinel = 0xFFFF;

}  // namespace

std::string_view CausalCoreKindName(CausalCoreKind kind) {
  switch (kind) {
    case CausalCoreKind::kMatrix: return "matrix";
    case CausalCoreKind::kHybrid: return "hybrid";
    case CausalCoreKind::kReduced: return "reduced";
  }
  return "?";
}

std::optional<CausalCoreKind> ParseCausalCoreKind(std::string_view name) {
  if (name == "matrix") return CausalCoreKind::kMatrix;
  if (name == "hybrid") return CausalCoreKind::kHybrid;
  if (name == "reduced") return CausalCoreKind::kReduced;
  return std::nullopt;
}

std::size_t CausalCoreStampCost(CausalCoreKind kind,
                                std::size_t domain_size) {
  switch (kind) {
    case CausalCoreKind::kMatrix: return domain_size * domain_size;
    case CausalCoreKind::kReduced: return domain_size;
    case CausalCoreKind::kHybrid: return 1;
  }
  return domain_size * domain_size;
}

void CausalCore::PrepareSendBatch(DomainServerId dest, std::size_t count,
                                  std::vector<Stamp>& out) {
  out.reserve(out.size() + count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(PrepareSend(dest));
}

bool MatrixClockCore::Equals(const CausalCore& other) const {
  const auto* rhs = dynamic_cast<const MatrixClockCore*>(&other);
  return rhs != nullptr && clock_ == rhs->clock_;
}

// ---------------------------------------------------------------------------
// ReducedMatrixCore

ReducedMatrixCore::ReducedMatrixCore(DomainServerId self,
                                     std::size_t domain_size)
    : self_(self), matrix_(domain_size), tracker_(domain_size) {
  assert(self.value() < domain_size);
}

Stamp ReducedMatrixCore::PrepareSend(DomainServerId dest) {
  assert(dest.value() < matrix_.size());
  matrix_.Increment(self_, dest);
  ++version_;
  tracker_.NoteChange(self_, dest, std::nullopt);
  Stamp stamp = tracker_.CollectFor(dest, matrix_);
  // Top the delta up to the complete destination column so the
  // receiver's delivery check never depends on link history.  Column
  // cells the delta already carries are not repeated.
  for (std::uint16_t row = 0; row < matrix_.size(); ++row) {
    const DomainServerId r{row};
    const std::uint64_t value = matrix_.at(r, dest);
    if (value == 0) continue;
    if (stamp.Find(r, dest) == nullptr) {
      stamp.entries.push_back(StampEntry{r, dest, value});
    }
  }
  return stamp;
}

CheckResult ReducedMatrixCore::CheckReceive(DomainServerId src,
                                            const Stamp& stamp) const {
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

void ReducedMatrixCore::OnDeliver(DomainServerId src, const Stamp& stamp) {
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

std::unique_ptr<CausalCore> ReducedMatrixCore::Remap(
    DomainServerId new_self, std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  assert(new_self.value() < new_size);
  auto out = std::unique_ptr<ReducedMatrixCore>(new ReducedMatrixCore());
  out->self_ = new_self;
  out->matrix_ = matrix_.Remap(new_size, old_of_new);
  out->tracker_ = tracker_.Remap(new_size, old_of_new);
  return out;
}

void ReducedMatrixCore::EncodeState(ByteWriter& out) const {
  out.WriteU16(kCoreStateSentinel);
  out.WriteU8(static_cast<std::uint8_t>(CausalCoreKind::kReduced));
  out.WriteU16(self_.value());
  matrix_.Encode(out);
  tracker_.Encode(out);
}

Result<std::unique_ptr<CausalCore>> ReducedMatrixCore::DecodeBody(
    ByteReader& in) {
  auto self = in.ReadU16();
  if (!self.ok()) return self.status();
  auto matrix = MatrixClock::Decode(in);
  if (!matrix.ok()) return matrix.status();
  auto tracker = UpdatesTracker::Decode(in);
  if (!tracker.ok()) return tracker.status();
  if (self.value() >= matrix.value().size()) {
    return Status::DataLoss("reduced core self id out of range");
  }
  auto core = std::unique_ptr<ReducedMatrixCore>(new ReducedMatrixCore());
  core->self_ = DomainServerId(self.value());
  core->matrix_ = std::move(matrix).value();
  core->tracker_ = std::move(tracker).value();
  return std::unique_ptr<CausalCore>(std::move(core));
}

bool ReducedMatrixCore::Equals(const CausalCore& other) const {
  const auto* rhs = dynamic_cast<const ReducedMatrixCore*>(&other);
  return rhs != nullptr && self_ == rhs->self_ && matrix_ == rhs->matrix_ &&
         tracker_ == rhs->tracker_;
}

// ---------------------------------------------------------------------------
// HybridBufferingCore

HybridBufferingCore::HybridBufferingCore(DomainServerId self,
                                         std::size_t domain_size)
    : self_(self), size_(domain_size), sent_(domain_size, 0),
      delivered_(domain_size, 0), heard_(domain_size * domain_size, 0),
      delivered_tick_(domain_size, 0), sent_tick_(domain_size, 0),
      heard_tick_(domain_size * domain_size, 0) {
  assert(self.value() < domain_size);
  assert(domain_size <= kHeardFlag && "hybrid core caps domains at 0x8000");
}

Stamp HybridBufferingCore::PrepareSend(DomainServerId dest) {
  assert(dest.value() < size_);
  const std::uint64_t seq = ++sent_[dest.value()];
  ++version_;
  Stamp stamp;
  stamp.entries.reserve(1 + barriers_.size());
  stamp.entries.push_back(StampEntry{self_, dest, seq});
  // The full barrier set rides on every message; that is what makes the
  // receiver's check transitively complete without any matrix.
  for (const auto& [link, bseq] : barriers_) {
    stamp.entries.push_back(StampEntry{DomainServerId(link.first),
                                       DomainServerId(link.second), bseq});
  }
  // Delivered-count gossip: every count that advanced since the last
  // send to this destination -- our own deliveries and counts heard
  // third-hand alike, so pruning knowledge spreads transitively.
  const std::uint64_t last = sent_tick_[dest.value()];
  for (std::uint16_t origin = 0; origin < size_; ++origin) {
    if (delivered_tick_[origin] > last) {
      stamp.entries.push_back(
          StampEntry{DomainServerId(origin | kHeardFlag), self_,
                     delivered_[origin]});
    }
  }
  for (std::uint16_t d = 0; d < size_; ++d) {
    if (d == self_.value()) continue;
    for (std::uint16_t origin = 0; origin < size_; ++origin) {
      const std::size_t idx =
          pair_index(DomainServerId(d), DomainServerId(origin));
      if (heard_tick_[idx] > last) {
        stamp.entries.push_back(StampEntry{DomainServerId(origin | kHeardFlag),
                                           DomainServerId(d), heard_[idx]});
      }
    }
  }
  sent_tick_[dest.value()] = tick_;
  // This message itself is now possibly undelivered; later sends (to
  // anyone) must carry it until its delivery is confirmed.
  barriers_[{self_.value(), dest.value()}] = seq;
  return stamp;
}

CheckResult HybridBufferingCore::CheckReceive(DomainServerId src,
                                              const Stamp& stamp) const {
  // Malformed: no FIFO header for the src -> self link, or a barrier
  // or gossip coordinate (flag stripped) outside the domain.
  if (src.value() >= size_ || stamp.entries.empty() ||
      stamp.entries.front().row != src || stamp.entries.front().col != self_) {
    return CheckResult::kMalformed;
  }
  for (const StampEntry& e : stamp.entries) {
    if ((e.row.value() & ~kHeardFlag) >= size_ || e.col.value() >= size_) {
      return CheckResult::kMalformed;
    }
  }
  const StampEntry& header = stamp.entries.front();
  const std::uint64_t delivered = delivered_[src.value()];
  if (header.value <= delivered) return CheckResult::kDuplicate;
  if (header.value > delivered + 1) return CheckResult::kHold;  // FIFO gap
  for (std::size_t i = 1; i < stamp.entries.size(); ++i) {
    const StampEntry& e = stamp.entries[i];
    if ((e.row.value() & kHeardFlag) != 0) continue;  // delivered gossip
    if (e.col != self_) continue;  // barrier for someone else
    // A message destined to us, in this message's causal past, that the
    // sender could not confirm as delivered.  FIFO per link means one
    // comparison settles every seq <= e.value.
    if (delivered_[e.row.value()] < e.value) return CheckResult::kHold;
  }
  return CheckResult::kDeliver;
}

void HybridBufferingCore::OnDeliver(DomainServerId src, const Stamp& stamp) {
  assert(!stamp.entries.empty());
  const StampEntry& header = stamp.entries.front();
  delivered_[src.value()] = header.value;
  ++tick_;
  delivered_tick_[src.value()] = tick_;
  ++version_;
  for (std::size_t i = 1; i < stamp.entries.size(); ++i) {
    const StampEntry& e = stamp.entries[i];
    if ((e.row.value() & kHeardFlag) != 0) {
      // Gossip: e.value messages of the origin -> e.col link are known
      // delivered.  Prune barriers on that link and remember the count.
      // Re-gossip onward ONLY when the count pruned one of our own
      // barriers: we then know we may have shipped that barrier to
      // others, so the confirmation retraces the barrier's own
      // dissemination paths instead of flooding every node with every
      // count (which would put the O(s^2) epidemic right back on the
      // wire).
      const DomainServerId origin(
          static_cast<std::uint16_t>(e.row.value() & ~kHeardFlag));
      if (e.col == self_) continue;  // our own deliveries; we know better
      std::uint64_t& known = heard_[pair_index(e.col, origin)];
      if (e.value <= known) continue;
      known = e.value;
      auto it = barriers_.find({origin.value(), e.col.value()});
      if (it != barriers_.end() && it->second <= e.value) {
        barriers_.erase(it);
        heard_tick_[pair_index(e.col, origin)] = tick_;
      }
      continue;
    }
    if (e.col == self_) continue;  // satisfied: CheckReceive proved it
    if (e.value <= heard_[pair_index(e.col, e.row)]) continue;  // delivered
    std::uint64_t& slot = barriers_[{e.row.value(), e.col.value()}];
    slot = std::max(slot, e.value);
  }
  // Our own delivery of this message prunes any barrier we carried for
  // the src -> self link.
  auto own = barriers_.find({src.value(), self_.value()});
  if (own != barriers_.end() && own->second <= header.value) {
    barriers_.erase(own);
  }
}

std::unique_ptr<CausalCore> HybridBufferingCore::Remap(
    DomainServerId new_self, std::size_t new_size,
    std::span<const std::optional<DomainServerId>> old_of_new) const {
  assert(new_self.value() < new_size);
  assert(old_of_new.size() == new_size);
  auto out = std::unique_ptr<HybridBufferingCore>(new HybridBufferingCore());
  out->self_ = new_self;
  out->size_ = new_size;
  out->sent_.assign(new_size, 0);
  out->delivered_.assign(new_size, 0);
  out->heard_.assign(new_size * new_size, 0);
  out->delivered_tick_.assign(new_size, 0);
  out->sent_tick_.assign(new_size, 0);
  out->heard_tick_.assign(new_size * new_size, 0);
  // Old domain-local index of each new member, for barrier remapping.
  std::vector<std::optional<std::uint16_t>> new_of_old;
  for (std::uint16_t n = 0; n < new_size; ++n) {
    const auto& old = old_of_new[n];
    if (!old.has_value()) continue;
    out->sent_[n] = sent_[old->value()];
    out->delivered_[n] = delivered_[old->value()];
    if (new_of_old.size() <= old->value()) {
      new_of_old.resize(old->value() + 1);
    }
    new_of_old[old->value()] = n;
    for (std::uint16_t m = 0; m < new_size; ++m) {
      const auto& old_m = old_of_new[m];
      if (!old_m.has_value()) continue;
      out->heard_[out->pair_index(DomainServerId(n), DomainServerId(m))] =
          heard_[pair_index(DomainServerId(old->value()),
                            DomainServerId(old_m->value()))];
    }
  }
  auto mapped = [&](std::uint16_t old_id) -> std::optional<std::uint16_t> {
    if (old_id >= new_of_old.size()) return std::nullopt;
    return new_of_old[old_id];
  };
  // Barriers touching a departed member are dropped: the member is gone,
  // its undelivered messages with it (Remap runs on a quiesced domain).
  for (const auto& [link, seq] : barriers_) {
    const auto origin = mapped(link.first);
    const auto dest = mapped(link.second);
    if (!origin.has_value() || !dest.has_value()) continue;
    out->barriers_[{*origin, *dest}] = seq;
  }
  return out;
}

void HybridBufferingCore::EncodeState(ByteWriter& out) const {
  out.WriteU16(kCoreStateSentinel);
  out.WriteU8(static_cast<std::uint8_t>(CausalCoreKind::kHybrid));
  out.WriteU16(self_.value());
  out.WriteVarU64(size_);
  out.WriteVarU64s(sent_);
  out.WriteVarU64s(delivered_);
  out.WriteVarU64s(heard_);
  out.WriteVarU64(tick_);
  out.WriteVarU64s(delivered_tick_);
  out.WriteVarU64s(sent_tick_);
  out.WriteVarU64s(heard_tick_);
  out.WriteVarU64(barriers_.size());
  for (const auto& [link, seq] : barriers_) {
    out.WriteU16(link.first);
    out.WriteU16(link.second);
    out.WriteVarU64(seq);
  }
}

Result<std::unique_ptr<CausalCore>> HybridBufferingCore::DecodeBody(
    ByteReader& in) {
  auto self = in.ReadU16();
  if (!self.ok()) return self.status();
  auto size = in.ReadVarU64();
  if (!size.ok()) return size.status();
  if (size.value() > HybridBufferingCore::kHeardFlag ||
      self.value() >= size.value()) {
    return Status::DataLoss("hybrid core image has bad geometry");
  }
  const std::size_t n = static_cast<std::size_t>(size.value());
  auto core = std::unique_ptr<HybridBufferingCore>(new HybridBufferingCore());
  core->self_ = DomainServerId(self.value());
  core->size_ = n;
  auto read_vec = [&in](std::vector<std::uint64_t>& vec,
                        std::size_t count) -> Status {
    vec.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      auto v = in.ReadVarU64();
      if (!v.ok()) return v.status();
      vec[i] = v.value();
    }
    return Status::Ok();
  };
  if (auto s = read_vec(core->sent_, n); !s.ok()) return s;
  if (auto s = read_vec(core->delivered_, n); !s.ok()) return s;
  if (auto s = read_vec(core->heard_, n * n); !s.ok()) return s;
  auto tick = in.ReadVarU64();
  if (!tick.ok()) return tick.status();
  core->tick_ = tick.value();
  if (auto s = read_vec(core->delivered_tick_, n); !s.ok()) return s;
  if (auto s = read_vec(core->sent_tick_, n); !s.ok()) return s;
  if (auto s = read_vec(core->heard_tick_, n * n); !s.ok()) return s;
  auto count = in.ReadVarU64();
  if (!count.ok()) return count.status();
  if (count.value() > in.remaining()) {
    return Status::DataLoss("hybrid core barrier count exceeds record");
  }
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto origin = in.ReadU16();
    if (!origin.ok()) return origin.status();
    auto dest = in.ReadU16();
    if (!dest.ok()) return dest.status();
    auto seq = in.ReadVarU64();
    if (!seq.ok()) return seq.status();
    core->barriers_[{origin.value(), dest.value()}] = seq.value();
  }
  return std::unique_ptr<CausalCore>(std::move(core));
}

bool HybridBufferingCore::Equals(const CausalCore& other) const {
  const auto* rhs = dynamic_cast<const HybridBufferingCore*>(&other);
  return rhs != nullptr && self_ == rhs->self_ && size_ == rhs->size_ &&
         sent_ == rhs->sent_ && delivered_ == rhs->delivered_ &&
         barriers_ == rhs->barriers_ && heard_ == rhs->heard_ &&
         tick_ == rhs->tick_ && delivered_tick_ == rhs->delivered_tick_ &&
         sent_tick_ == rhs->sent_tick_ && heard_tick_ == rhs->heard_tick_;
}

// ---------------------------------------------------------------------------

std::unique_ptr<CausalCore> MakeCausalCore(CausalCoreKind kind,
                                           DomainServerId self,
                                           std::size_t domain_size,
                                           StampMode mode) {
  switch (kind) {
    case CausalCoreKind::kMatrix:
      return std::make_unique<MatrixClockCore>(self, domain_size, mode);
    case CausalCoreKind::kHybrid:
      return std::make_unique<HybridBufferingCore>(self, domain_size);
    case CausalCoreKind::kReduced:
      return std::make_unique<ReducedMatrixCore>(self, domain_size);
  }
  return std::make_unique<MatrixClockCore>(self, domain_size, mode);
}

Result<std::unique_ptr<CausalCore>> DecodeCausalCoreState(ByteReader& in) {
  auto lead = in.ReadU16();
  if (!lead.ok()) return lead.status();
  if (lead.value() != kCoreStateSentinel) {
    // Legacy matrix image: the u16 we consumed was the self id.
    auto clock = CausalDomainClock::DecodeStateTail(
        in, DomainServerId(lead.value()));
    if (!clock.ok()) return clock.status();
    return std::unique_ptr<CausalCore>(
        std::make_unique<MatrixClockCore>(std::move(clock).value()));
  }
  auto kind = in.ReadU8();
  if (!kind.ok()) return kind.status();
  switch (static_cast<CausalCoreKind>(kind.value())) {
    case CausalCoreKind::kHybrid:
      return HybridBufferingCore::DecodeBody(in);
    case CausalCoreKind::kReduced:
      return ReducedMatrixCore::DecodeBody(in);
    case CausalCoreKind::kMatrix:
      break;  // the matrix core never writes tagged records
  }
  return Status::DataLoss("unknown causal core kind " +
                          std::to_string(kind.value()));
}

}  // namespace cmom::clocks
