// Pluggable causal-delivery cores.
//
// The paper's per-domain matrix clock is one point in a design space:
// Almeida's hybrid buffering (constant-size timestamps, receiver-side
// hold-back keyed on per-link FIFO plus causal barriers) and the
// Drummond-Barbosa matrix-clock complexity reduction attack the O(s^2)
// timestamp cost that caps domain size.  CausalCore factors the causal
// layer behind a strategy interface so the same middleware, benches and
// chaos harness can compare all three.
//
// Every core implements *exact* per-domain causal delivery: a message
// from src to self is deliverable iff every message destined to self in
// its causal past has been delivered.  Because the condition is exact,
// all cores make identical delivery decisions on identical arrival
// sequences -- the cross-core equivalence property the test suite pins.
// What differs is the representation cost:
//
//   kMatrix   O(s^2) state, stamps O(s^2) full / O(delta) in Updates
//             mode.  Wraps the existing CausalDomainClock bit-exactly.
//   kReduced  O(s^2) state, stamps O(s + delta): the Drummond-Barbosa
//             observation that the delivery condition only reads the
//             destination column, so each stamp carries that column in
//             full plus the Appendix-A delta for transitive knowledge.
//             Never ships the s^2 matrix.
//   kHybrid   O(s^2) counters of local state (the heard matrix), stamps
//             O(inflight): per-link FIFO sequence numbers plus an
//             explicit causal-barrier set (the possibly-undelivered
//             messages the sender knows of), pruned by transitively
//             gossiped delivered counts.  Stamp size is independent of
//             s at fixed in-flight load.
//
// Wire stamps reuse the Stamp (row, col, value) triple container so the
// existing frame codec carries any core's timestamp unchanged; frames
// additionally carry a core tag (see mom/message.h) so a receiver can
// fence frames stamped by a different core.  Durable state begins with
// a u16: the legacy matrix image starts with the self id (< 0xFFFF),
// new cores write the 0xFFFF sentinel, a kind byte, then a per-kind
// payload -- so pre-core stores load unchanged and old binaries reject
// new records cleanly (the kind byte lands in the stamp-mode slot).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "clocks/causal_clock.h"
#include "clocks/stamp.h"
#include "common/bytes.h"
#include "common/ids.h"
#include "common/status.h"

namespace cmom::clocks {

enum class CausalCoreKind : std::uint8_t {
  kMatrix = 0,  // the paper's baseline; wire tag 0 is never sent
  kHybrid = 1,
  kReduced = 2,
};

// Human-readable name ("matrix" / "hybrid" / "reduced"), as written in
// config files and printed by momtool.
[[nodiscard]] std::string_view CausalCoreKindName(CausalCoreKind kind);
[[nodiscard]] std::optional<CausalCoreKind> ParseCausalCoreKind(
    std::string_view name);

// Per-server steady-state stamp cost model used by the momtool topo
// lint and the splitter scoring: O(s^2) matrix, O(s) reduced, O(1)
// hybrid.  Returned in "cells" (stamp entries), comparable across
// domains the way the paper's sum-of-s^2 figure is.
[[nodiscard]] std::size_t CausalCoreStampCost(CausalCoreKind kind,
                                              std::size_t domain_size);

class CausalCore {
 public:
  virtual ~CausalCore() = default;

  [[nodiscard]] virtual CausalCoreKind kind() const = 0;
  [[nodiscard]] virtual DomainServerId self() const = 0;
  [[nodiscard]] virtual std::size_t domain_size() const = 0;

  // Sender side: accounts for one message self -> dest and returns the
  // stamp to piggyback on it.
  [[nodiscard]] virtual Stamp PrepareSend(DomainServerId dest) = 0;

  // Batched sender side: exactly the stamps `count` sequential
  // PrepareSend calls would produce.  Cores override when they can do
  // better than the default loop (the matrix core's one-pass snapshot).
  virtual void PrepareSendBatch(DomainServerId dest, std::size_t count,
                                std::vector<Stamp>& out);

  // Receiver side, step 1: classify an incoming message from `src`
  // stamped `stamp` without changing any state.  Every core returns
  // kMalformed for a stamp it could index out of bounds or that lacks
  // the src -> self link's counter, so OnDeliver only ever sees stamps
  // that passed this check.
  [[nodiscard]] virtual CheckResult CheckReceive(DomainServerId src,
                                                const Stamp& stamp) const = 0;

  // Receiver side, step 2: merge the stamp into the local state.  Must
  // only be called after CheckReceive() returned kDeliver.
  virtual void OnDeliver(DomainServerId src, const Stamp& stamp) = 0;

  // Rebuilds the core over a new domain membership (epoch cutover).
  // Only correct on a quiesced domain; the kind is preserved.
  [[nodiscard]] virtual std::unique_ptr<CausalCore> Remap(
      DomainServerId new_self, std::size_t new_size,
      std::span<const std::optional<DomainServerId>> old_of_new) const = 0;

  // Durable image.  The matrix core writes the legacy
  // CausalDomainClock::EncodeState bytes unchanged; other cores write
  // the sentinel-tagged format described above.  Decode with
  // DecodeCausalCoreState.
  virtual void EncodeState(ByteWriter& out) const = 0;

  // Mutation counter (dirty-tracking hook for incremental persistence);
  // transient, restarts at 0 after decode/Remap.
  [[nodiscard]] virtual std::uint64_t version() const = 0;

  // Protocol-state equality across cores of the same kind, ignoring
  // transient bookkeeping (version).  Used by recovery tests.
  [[nodiscard]] virtual bool Equals(const CausalCore& other) const = 0;

  // Non-null only for the matrix core: the wrapped CausalDomainClock.
  // Lets existing tests and debug tooling inspect the matrix directly.
  [[nodiscard]] virtual const CausalDomainClock* AsMatrix() const {
    return nullptr;
  }
};

// (1) The existing CausalDomainClock (both StampMode::kFullMatrix and
// the Appendix-A kUpdates deltas) behind the interface.  Stamps and
// durable images are byte-identical to the pre-core code.
class MatrixClockCore final : public CausalCore {
 public:
  MatrixClockCore(DomainServerId self, std::size_t domain_size,
                  StampMode mode)
      : clock_(self, domain_size, mode) {}
  explicit MatrixClockCore(CausalDomainClock clock)
      : clock_(std::move(clock)) {}

  [[nodiscard]] CausalCoreKind kind() const override {
    return CausalCoreKind::kMatrix;
  }
  [[nodiscard]] DomainServerId self() const override { return clock_.self(); }
  [[nodiscard]] std::size_t domain_size() const override {
    return clock_.domain_size();
  }
  [[nodiscard]] Stamp PrepareSend(DomainServerId dest) override {
    return clock_.PrepareSend(dest);
  }
  void PrepareSendBatch(DomainServerId dest, std::size_t count,
                        std::vector<Stamp>& out) override {
    clock_.PrepareSendBatch(dest, count, out);
  }
  [[nodiscard]] CheckResult CheckReceive(DomainServerId src,
                                         const Stamp& stamp) const override {
    return clock_.Check(src, stamp);
  }
  void OnDeliver(DomainServerId src, const Stamp& stamp) override {
    clock_.Commit(src, stamp);
  }
  [[nodiscard]] std::unique_ptr<CausalCore> Remap(
      DomainServerId new_self, std::size_t new_size,
      std::span<const std::optional<DomainServerId>> old_of_new)
      const override {
    return std::make_unique<MatrixClockCore>(
        clock_.Remap(new_self, new_size, old_of_new));
  }
  void EncodeState(ByteWriter& out) const override {
    clock_.EncodeState(out);
  }
  [[nodiscard]] std::uint64_t version() const override {
    return clock_.version();
  }
  [[nodiscard]] bool Equals(const CausalCore& other) const override;
  [[nodiscard]] const CausalDomainClock* AsMatrix() const override {
    return &clock_;
  }

 private:
  CausalDomainClock clock_;
};

// (3, listed second because it shares the matrix representation) The
// Drummond-Barbosa complexity reduction: keep the full matrix locally
// but never ship it.  Each stamp carries the complete destination
// column (everything the delivery condition reads, so the check is
// self-contained) plus the Appendix-A delta of entries changed since
// the last send to that destination (so transitive knowledge still
// propagates and other columns stay warm).  O(s + delta) per message.
class ReducedMatrixCore final : public CausalCore {
 public:
  ReducedMatrixCore(DomainServerId self, std::size_t domain_size);

  [[nodiscard]] CausalCoreKind kind() const override {
    return CausalCoreKind::kReduced;
  }
  [[nodiscard]] DomainServerId self() const override { return self_; }
  [[nodiscard]] std::size_t domain_size() const override {
    return matrix_.size();
  }
  [[nodiscard]] Stamp PrepareSend(DomainServerId dest) override;
  [[nodiscard]] CheckResult CheckReceive(DomainServerId src,
                                         const Stamp& stamp) const override;
  void OnDeliver(DomainServerId src, const Stamp& stamp) override;
  [[nodiscard]] std::unique_ptr<CausalCore> Remap(
      DomainServerId new_self, std::size_t new_size,
      std::span<const std::optional<DomainServerId>> old_of_new)
      const override;
  void EncodeState(ByteWriter& out) const override;
  [[nodiscard]] std::uint64_t version() const override { return version_; }
  [[nodiscard]] bool Equals(const CausalCore& other) const override;

  [[nodiscard]] static Result<std::unique_ptr<CausalCore>> DecodeBody(
      ByteReader& in);

 private:
  ReducedMatrixCore() = default;

  DomainServerId self_;
  MatrixClock matrix_;
  UpdatesTracker tracker_;
  std::uint64_t version_ = 0;
};

// (2) Almeida-style hybrid buffering.  No matrix at all: per-link FIFO
// sequence numbers order each link, and each message carries the
// sender's *causal barrier set* -- every (origin, dest, seq) triple the
// sender knows of that may still be undelivered.  The receiver holds a
// message back until its own link FIFO position is next AND every
// barrier destined to it is satisfied.  Delivered counts travel the
// other way as gossip deltas: a node ships every delivered count it
// learned (its own deliveries AND counts heard third-hand) that changed
// since its last send to that destination, so pruning information
// propagates transitively exactly as fast as barriers do and the
// barrier set tracks actual in-flight, independent of domain size.
//
// Stamp layout (reusing StampEntry triples; the 0x8000 row flag marks
// gossip, so domains are capped at 0x8000 members):
//   entries[0]            (self, dest, seq)          link FIFO header
//   barrier entries       (origin, dest, seq)        possibly undelivered
//   heard gossip          (origin|0x8000, dest, n)   n messages of the
//                                                    origin->dest link
//                                                    are delivered
class HybridBufferingCore final : public CausalCore {
 public:
  HybridBufferingCore(DomainServerId self, std::size_t domain_size);

  // Row flag marking a heard-delivered-count gossip entry.
  static constexpr std::uint16_t kHeardFlag = 0x8000;

  [[nodiscard]] CausalCoreKind kind() const override {
    return CausalCoreKind::kHybrid;
  }
  [[nodiscard]] DomainServerId self() const override { return self_; }
  [[nodiscard]] std::size_t domain_size() const override { return size_; }
  [[nodiscard]] Stamp PrepareSend(DomainServerId dest) override;
  [[nodiscard]] CheckResult CheckReceive(DomainServerId src,
                                         const Stamp& stamp) const override;
  void OnDeliver(DomainServerId src, const Stamp& stamp) override;
  [[nodiscard]] std::unique_ptr<CausalCore> Remap(
      DomainServerId new_self, std::size_t new_size,
      std::span<const std::optional<DomainServerId>> old_of_new)
      const override;
  void EncodeState(ByteWriter& out) const override;
  [[nodiscard]] std::uint64_t version() const override { return version_; }
  [[nodiscard]] bool Equals(const CausalCore& other) const override;

  // Current causal-barrier set size (observability / leak tests).
  [[nodiscard]] std::size_t barrier_count() const { return barriers_.size(); }

  [[nodiscard]] static Result<std::unique_ptr<CausalCore>> DecodeBody(
      ByteReader& in);

 private:
  HybridBufferingCore() = default;

  [[nodiscard]] std::size_t pair_index(DomainServerId dest,
                                       DomainServerId origin) const {
    return static_cast<std::size_t>(dest.value()) * size_ + origin.value();
  }

  DomainServerId self_;
  std::size_t size_ = 0;
  // Per-link FIFO counters: sent_[d] = messages sent self -> d,
  // delivered_[o] = messages delivered o -> self.
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> delivered_;
  // Causal barriers: (origin, dest) -> highest possibly-undelivered
  // seq on that link (FIFO makes one entry per link sufficient).
  std::map<std::pair<std::uint16_t, std::uint16_t>, std::uint64_t> barriers_;
  // heard_[pair_index(dest, origin)]: highest delivered count of the
  // origin->dest link this node has heard of (dest != self; the
  // delivered_ vector is authoritative for self), for barrier pruning
  // and onward gossip.
  std::vector<std::uint64_t> heard_;
  // Gossip dirty tracking (the Appendix-A idea applied to delivered
  // counts): ship a count to d only when it changed since the last
  // send to d.
  std::uint64_t tick_ = 0;
  std::vector<std::uint64_t> delivered_tick_;
  std::vector<std::uint64_t> sent_tick_;
  std::vector<std::uint64_t> heard_tick_;
  std::uint64_t version_ = 0;
};

// Factory for a fresh core.  `mode` only affects the matrix core (full
// vs Appendix-A delta stamps); other cores ignore it.
[[nodiscard]] std::unique_ptr<CausalCore> MakeCausalCore(
    CausalCoreKind kind, DomainServerId self, std::size_t domain_size,
    StampMode mode);

// Decodes a durable core image in either format: legacy matrix records
// (leading u16 self id) and sentinel-tagged records (0xFFFF, kind,
// payload).  The inverse of CausalCore::EncodeState for every core.
[[nodiscard]] Result<std::unique_ptr<CausalCore>> DecodeCausalCoreState(
    ByteReader& in);

}  // namespace cmom::clocks
