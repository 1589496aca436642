// Per-domain causal ordering protocol (the AAA Channel's clock logic).
//
// One CausalDomainClock instance exists per (server, domain) pair: a
// plain server has one, a causal router-server has one per domain it
// belongs to (the paper's DomainItem holds it, see Section 5).
//
// Protocol (Raynal-Schiper-Toueg over domain-local ids):
//   send i -> j : M[i][j] += 1; piggyback stamp
//   recv at j from i, stamp T:
//     deliverable  iff  T[i][j] == M[i][j] + 1
//                  and  for all k != i : T[k][j] <= M[k][j]
//     on delivery  M := max(M, T) entrywise
// With StampMode::kFullMatrix the stamp carries all s^2 entries; with
// StampMode::kUpdates it carries only the Appendix-A delta.  The
// delivery condition only ever needs entries with col == j: an entry
// absent from a delta stamp was unchanged since an earlier message on
// the same link, and the FIFO-per-link order that the condition itself
// enforces guarantees the receiver already merged it, so the missing
// entry satisfies the check vacuously.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "clocks/matrix_clock.h"
#include "clocks/stamp.h"
#include "clocks/updates_tracker.h"
#include "common/bytes.h"
#include "common/ids.h"
#include "common/status.h"

namespace cmom::clocks {

enum class StampMode : std::uint8_t {
  kFullMatrix = 0,  // classical algorithm: O(s^2) bytes per message
  kUpdates = 1,     // Appendix-A deltas: O(changes) bytes per message
};

enum class CheckResult : std::uint8_t {
  kDeliver,    // all causal predecessors delivered; deliver now
  kHold,       // some predecessor missing; park in the hold-back queue
  kDuplicate,  // already delivered (retransmission); drop
  kMalformed,  // no correct sender stamps this: a coordinate outside the
               // domain, or the sender's own counter missing; drop
               // without acknowledging
};

class CausalDomainClock {
 public:
  CausalDomainClock() = default;
  CausalDomainClock(DomainServerId self, std::size_t domain_size,
                    StampMode mode);

  [[nodiscard]] DomainServerId self() const { return self_; }
  [[nodiscard]] std::size_t domain_size() const { return matrix_.size(); }
  [[nodiscard]] StampMode mode() const { return mode_; }

  // Sender side: accounts for one message self -> dest and returns the
  // stamp to piggyback on it.
  [[nodiscard]] Stamp PrepareSend(DomainServerId dest);

  // Batched sender side: accounts for `count` messages self -> dest and
  // appends their stamps to `out`, in send order.  Produces exactly the
  // stamps `count` sequential PrepareSend calls would (delivery-side
  // behavior is indistinguishable) but walks the matrix once: in
  // kFullMatrix mode the s^2 snapshot is built for the first message
  // and later stamps only patch the send counter; in kUpdates mode the
  // tracker drains on the first stamp so the rest are minimal deltas.
  // One version bump per batch (the dirty flag is binary, so commit
  // coalescing is unaffected).
  void PrepareSendBatch(DomainServerId dest, std::size_t count,
                        std::vector<Stamp>& out);

  // Receiver side, step 1: classify an incoming message from `src`
  // stamped `stamp` without changing any state.  Stamps arrive from the
  // network, so a malformed one is classified, never trusted.
  [[nodiscard]] CheckResult Check(DomainServerId src,
                                  const Stamp& stamp) const;

  // Receiver side, step 2: merge the stamp into the local clock.  Must
  // only be called after Check() returned kDeliver for this stamp.
  void Commit(DomainServerId src, const Stamp& stamp);

  [[nodiscard]] const MatrixClock& matrix() const { return matrix_; }

  // Rebuilds the clock over a new domain membership (epoch cutover):
  // matrix and tracker are remapped together (see MatrixClock::Remap),
  // the stamp mode is preserved, and the mutation version restarts at 0
  // like a freshly recovered clock.  Only correct on a quiesced domain.
  [[nodiscard]] CausalDomainClock Remap(
      DomainServerId new_self, std::size_t new_size,
      std::span<const std::optional<DomainServerId>> old_of_new) const;

  // Durable image (matrix + updates tracker), written by the Channel
  // whenever the clock advanced since the last commit so that recovery
  // resumes exactly where the crash happened.
  void EncodeState(ByteWriter& out) const;
  [[nodiscard]] static Result<CausalDomainClock> DecodeState(ByteReader& in);

  // Decodes everything after the leading self id (mode byte, matrix,
  // tracker).  Split out so the causal-core store decoder, which has to
  // consume the leading u16 to sniff the record format, can resume a
  // legacy matrix image without re-buffering.  See causal_core.h.
  [[nodiscard]] static Result<CausalDomainClock> DecodeStateTail(
      ByteReader& in, DomainServerId self);

  // Mutation counter (dirty-tracking hook for incremental persistence):
  // bumped by every PrepareSend and by every Commit that changed at
  // least one matrix entry.  The Channel remembers the version it last
  // persisted and skips the domain's durable image when unchanged --
  // the disk-layer analogue of the Appendix A "send only the delta"
  // optimization.  Not part of the durable image: a recovered clock
  // restarts at version 0.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  [[nodiscard]] bool operator==(const CausalDomainClock& other) const {
    // version_ is transient bookkeeping; two clocks with equal protocol
    // state compare equal regardless of their mutation history.
    return self_ == other.self_ && mode_ == other.mode_ &&
           matrix_ == other.matrix_ && tracker_ == other.tracker_;
  }

 private:
  DomainServerId self_;
  StampMode mode_ = StampMode::kUpdates;
  MatrixClock matrix_;
  UpdatesTracker tracker_;
  std::uint64_t version_ = 0;
};

}  // namespace cmom::clocks
