// The reconfiguration coordinator: epoch E -> E+1, durably.
//
// Protocol (state machine documented in DESIGN.md section 12):
//
//   propose  - ReconfigPlan::Build validated the new config (acyclic
//              domain graph, connected routing).  Write epoch/pending
//              = {E+1, new config} to every affected store.  Nothing
//              behavioral changes; a crash here is rolled BACK.
//   quiesce  - raise every server's send fence and wait for the
//              cluster-wide drain (FenceController).  All queues empty
//              and fenced means no frame, stamp or reaction is in
//              flight anywhere -- the only state the clock remap is
//              correct in.  A crash here is rolled BACK.
//   cutover  - per server: stop it, rewrite its store in ONE commit
//              (old clk/ keys deleted, remapped/fresh clocks written
//              under new domain indices, epoch/current advanced,
//              epoch/pending deleted), checkpoint the store.  The
//              single commit is the atomicity unit: each store is at
//              exactly E or E+1, never between.  A crash here is
//              rolled FORWARD -- the drained-and-fenced invariant was
//              durable by construction (all queue keyspaces empty), so
//              the remaining stores can be cut over cold.
//   resume   - start every new-config server at E+1.  Servers removed
//              by the new config stay down (their stores are stamped
//              E+1 with no clock state).
//
// Recover() re-derives the phase from the stores alone: any store
// already at E+1 means cutover began (roll forward); pending records
// with no store at E+1 mean the crash hit propose/quiesce (roll back,
// delete pending).  Either way the cluster converges to exactly one
// epoch, satisfying the crash-during-reconfig acceptance criterion.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "control/epoch.h"
#include "control/fence.h"
#include "control/plan.h"

namespace cmom::control {

struct CoordinatorOptions {
  // Quiesce budget before the proposal is aborted (rolled back).
  std::uint64_t quiesce_timeout_ms = 10'000;
};

class Coordinator {
 public:
  explicit Coordinator(ClusterHost* host, CoordinatorOptions options = {})
      : host_(host), fence_(host), options_(options) {}

  // The whole protocol; on any failure the cluster is left (or put
  // back) at plan.from_epoch.
  [[nodiscard]] Status Reconfigure(const ReconfigPlan& plan);

  // --- stepwise API (crash-injection tests drive phases manually) ----
  [[nodiscard]] Status Propose(const ReconfigPlan& plan);
  [[nodiscard]] Status Quiesce();
  // Stops `id` and rewrites its store to the plan's new epoch.  Only
  // valid after Quiesce succeeded.
  [[nodiscard]] Status CutoverOne(const ReconfigPlan& plan, ServerId id);
  // Starts every new-config server at the new epoch.
  [[nodiscard]] Status Resume(const ReconfigPlan& plan);
  // Deletes pending records and lifts fences (propose/quiesce abort).
  [[nodiscard]] Status Abort(const ReconfigPlan& plan);

  // Crash recovery from stores alone (see header comment).  Safe to
  // call on a healthy cluster: with no pending records it only
  // restarts servers that are down at their recorded epoch.
  [[nodiscard]] Status Recover();

  // --- store-level primitives (shared with Recover and momtool) ------
  // The one-commit store rewrite for `self` under `plan`.  Requires a
  // drained store: a key under any of mom::kQueuePrefixes aborts.
  [[nodiscard]] static Status CutoverStore(mom::Store& store, ServerId self,
                                           const ReconfigPlan& plan);

 private:
  // Durably writes (or deletes, when `value` is nullopt) a control
  // record on a server's store, routing through the live server's
  // transaction pipeline when it is running.
  [[nodiscard]] Status WriteControlRecord(ServerId id, std::string_view key,
                                          std::optional<Bytes> value);

  ClusterHost* host_;
  FenceController fence_;
  CoordinatorOptions options_;
};

}  // namespace cmom::control
