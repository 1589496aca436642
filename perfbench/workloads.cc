#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "causality/checker.h"
#include "causality/trace.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "domains/deployment.h"
#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/store.h"
#include "net/inproc_network.h"
#include "net/runtime.h"
#include "net/tcp_network.h"
#include "probes.h"

namespace perfbench {

using cmom::AgentId;
using cmom::Bytes;
using cmom::MessageId;
using cmom::ServerId;
namespace mom = cmom::mom;
namespace net = cmom::net;

namespace {

constexpr std::uint64_t kNsPerS = 1000000000ull;
constexpr std::uint64_t kDrainTimeoutNs = 30 * kNsPerS;
constexpr std::uint64_t kQuiesceTimeoutNs = 10 * kNsPerS;

// ---------------------------------------------------------------------
// Workload plans
// ---------------------------------------------------------------------

enum class Role { kTerminal, kEcho };

struct AgentPlan {
  ServerId server;
  std::uint32_t local;
  Role role;
};

struct Plan {
  cmom::domains::MomConfig config;
  bool tcp = false;
  std::size_t window = 0;  // outstanding sends
  std::size_t warmup_sends = 0;
  std::vector<AgentPlan> agents;
  // Generator choice of (from, to) for the next send.
  std::vector<AgentId> sources;
  std::vector<AgentId> destinations;
  bool source_differs = false;  // flat_wide: never a local send
};

Plan MakePlan(Workload workload) {
  Plan plan;
  switch (workload) {
    case Workload::kBusEcho: {
      plan.config = cmom::domains::topologies::Bus(2, 2);
      plan.tcp = true;
      plan.window = 8;
      plan.warmup_sends = 4000;
      plan.agents = {{ServerId(1), 1, Role::kTerminal},
                     {ServerId(3), 1, Role::kEcho}};
      plan.sources = {AgentId{ServerId(1), 1}};
      plan.destinations = {AgentId{ServerId(3), 1}};
      break;
    }
    case Workload::kFlatWide: {
      constexpr std::size_t kServers = 32;
      plan.config = cmom::domains::topologies::Flat(kServers);
      plan.window = 8;
      plan.warmup_sends = 3000;
      for (std::size_t s = 0; s < kServers; ++s) {
        const ServerId id(static_cast<std::uint16_t>(s));
        plan.agents.push_back({id, 1, Role::kTerminal});
        plan.sources.push_back(AgentId{id, 1});
        plan.destinations.push_back(AgentId{id, 1});
      }
      plan.source_differs = true;
      break;
    }
  }
  return plan;
}

// ---------------------------------------------------------------------
// Benchmark agents
// ---------------------------------------------------------------------

// Message ids, as one bitset of sequence numbers per origin server
// (servers number their messages densely), so tracking exactly-once
// costs a bit per message rather than a stored id.
class IdSet {
 public:
  // Adds `id`; false if it was already present.
  bool Insert(MessageId id) {
    const std::size_t origin = id.origin.value();
    if (origin >= words_.size()) words_.resize(origin + 1);
    std::vector<std::uint64_t>& words = words_[origin];
    const std::size_t word = static_cast<std::size_t>(id.seq / 64);
    if (word >= words.size()) words.resize(std::max(word + 1, 2 * words.size()));
    const std::uint64_t bit = 1ull << (id.seq % 64);
    if ((words[word] & bit) != 0) return false;
    words[word] |= bit;
    ++size_;
    return true;
  }
  [[nodiscard]] bool Contains(MessageId id) const {
    const std::size_t origin = id.origin.value();
    const std::size_t word = static_cast<std::size_t>(id.seq / 64);
    return origin < words_.size() && word < words_[origin].size() &&
           (words_[origin][word] & (1ull << (id.seq % 64))) != 0;
  }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t origin = 0; origin < words_.size(); ++origin) {
      for (std::size_t w = 0; w < words_[origin].size(); ++w) {
        for (std::uint64_t bits = words_[origin][w]; bits != 0; bits &= bits - 1) {
          fn(MessageId{ServerId(static_cast<std::uint16_t>(origin)),
                       w * 64 + static_cast<std::uint64_t>(std::countr_zero(bits))});
        }
      }
    }
  }

 private:
  std::vector<std::vector<std::uint64_t>> words_;  // [origin][seq / 64]
  std::uint64_t size_ = 0;
};

// One per agent, written only by that agent's reactions (which the
// engine serializes) and read after the servers are torn down.
struct Tally {
  IdSet delivered;
  std::uint64_t duplicates = 0;
  std::vector<std::uint64_t> latency_ns;  // sends inside the timed phase
  std::vector<MessageId> order;           // transparency check only
  std::vector<std::uint64_t> queue_ns;    // traced: handler entry -> React
  std::uint64_t react_busy_ns = 0;        // traced: time inside React
};

// State the generator and every agent share.
struct Shared {
  Tracer* tracer = nullptr;
  NetProbe* net = nullptr;
  bool keep_order = false;
  // Timed phase [timed_from, timed_until), published by the generator
  // before its first timed send.
  std::atomic<std::uint64_t> timed_from{~0ull};
  std::atomic<std::uint64_t> timed_until{0};
  std::atomic<std::uint64_t> delivered{0};
  std::mutex mutex;
  std::condition_variable slot_free;
  std::size_t outstanding = 0;  // guarded by mutex
};

Bytes TimePayload(std::uint64_t start_ns) {
  Bytes payload(sizeof(start_ns));
  std::memcpy(payload.data(), &start_ns, sizeof(start_ns));
  return payload;
}

class BenchAgent final : public mom::Agent {
 public:
  BenchAgent(Role role, Tally& tally, Shared& shared)
      : role_(role), tally_(tally), shared_(shared) {}

  void React(mom::ReactionContext& ctx, const mom::Message& message) override {
    const std::uint64_t entry = NowNs();
    {
      Tracer::Scope span(shared_.tracer, SpanKind::kEngineReact);
      span.set_message(message.id);
      Handle(ctx, message, entry);
    }
    if (shared_.tracer != nullptr) tally_.react_busy_ns += NowNs() - entry;
  }

 private:
  void Handle(mom::ReactionContext& ctx, const mom::Message& message,
              std::uint64_t entry) {
    if (shared_.net != nullptr) {
      std::uint64_t arrived = 0;
      if (shared_.net->TakeArrival(message.id, &arrived)) {
        tally_.queue_ns.push_back(entry > arrived ? entry - arrived : 0);
      }
    }
    std::uint64_t start = entry;
    if (message.payload.size() == sizeof(start)) {
      std::memcpy(&start, message.payload.data(), sizeof(start));
    }
    if (!tally_.delivered.Insert(message.id)) ++tally_.duplicates;
    if (start >= shared_.timed_from.load(std::memory_order_relaxed) &&
        start < shared_.timed_until.load(std::memory_order_relaxed)) {
      tally_.latency_ns.push_back(entry > start ? entry - start : 0);
    }
    if (shared_.keep_order) tally_.order.push_back(message.id);
    shared_.delivered.fetch_add(1, std::memory_order_relaxed);
    if (role_ == Role::kEcho) {
      ctx.Send(message.from, "pong", TimePayload(NowNs()));
      return;
    }
    {
      std::lock_guard lock(shared_.mutex);
      if (shared_.outstanding > 0) --shared_.outstanding;
    }
    shared_.slot_free.notify_one();
  }

  const Role role_;
  Tally& tally_;
  Shared& shared_;
};

// ---------------------------------------------------------------------
// Server statistics
// ---------------------------------------------------------------------

struct StatsSum {
  std::uint64_t forwarded = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t stamp_bytes = 0;
  std::uint64_t commit_bytes = 0;
  std::uint64_t ack_frames = 0;
  std::uint64_t credit_blocked = 0;
  std::uint64_t deferred = 0;
  std::uint64_t shed = 0;
  std::uint64_t holdback_peak = 0;
  std::uint64_t backlog_peak = 0;
  cmom::LogHistogram holdback_depth;
  cmom::LogHistogram engine_batch;
  cmom::LogHistogram group_commit;
};

StatsSum SumStats(const std::vector<std::unique_ptr<mom::AgentServer>>& servers) {
  StatsSum sum;
  for (const auto& server : servers) {
    const mom::ServerStats s = server->stats();
    sum.forwarded += s.messages_forwarded;
    sum.duplicates += s.duplicates_dropped;
    sum.retransmissions += s.retransmissions;
    sum.stamp_bytes += s.stamp_bytes_sent;
    sum.commit_bytes += s.commit_bytes;
    sum.ack_frames += s.ack_frames_sent;
    sum.credit_blocked += s.credit_blocked;
    sum.deferred += s.sends_deferred;
    sum.shed += s.sends_shed;
    sum.holdback_peak = std::max(sum.holdback_peak, s.holdback_peak);
    sum.backlog_peak = std::max(sum.backlog_peak, s.backlog_peak);
    sum.holdback_depth.MergeFrom(s.holdback_depth_hist);
    sum.engine_batch.MergeFrom(s.engine_batch_hist);
    sum.group_commit.MergeFrom(s.group_commit_hist);
  }
  return sum;
}

// ---------------------------------------------------------------------
// Generator helpers
// ---------------------------------------------------------------------

std::uint64_t ProcessCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * kNsPerS +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::chrono::steady_clock::time_point SteadyAt(std::uint64_t ns) {
  // steady_clock is CLOCK_MONOTONIC on Linux, the clock NowNs reads.
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

// Peak resident set of this process's memory (VmHWM).  A round runs in
// a fresh process, so this is the round's peak; getrusage's ru_maxrss
// would also count the parent's resident set at fork.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Us(double ns) { return ns / 1000.0; }

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kBusEcho, Workload::kFlatWide}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kBusEcho: return "bus_echo";
    case Workload::kFlatWide: return "flat_wide";
  }
  return "?";
}

RoundResult RunRound(const RoundConfig& rc) {
  RoundResult result;
  auto fail = [&result](std::string error) {
    result.ok = false;
    result.error = std::move(error);
    return result;
  };
  const std::uint64_t round_start = NowNs();
  Plan plan = MakePlan(rc.workload);
  const std::size_t window =
      rc.window_override != 0 ? rc.window_override : plan.window;
  const bool fixed = rc.fixed_sends != 0;

  auto deployment = cmom::domains::Deployment::Create(plan.config);
  if (!deployment.ok()) return fail("deployment: " + deployment.status().to_string());

  // Probes (traced rounds only); they outlive everything they observe.
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<NetProbe> net_probe;
  std::vector<std::unique_ptr<StoreProbe>> store_probes;
  if (rc.traced) {
    tracer = std::make_unique<Tracer>();
    net_probe = std::make_unique<NetProbe>(*tracer);
  }
  cmom::causality::TraceRecorder recorder;
  Shared shared;
  shared.keep_order = fixed;
  shared.tracer = tracer.get();
  shared.net = net_probe.get();
  std::vector<Tally> tallies(plan.agents.size());

  const std::vector<ServerId> ids(deployment.value().servers().begin(),
                                  deployment.value().servers().end());
  if (ids.size() > NetProbe::kMaxServers) {
    return fail("more servers than the probes index");
  }
  std::unique_ptr<net::Network> network;
  std::unique_ptr<net::ThreadRuntime> runtime;
  std::unique_ptr<TracedNetwork> traced_network;
  std::unique_ptr<TracedRuntime> traced_runtime;
  std::vector<std::unique_ptr<mom::Store>> stores;
  std::vector<std::unique_ptr<TracedStore>> traced_stores;
  std::vector<std::unique_ptr<net::Endpoint>> endpoints;
  std::vector<std::unique_ptr<mom::AgentServer>> servers;

  auto teardown = [&] {
    for (auto& server : servers) server->Shutdown();
    servers.clear();
    endpoints.clear();
    traced_network.reset();
    network.reset();
    traced_runtime.reset();
    runtime.reset();
    traced_stores.clear();
    stores.clear();
  };

  // --- set-up ---------------------------------------------------------
  if (plan.tcp) {
    network = std::make_unique<net::TcpNetwork>(rc.tcp_base_port);
  } else {
    network = std::make_unique<net::InprocNetwork>();
  }
  runtime = std::make_unique<net::ThreadRuntime>();
  net::Network* use_network = network.get();
  net::Runtime* use_runtime = runtime.get();
  if (rc.traced) {
    traced_network = std::make_unique<TracedNetwork>(*network, *net_probe);
    traced_runtime = std::make_unique<TracedRuntime>(*runtime, *net_probe);
    use_network = traced_network.get();
    use_runtime = traced_runtime.get();
  }
  for (ServerId id : ids) {
    stores.push_back(std::make_unique<mom::InMemoryStore>());
    mom::Store* use_store = stores.back().get();
    if (rc.traced) {
      store_probes.push_back(std::make_unique<StoreProbe>());
      traced_stores.push_back(std::make_unique<TracedStore>(
          *stores.back(), *store_probes.back(), *tracer));
      use_store = traced_stores.back().get();
    }
    auto endpoint = use_network->CreateEndpoint(id);
    if (!endpoint.ok()) {
      teardown();
      return fail("endpoint " + cmom::to_string(id) + ": " +
                  endpoint.status().to_string());
    }
    endpoints.push_back(std::move(endpoint).value());
    mom::AgentServerOptions options;
    if (rc.traced) options.trace = &recorder;
    servers.push_back(std::make_unique<mom::AgentServer>(
        deployment.value(), id, endpoints.back().get(), use_runtime, use_store,
        options));
  }
  for (std::size_t a = 0; a < plan.agents.size(); ++a) {
    const AgentPlan& agent = plan.agents[a];
    servers[agent.server.value()]->AttachAgent(
        agent.local, std::make_unique<BenchAgent>(agent.role, tallies[a], shared));
  }
  for (auto& server : servers) {
    if (cmom::Status status = server->Boot(); !status.ok()) {
      teardown();
      return fail("boot: " + status.to_string());
    }
  }

  const StatsSum stats_before = SumStats(servers);
  const cmom::BufferPool::Counters pool_before = cmom::BufferPool::Totals();

  // --- traffic --------------------------------------------------------
  // Closed loop: the generator blocks on a condition variable while
  // `window` sends are outstanding; the terminal agent frees a slot.
  const std::uint64_t warmup = fixed ? 0 : plan.warmup_sends;
  const std::uint64_t timed_ns =
      static_cast<std::uint64_t>(rc.timed_seconds * static_cast<double>(kNsPerS));
  cmom::Rng rng(rc.seed);
  IdSet sent_ids;
  std::uint64_t timed_sends = 0;
  std::uint64_t window_full = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t_end = 0;
  std::uint64_t cpu0 = 0;
  std::uint64_t delivered0 = 0;
  const std::uint64_t traffic_start = NowNs();
  std::uint64_t last_flow_sample = 0;
  std::uint64_t blocked_peak = 0;

  for (std::uint64_t i = 0; !fixed || i < rc.fixed_sends; ++i) {
    if (!fixed && i == warmup) {
      t0 = NowNs();
      t_end = t0 + timed_ns;
      shared.timed_until.store(t_end);
      shared.timed_from.store(t0);
      cpu0 = ProcessCpuNs();
      delivered0 = shared.delivered.load();
      result.setup_s = static_cast<double>(t0 - round_start) / 1e9;
    }
    const bool timed = !fixed && i >= warmup;
    if (timed && NowNs() >= t_end) break;
    {
      std::unique_lock lock(shared.mutex);
      if (shared.outstanding >= window) {
        if (timed) ++window_full;
        const auto deadline = SteadyAt(timed ? t_end : NowNs() + kDrainTimeoutNs);
        if (!shared.slot_free.wait_until(
                lock, deadline, [&] { return shared.outstanding < window; })) {
          if (timed) break;  // the timed phase ended while waiting
          lock.unlock();
          teardown();
          return fail("closed loop stalled: no delivery within the timeout");
        }
      }
      ++shared.outstanding;
    }
    if (timed) ++timed_sends;

    const AgentId from = plan.sources[rng.NextBelow(plan.sources.size())];
    AgentId to = plan.destinations[rng.NextBelow(plan.destinations.size())];
    while (plan.source_differs && to.server == from.server) {
      to = plan.destinations[rng.NextBelow(plan.destinations.size())];
    }
    const std::uint64_t start = NowNs();
    cmom::Result<MessageId> sent = [&] {
      Tracer::Scope span(shared.tracer, SpanKind::kChannelSend);
      auto r = servers[from.server.value()]->SendMessage(from, to, "ping",
                                                         TimePayload(start));
      if (r.ok()) span.set_message(r.value());
      return r;
    }();
    ++result.attempted;
    if (sent.ok()) {
      sent_ids.Insert(sent.value());
    } else {
      ++result.refused;
      std::lock_guard lock(shared.mutex);
      --shared.outstanding;
    }
    if (rc.traced && start - last_flow_sample > 10 * 1000 * 1000) {
      last_flow_sample = start;
      for (auto& server : servers) {
        blocked_peak = std::max<std::uint64_t>(
            blocked_peak, server->flow_status().blocked_messages);
      }
    }
  }
  if (!fixed) {
    const std::uint64_t t1 = NowNs();
    result.cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
    result.delivered_window = shared.delivered.load() - delivered0;
    result.window_s = static_cast<double>(t1 - t0) / 1e9;
  }

  // --- drain and quiesce ----------------------------------------------
  const bool echo = std::any_of(plan.agents.begin(), plan.agents.end(),
                                [](const AgentPlan& a) { return a.role == Role::kEcho; });
  const std::uint64_t expected = sent_ids.size() * (echo ? 2 : 1);
  const std::uint64_t drain_deadline = NowNs() + kDrainTimeoutNs;
  while (shared.delivered.load() < expected && NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool quiet = false;
  const std::uint64_t quiesce_deadline = NowNs() + kQuiesceTimeoutNs;
  for (int stable = 0; stable < 3 && NowNs() < quiesce_deadline;) {
    bool idle = true;
    for (auto& server : servers) {
      idle = idle && server->Idle() && server->queue_out_size() == 0 &&
             server->holdback_size() == 0;
    }
    stable = idle ? stable + 1 : 0;
    quiet = stable == 3;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t traffic_end = NowNs();
  result.peak_rss_mb = PeakRssMb();
  const StatsSum stats_after = SumStats(servers);
  const cmom::BufferPool::Counters pool_after = cmom::BufferPool::Totals();
  for (auto& endpoint : endpoints) {
    result.transport_frames += endpoint->stats().frames_sent;
  }
  teardown();  // joins every thread that touched the tallies and probes
  if (!quiet) return fail("servers did not quiesce after the drain");

  // --- delivery check ---------------------------------------------------
  IdSet delivered_ids;
  std::uint64_t echo_distinct = 0;
  std::uint64_t pongs_distinct = 0;
  for (std::size_t a = 0; a < plan.agents.size(); ++a) {
    Tally& tally = tallies[a];
    result.duplicates += tally.duplicates;
    tally.delivered.ForEach([&](MessageId id) {
      if (!delivered_ids.Insert(id)) ++result.duplicates;  // at two agents
    });
    if (plan.agents[a].role == Role::kEcho) {
      echo_distinct += tally.delivered.size();
    } else if (echo) {
      pongs_distinct += tally.delivered.size();
    }
    result.latency_ns.insert(result.latency_ns.end(), tally.latency_ns.begin(),
                             tally.latency_ns.end());
    result.agent_orders.push_back(std::move(tally.order));
  }
  sent_ids.ForEach([&](MessageId id) {
    if (!delivered_ids.Contains(id)) ++result.lost;
  });
  if (echo) {
    // Every delivered ping owes exactly one pong.
    result.attempted += echo_distinct;
    if (pongs_distinct < echo_distinct) result.lost += echo_distinct - pongs_distinct;
  }
  if (result.lost != 0 || result.duplicates != 0) {
    return fail("exactly-once violated: " + std::to_string(result.lost) +
                " lost, " + std::to_string(result.duplicates) + " duplicated");
  }
  if (rc.traced) {
    const cmom::causality::Trace trace = recorder.Snapshot();
    cmom::causality::CausalityChecker checker(ids);
    const auto causal = checker.CheckCausalDelivery(trace);
    if (!causal.causal()) {
      return fail("causal delivery violated: " +
                  causal.violations.front().description);
    }
    if (cmom::Status once = checker.CheckExactlyOnce(trace); !once.ok()) {
      return fail("oracle exactly-once: " + once.to_string());
    }
  }

  // --- figures ------------------------------------------------------------
  result.delivered_total = shared.delivered.load();
  result.commit_bytes = stats_after.commit_bytes - stats_before.commit_bytes;
  const std::uint64_t heap_allocs =
      pool_after.heap_allocations() - pool_before.heap_allocations();

  const double msgs = static_cast<double>(result.delivered_total);
  const double wall_ns = static_cast<double>(traffic_end - traffic_start);
  auto& layer = result.layer;
  layer["mom.channel.ack_frames_per_msg"] =
      Ratio(static_cast<double>(stats_after.ack_frames - stats_before.ack_frames), msgs);
  layer["mom.channel.forwards_per_msg"] =
      Ratio(static_cast<double>(stats_after.forwarded - stats_before.forwarded), msgs);
  layer["mom.channel.retransmissions"] =
      static_cast<double>(stats_after.retransmissions - stats_before.retransmissions);
  layer["mom.channel.duplicates_dropped"] =
      static_cast<double>(stats_after.duplicates - stats_before.duplicates);
  layer["mom.engine.group_commit_mean"] = stats_after.group_commit.Mean();
  layer["mom.engine.batch_mean"] = stats_after.engine_batch.Mean();
  layer["clocks.stamp_bytes_per_msg"] =
      Ratio(static_cast<double>(stats_after.stamp_bytes - stats_before.stamp_bytes), msgs);
  layer["clocks.holdback_peak"] = static_cast<double>(stats_after.holdback_peak);
  layer["clocks.holdback_depth_mean"] = stats_after.holdback_depth.Mean();
  layer["flow.credit_blocked_per_msg"] = Ratio(
      static_cast<double>(stats_after.credit_blocked - stats_before.credit_blocked), msgs);
  layer["flow.deferred"] = static_cast<double>(stats_after.deferred - stats_before.deferred);
  layer["flow.shed"] = static_cast<double>(stats_after.shed - stats_before.shed);
  layer["flow.backlog_peak"] = static_cast<double>(stats_after.backlog_peak);
  layer["common.heap_allocs_per_msg"] = Ratio(static_cast<double>(heap_allocs), msgs);
  layer["workload.window_full_frac"] =
      Ratio(static_cast<double>(window_full), static_cast<double>(timed_sends));
  {
    std::vector<std::uint64_t> latency = result.latency_ns;
    layer["workload.latency_p99_us"] = Us(Percentile(latency, 0.99));
    layer["workload.latency_samples"] = static_cast<double>(latency.size());
  }

  if (rc.traced) {
    layer["flow.blocked_peak"] = static_cast<double>(blocked_peak);
    NetProbe::Totals nt = net_probe->Collect();
    layer["net.frames_per_msg"] = Ratio(static_cast<double>(nt.frames), msgs);
    layer["net.bytes_per_msg"] = Ratio(static_cast<double>(nt.bytes), msgs);
    layer["net.wire_us_p50"] = Us(Percentile(nt.wire_ns, 0.50));
    layer["net.wire_us_p90"] = Us(Percentile(nt.wire_ns, 0.90));
    if (nt.unmatched_wire != 0) {
      std::fprintf(stderr, "perfbench: %llu received frames had no matching send\n",
                   static_cast<unsigned long long>(nt.unmatched_wire));
    }
    double handler_busy_max = 0;
    for (std::uint64_t busy : nt.handler_busy_ns) {
      handler_busy_max = std::max(handler_busy_max, static_cast<double>(busy) / wall_ns);
    }
    layer["net.handler_busy_max"] = handler_busy_max;
    layer["net.timers_per_msg"] = Ratio(static_cast<double>(nt.timers), msgs);

    const auto spans = tracer->Totals();
    // The q-quantile of one span kind's durations, in microseconds.
    auto span_us = [&spans](SpanKind k, double q) {
      std::vector<std::uint64_t> durations =
          spans[static_cast<std::size_t>(k)].durations_ns;
      return Us(Percentile(durations, q));
    };
    layer["net.send_us_p50"] = span_us(SpanKind::kNetSend, 0.50);
    layer["net.handler_us_p50"] = span_us(SpanKind::kNetHandler, 0.50);
    layer["net.handler_us_p90"] = span_us(SpanKind::kNetHandler, 0.90);
    layer["mom.channel.send_us_p50"] = span_us(SpanKind::kChannelSend, 0.50);
    layer["mom.channel.send_us_p90"] = span_us(SpanKind::kChannelSend, 0.90);
    layer["mom.engine.react_us_p50"] = span_us(SpanKind::kEngineReact, 0.50);
    layer["mom.store.commit_us_p50"] = span_us(SpanKind::kStoreCommit, 0.50);
    layer["mom.store.commit_us_p90"] = span_us(SpanKind::kStoreCommit, 0.90);
    std::vector<std::uint64_t> queue_ns;
    for (const Tally& tally : tallies) {
      queue_ns.insert(queue_ns.end(), tally.queue_ns.begin(), tally.queue_ns.end());
    }
    layer["mom.engine.queue_us_p50"] = Us(Percentile(queue_ns, 0.50));
    layer["mom.engine.queue_us_p90"] = Us(Percentile(queue_ns, 0.90));
    // Engine busy share of the busiest server: the time its benchmark
    // agents spent in React (both workloads run the inline engine).
    std::vector<double> engine_busy_ns(ids.size(), 0.0);
    for (std::size_t a = 0; a < plan.agents.size(); ++a) {
      engine_busy_ns[plan.agents[a].server.value()] +=
          static_cast<double>(tallies[a].react_busy_ns);
    }
    layer["mom.engine.worker_busy_frac"] =
        *std::max_element(engine_busy_ns.begin(), engine_busy_ns.end()) / wall_ns;

    std::uint64_t commits = 0, ops = 0;
    double store_busy_max = 0;
    std::vector<std::uint64_t> commit_bytes;
    for (auto& probe : store_probes) {
      commits += probe->commits.load();
      ops += probe->puts.load() + probe->deletes.load();
      store_busy_max = std::max(store_busy_max,
                                static_cast<double>(probe->commit_busy_ns.load()) / wall_ns);
      commit_bytes.insert(commit_bytes.end(), probe->commit_bytes.begin(),
                          probe->commit_bytes.end());
    }
    layer["mom.store.commits_per_msg"] = Ratio(static_cast<double>(commits), msgs);
    layer["mom.store.bytes_per_commit_p50"] = Percentile(commit_bytes, 0.50);
    layer["mom.store.ops_per_msg"] = Ratio(static_cast<double>(ops), msgs);
    layer["mom.store.busy_max"] = store_busy_max;

    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      layer[std::string(SpanName(static_cast<SpanKind>(k))) + ".self_us_per_msg"] =
          Us(Ratio(static_cast<double>(spans[k].self_ns), msgs));
    }
    layer["trace.spans"] = static_cast<double>(tracer->spans_recorded());
    if (!rc.span_csv.empty() && !tracer->WriteCsv(rc.span_csv)) {
      return fail("cannot write spans to " + rc.span_csv);
    }
  }
  return result;
}

}  // namespace perfbench
