// Measurement probes for the repository benchmark.
//
// Everything here observes the middleware from outside, through its
// public interfaces:
//
//   - Tracer: in-memory spans (name, start, end, parent, message id)
//     recorded around calls into each layer, with per-layer self time
//     (span time minus the time its child spans cover on the same
//     thread) accumulated as spans close;
//   - TracedStore / TracedNetwork / TracedEndpoint / TracedRuntime:
//     pass-through decorators over mom::Store, net::Network,
//     net::Endpoint and net::Runtime that count work and time calls.
//
// Untraced runs construct none of these, so end-to-end numbers carry no
// probe cost.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "mom/store.h"
#include "net/runtime.h"
#include "net/transport.h"

namespace perfbench {

// CLOCK_MONOTONIC nanoseconds; one clock for every server in the process.
std::uint64_t NowNs();

// Percentile of `values` (sorted in place), nearest-rank on [0, 1].
double Percentile(std::vector<std::uint64_t>& values, double q);

enum class SpanKind : std::uint8_t {
  kChannelSend = 0,  // AgentServer::SendMessage
  kNetSend,          // Endpoint::Send
  kNetHandler,       // the server's receive handler, called by net
  kStoreCommit,      // Store::Commit
  kEngineReact,      // Agent::React of a benchmark agent
  kCount,
};
inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);
const char* SpanName(SpanKind kind);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t message_seq = 0;
  std::uint32_t parent = 0;  // 1-based index in the same thread's list
  std::uint16_t message_origin = 0;
  SpanKind kind = SpanKind::kCount;
  bool has_message = false;
};

// Span recorder for one traced round.  Each thread appends to its own
// buffer; a thread-local stack of open spans gives the parent link and
// the child time to subtract for self time.
class Tracer {
 public:
  // Spans kept for the written trace; durations and self time are
  // accumulated for every span regardless.
  static constexpr std::size_t kMaxKeptSpans = 1u << 18;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_message(cmom::MessageId id);

   private:
    Tracer* tracer_;
  };

  struct KindTotals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint64_t> durations_ns;
  };
  // Merged over every thread; call after all traced threads are idle.
  [[nodiscard]] std::array<KindTotals, kSpanKinds> Totals() const;
  [[nodiscard]] std::uint64_t spans_recorded() const;

  // Writes every kept span as CSV; false if the file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint32_t index;  // 1-based in `spans`, 0 when not kept
    SpanKind kind;
    cmom::MessageId message;
    bool has_message;
  };
  struct ThreadBuffer {
    std::vector<Span> spans;
    std::vector<Open> stack;
    std::array<KindTotals, kSpanKinds> totals;
  };

  ThreadBuffer& Local();
  void Begin(SpanKind kind);
  void SetMessage(cmom::MessageId id);
  void End();

  const std::uint64_t generation_;
  std::atomic<std::size_t> kept_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// Counters one server's store decorator keeps; commit durations are
// the Tracer's kStoreCommit spans.
struct StoreProbe {
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> deletes{0};
  std::atomic<std::uint64_t> commit_busy_ns{0};
  std::mutex mutex;
  std::vector<std::uint64_t> commit_bytes;  // guarded by mutex
};

class TracedStore final : public cmom::mom::Store {
 public:
  TracedStore(cmom::mom::Store& inner, StoreProbe& probe, Tracer& tracer)
      : inner_(inner), probe_(probe), tracer_(tracer) {}

  void Put(std::string_view key, cmom::Bytes value) override;
  void Delete(std::string_view key) override;
  [[nodiscard]] std::optional<cmom::Bytes> Get(std::string_view key) override {
    return inner_.Get(key);
  }
  [[nodiscard]] std::vector<std::string> Keys(std::string_view prefix) override {
    return inner_.Keys(prefix);
  }
  cmom::Status Commit() override;
  void Rollback() override { inner_.Rollback(); }
  cmom::Status Checkpoint() override { return inner_.Checkpoint(); }
  [[nodiscard]] std::uint64_t last_commit_bytes() const override {
    return inner_.last_commit_bytes();
  }
  [[nodiscard]] std::uint64_t total_bytes_written() const override {
    return inner_.total_bytes_written();
  }
  [[nodiscard]] std::uint64_t sync_latency_ns() const override {
    return inner_.sync_latency_ns();
  }

 private:
  cmom::mom::Store& inner_;
  StoreProbe& probe_;
  Tracer& tracer_;
};

// Frame-level observations shared by every endpoint of one network;
// Send and handler durations are the Tracer's kNetSend and kNetHandler
// spans.
class NetProbe {
 public:
  static constexpr std::size_t kMaxServers = 32;  // server ids 0..31

  explicit NetProbe(Tracer& tracer) : tracer_(tracer) {}
  NetProbe(const NetProbe&) = delete;
  NetProbe& operator=(const NetProbe&) = delete;

  Tracer& tracer() { return tracer_; }

  // Send side: one FIFO of Send-return times per directed link, popped
  // in order by the receiving handler (per-link FIFO matching).
  struct Link {
    std::mutex mutex;
    std::deque<std::uint64_t> sent_ns;
  };
  Link& link(cmom::ServerId from, cmom::ServerId to) {
    return links_[from.value() % kMaxServers][to.value() % kMaxServers];
  }

  void RecordFrame(std::uint64_t bytes) {
    frames_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordWire(std::uint64_t wire_ns);
  void RecordHandlerBusy(cmom::ServerId at, std::uint64_t duration_ns) {
    handler_busy_[at.value() % kMaxServers].fetch_add(
        duration_ns, std::memory_order_relaxed);
  }
  void RecordTimer() { timers_.fetch_add(1, std::memory_order_relaxed); }

  // Handler-entry time of a last-hop data frame, keyed by message id,
  // taken back by the destination agent (engine queueing time).
  void NoteArrival(cmom::MessageId id, std::uint64_t at_ns);
  [[nodiscard]] bool TakeArrival(cmom::MessageId id, std::uint64_t* at_ns);

  struct Totals {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::uint64_t timers = 0;
    std::uint64_t unmatched_wire = 0;
    std::vector<std::uint64_t> wire_ns;
    std::array<std::uint64_t, kMaxServers> handler_busy_ns{};
  };
  // Call once the traced servers are idle.
  [[nodiscard]] Totals Collect();
  void CountUnmatched() { ++unmatched_; }

 private:
  Tracer& tracer_;
  std::array<std::array<Link, kMaxServers>, kMaxServers> links_;
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> timers_{0};
  std::atomic<std::uint64_t> unmatched_{0};
  std::array<std::atomic<std::uint64_t>, kMaxServers> handler_busy_{};
  std::mutex mutex_;
  std::vector<std::uint64_t> wire_ns_;  // guarded by mutex_
  std::mutex arrivals_mutex_;
  std::unordered_map<cmom::MessageId, std::uint64_t> arrivals_;
};

class TracedEndpoint final : public cmom::net::Endpoint {
 public:
  TracedEndpoint(std::unique_ptr<cmom::net::Endpoint> inner, NetProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] cmom::ServerId self() const override { return inner_->self(); }
  cmom::Status Send(cmom::ServerId to, cmom::Bytes frame) override;
  void SetReceiveHandler(cmom::net::ReceiveHandler handler) override;
  void Disconnect(cmom::ServerId peer) override { inner_->Disconnect(peer); }
  [[nodiscard]] cmom::net::TransportStats stats() const override {
    return inner_->stats();
  }

 private:
  std::unique_ptr<cmom::net::Endpoint> inner_;
  NetProbe& probe_;
};

class TracedNetwork final : public cmom::net::Network {
 public:
  TracedNetwork(cmom::net::Network& inner, NetProbe& probe)
      : inner_(inner), probe_(probe) {}
  [[nodiscard]] cmom::Result<std::unique_ptr<cmom::net::Endpoint>>
  CreateEndpoint(cmom::ServerId id) override;

 private:
  cmom::net::Network& inner_;
  NetProbe& probe_;
};

class TracedRuntime final : public cmom::net::Runtime {
 public:
  TracedRuntime(cmom::net::Runtime& inner, NetProbe& probe)
      : inner_(inner), probe_(probe) {}
  std::uint64_t NowNs() override { return inner_.NowNs(); }
  void After(std::uint64_t delay_ns, std::function<void()> fn) override {
    probe_.RecordTimer();
    inner_.After(delay_ns, std::move(fn));
  }
  [[nodiscard]] std::unique_ptr<cmom::net::Executor> MakeExecutor(
      std::size_t lanes) override {
    return inner_.MakeExecutor(lanes);
  }

 private:
  cmom::net::Runtime& inner_;
  NetProbe& probe_;
};

}  // namespace perfbench
