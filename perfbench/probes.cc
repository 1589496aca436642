#include "probes.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/bytes.h"
#include "mom/message.h"

namespace perfbench {

std::uint64_t NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double Percentile(std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return static_cast<double>(values[index]);
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kChannelSend: return "mom.channel.send";
    case SpanKind::kNetSend: return "net.send";
    case SpanKind::kNetHandler: return "net.handler";
    case SpanKind::kStoreCommit: return "mom.store.commit";
    case SpanKind::kEngineReact: return "mom.engine.react";
    case SpanKind::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_tracer_generation{0};

// The calling thread's buffer in the current tracer, found by the
// tracer's generation so a later tracer never reuses a stale pointer.
struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

Tracer::Tracer() : generation_(g_tracer_generation.fetch_add(1) + 1) {}
Tracer::~Tracer() = default;

Tracer::ThreadBuffer& Tracer::Local() {
  if (t_slot.generation != generation_) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->stack.reserve(16);
    std::lock_guard lock(mutex_);
    t_slot.generation = generation_;
    t_slot.buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(t_slot.buffer);
}

void Tracer::Begin(SpanKind kind) {
  ThreadBuffer& local = Local();
  const std::uint64_t now = NowNs();
  std::uint32_t index = 0;
  if (kept_.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans) {
    Span span;
    span.start_ns = now;
    span.kind = kind;
    span.parent = local.stack.empty() ? 0 : local.stack.back().index;
    local.spans.push_back(span);
    index = static_cast<std::uint32_t>(local.spans.size());
  }
  local.stack.push_back(Open{now, 0, index, kind, cmom::MessageId{}, false});
}

void Tracer::SetMessage(cmom::MessageId id) {
  ThreadBuffer& local = Local();
  if (local.stack.empty()) return;
  local.stack.back().message = id;
  local.stack.back().has_message = true;
}

void Tracer::End() {
  ThreadBuffer& local = Local();
  if (local.stack.empty()) return;
  const Open open = local.stack.back();
  local.stack.pop_back();
  const std::uint64_t now = NowNs();
  const std::uint64_t duration = now - open.start_ns;
  KindTotals& totals = local.totals[static_cast<std::size_t>(open.kind)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - std::min(duration, open.child_ns);
  totals.durations_ns.push_back(duration);
  if (!local.stack.empty()) local.stack.back().child_ns += duration;
  if (open.index != 0) {
    Span& span = local.spans[open.index - 1];
    span.end_ns = now;
    if (open.has_message) {
      span.has_message = true;
      span.message_origin = open.message.origin.value();
      span.message_seq = open.message.seq;
    }
  }
}

Tracer::Scope::Scope(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->Begin(kind);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End();
}

void Tracer::Scope::set_message(cmom::MessageId id) {
  if (tracer_ != nullptr) tracer_->SetMessage(id);
}

std::array<Tracer::KindTotals, kSpanKinds> Tracer::Totals() const {
  std::array<KindTotals, kSpanKinds> merged;
  std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      const KindTotals& from = buffer->totals[k];
      KindTotals& into = merged[k];
      into.count += from.count;
      into.total_ns += from.total_ns;
      into.self_ns += from.self_ns;
      into.durations_ns.insert(into.durations_ns.end(),
                               from.durations_ns.begin(),
                               from.durations_ns.end());
    }
  }
  return merged;
}

std::uint64_t Tracer::spans_recorded() const {
  return kept_.load(std::memory_order_relaxed);
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread,index,parent,span,start_ns,end_ns,message\n");
  std::lock_guard lock(mutex_);
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      char message[48] = "";
      if (span.has_message) {
        std::snprintf(message, sizeof(message), "m%u:%llu",
                      static_cast<unsigned>(span.message_origin),
                      static_cast<unsigned long long>(span.message_seq));
      }
      std::fprintf(out, "%zu,%zu,%u,%s,%llu,%llu,%s\n", t, i + 1, span.parent,
                   SpanName(span.kind),
                   static_cast<unsigned long long>(span.start_ns),
                   static_cast<unsigned long long>(span.end_ns), message);
    }
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------
// Store decorator
// ---------------------------------------------------------------------

void TracedStore::Put(std::string_view key, cmom::Bytes value) {
  probe_.puts.fetch_add(1, std::memory_order_relaxed);
  inner_.Put(key, std::move(value));
}

void TracedStore::Delete(std::string_view key) {
  probe_.deletes.fetch_add(1, std::memory_order_relaxed);
  inner_.Delete(key);
}

cmom::Status TracedStore::Commit() {
  const std::uint64_t start = NowNs();
  cmom::Status status = [this] {
    Tracer::Scope span(&tracer_, SpanKind::kStoreCommit);
    return inner_.Commit();
  }();
  const std::uint64_t duration = NowNs() - start;
  probe_.commits.fetch_add(1, std::memory_order_relaxed);
  probe_.commit_busy_ns.fetch_add(duration, std::memory_order_relaxed);
  std::lock_guard lock(probe_.mutex);
  probe_.commit_bytes.push_back(inner_.last_commit_bytes());
  return status;
}

// ---------------------------------------------------------------------
// Network decorators
// ---------------------------------------------------------------------

void NetProbe::RecordWire(std::uint64_t wire_ns) {
  std::lock_guard lock(mutex_);
  wire_ns_.push_back(wire_ns);
}

void NetProbe::NoteArrival(cmom::MessageId id, std::uint64_t at_ns) {
  std::lock_guard lock(arrivals_mutex_);
  arrivals_[id] = at_ns;
}

bool NetProbe::TakeArrival(cmom::MessageId id, std::uint64_t* at_ns) {
  std::lock_guard lock(arrivals_mutex_);
  auto it = arrivals_.find(id);
  if (it == arrivals_.end()) return false;
  *at_ns = it->second;
  arrivals_.erase(it);
  return true;
}

NetProbe::Totals NetProbe::Collect() {
  Totals totals;
  totals.frames = frames_.load();
  totals.bytes = bytes_.load();
  totals.timers = timers_.load();
  totals.unmatched_wire = unmatched_.load();
  for (std::size_t i = 0; i < kMaxServers; ++i) {
    totals.handler_busy_ns[i] = handler_busy_[i].load();
  }
  std::lock_guard lock(mutex_);
  totals.wire_ns = std::move(wire_ns_);
  return totals;
}

cmom::Status TracedEndpoint::Send(cmom::ServerId to, cmom::Bytes frame) {
  probe_.RecordFrame(frame.size());
  // The link lock spans the inner Send so the FIFO of return times has
  // the transport's own per-link order even with concurrent senders; a
  // receiver that gets the frame before Send returns waits here for
  // its timestamp.
  NetProbe::Link& link = probe_.link(inner_->self(), to);
  std::lock_guard lock(link.mutex);
  cmom::Status status = [&] {
    Tracer::Scope span(&probe_.tracer(), SpanKind::kNetSend);
    return inner_->Send(to, std::move(frame));
  }();
  if (status.ok()) link.sent_ns.push_back(NowNs());
  return status;
}

void TracedEndpoint::SetReceiveHandler(cmom::net::ReceiveHandler handler) {
  const cmom::ServerId self = inner_->self();
  inner_->SetReceiveHandler([this, self, handler = std::move(handler)](
                                cmom::ServerId from, cmom::Bytes frame) {
    const std::uint64_t entry = NowNs();
    {
      NetProbe::Link& link = probe_.link(from, self);
      std::unique_lock lock(link.mutex);
      if (link.sent_ns.empty()) {
        lock.unlock();
        probe_.CountUnmatched();
      } else {
        const std::uint64_t sent = link.sent_ns.front();
        link.sent_ns.pop_front();
        lock.unlock();
        probe_.RecordWire(entry > sent ? entry - sent : 0);
      }
    }
    // Last-hop data frames: remember the handler entry so the
    // destination agent can time its queueing.  Only the message header
    // is decoded (public codec), not the stamp.
    bool has_message = false;
    cmom::MessageId message_id;
    auto type = cmom::mom::PeekFrameType(frame);
    if (type.ok() && type.value() == cmom::mom::FrameType::kData) {
      cmom::ByteReader in(std::span<const std::uint8_t>(frame).subspan(1));
      auto message = cmom::mom::Message::Decode(in);
      if (message.ok()) {
        has_message = true;
        message_id = message.value().id;
        if (message.value().to.server == self) {
          probe_.NoteArrival(message_id, entry);
        }
      }
    }
    const std::uint64_t start = NowNs();
    {
      Tracer::Scope span(&probe_.tracer(), SpanKind::kNetHandler);
      if (has_message) span.set_message(message_id);
      handler(from, std::move(frame));
    }
    probe_.RecordHandlerBusy(self, NowNs() - start);
  });
}

cmom::Result<std::unique_ptr<cmom::net::Endpoint>> TracedNetwork::CreateEndpoint(
    cmom::ServerId id) {
  auto inner = inner_.CreateEndpoint(id);
  if (!inner.ok()) return inner.status();
  return {std::unique_ptr<cmom::net::Endpoint>(
      std::make_unique<TracedEndpoint>(std::move(inner).value(), probe_))};
}

}  // namespace perfbench
