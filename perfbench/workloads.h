// The benchmark's workloads and the round that runs one of them.
//
// A round builds a fresh deployment (network, stores, servers, agents),
// boots it, warms it up, drives traffic from one generator thread for
// the timed phase, drains, checks delivery and tears everything down.
// End-to-end figures come from untraced rounds; a traced round wraps the
// store, network and runtime in the probes of probes.h and adds the
// per-layer figures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"

namespace perfbench {

enum class Workload {
  // Closed loop, 8 outstanding pings S1 -> S3 of Bus(2,2) over TCP
  // loopback and back: two router hops each way, tiny stamps.
  kBusEcho,
  // Closed loop, 8 outstanding sends of uniform (source, destination)
  // pairs over Flat(32) in process: one hop, 32x32 matrix clock.
  kFlatWide,
};

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

struct RoundConfig {
  Workload workload = Workload::kBusEcho;
  std::uint64_t seed = 1;
  double timed_seconds = 1.0;
  bool traced = false;
  // Transparency check: a fixed number of generator sends with the
  // given window and no warmup or timed phase (0 = normal round).
  std::uint64_t fixed_sends = 0;
  std::size_t window_override = 0;
  std::uint16_t tcp_base_port = 25600;
  // Traced rounds write their spans here when non-empty.
  std::string span_csv;
};

struct RoundResult {
  bool ok = true;
  std::string error;

  double setup_s = 0;          // round start -> first timed send
  double window_s = 0;         // timed phase length
  double cpu_s = 0;            // process CPU over the timed phase
  std::uint64_t delivered_window = 0;
  double peak_rss_mb = 0;      // process peak resident set
  std::vector<std::uint64_t> latency_ns;  // messages sent in the window

  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicates = 0;

  // Totals from the quiescent point after boot to the quiescent point
  // after the drain.
  std::uint64_t delivered_total = 0;
  std::uint64_t commit_bytes = 0;
  std::uint64_t transport_frames = 0;
  // Delivery order seen by each benchmark agent (transparency check).
  std::vector<std::vector<cmom::MessageId>> agent_orders;

  // Per-layer figures by metric name.
  std::map<std::string, double> layer;
};

RoundResult RunRound(const RoundConfig& config);

}  // namespace perfbench
