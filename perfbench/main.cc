// perfbench: runs one benchmark round in this process.
//
//   perfbench --workload <bus_echo|flat_wide> --seed <n>
//             --seconds <s> --round <k> [--out-dir <dir>]
//             [--traced] [--transparency]
//
// A round builds a fresh deployment, drives the timed phase for
// --seconds, drains, checks delivery and prints one JSON line with its
// figures on stdout.  run.py starts one process per round, so every
// round (its set-up time and its peak resident set included) begins in
// a fresh process, and aggregates the rounds.  --traced wraps the layers
// in the probes and adds the per-layer figures; --transparency runs the
// fixed window-1 bus_echo exchange the probe transparency check compares.
// A round whose delivery check fails prints the workload, seed and
// reason on stderr and exits 1.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace {

using perfbench::RoundConfig;
using perfbench::RoundResult;
using perfbench::Workload;

constexpr std::uint16_t kBasePort = 25600;  // 25600-25699: no test uses it
constexpr std::uint16_t kPortsPerRound = 4;
constexpr std::uint64_t kTransparencyPings = 300;

struct Args {
  Workload workload = Workload::kBusEcho;
  std::uint64_t seed = 1;
  double seconds = 1;
  unsigned round = 0;
  bool traced = false;
  bool transparency = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--traced") {
      args->traced = true;
      continue;
    }
    if (key == "--transparency") {
      args->transparency = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      if (!perfbench::ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 120) return false;
    } else if (key == "--round") {
      args->round = static_cast<unsigned>(std::strtoul(value.c_str(), &end, 10));
      if (*end != '\0' || args->round > 1000) return false;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

int Fail(const Args& args, const std::string& reason) {
  std::fprintf(stderr, "FAIL workload=%s seed=%llu round=%u: %s\n",
               perfbench::WorkloadName(args.workload),
               static_cast<unsigned long long>(args.seed), args.round,
               reason.c_str());
  return 1;
}

// FNV-1a over every agent's delivery order: equal digests mean the same
// message ids were delivered in the same order at each agent.
std::uint64_t OrderDigest(const RoundResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t a = 0; a < r.agent_orders.size(); ++a) {
    mix(a);
    for (const cmom::MessageId& id : r.agent_orders[a]) {
      mix(id.origin.value());
      mix(id.seq);
    }
  }
  return h;
}

std::string Number(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

void PrintRound(const RoundResult& r) {
  std::vector<std::uint64_t> latency = r.latency_ns;
  std::string line;
  auto field = [&line](const std::string& key, const std::string& value) {
    line += (line.empty() ? "{\"" : ", \"") + key + "\": " + value;
  };
  field("setup_s", Number(r.setup_s));
  field("window_s", Number(r.window_s));
  field("cpu_s", Number(r.cpu_s));
  field("delivered_window", std::to_string(r.delivered_window));
  field("latency_p50_us", Number(perfbench::Percentile(latency, 0.50) / 1000.0));
  field("latency_p90_us", Number(perfbench::Percentile(latency, 0.90) / 1000.0));
  field("peak_rss_mb", Number(r.peak_rss_mb));
  field("attempted", std::to_string(r.attempted));
  field("failed", std::to_string(r.refused + r.lost + r.duplicates));
  field("delivered_total", std::to_string(r.delivered_total));
  field("commit_bytes", std::to_string(r.commit_bytes));
  field("transport_frames", std::to_string(r.transport_frames));
  field("order_digest", "\"" + std::to_string(OrderDigest(r)) + "\"");
  std::string layer;
  for (const auto& [name, value] : r.layer) {
    layer += (layer.empty() ? "{\"" : ", \"") + name + "\": " + Number(value);
  }
  field("layer", layer.empty() ? "{}" : layer + "}");
  std::printf("%s}\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <bus_echo|flat_wide> "
                 "--seed <n> --seconds <s> --round <k> [--out-dir <dir>] "
                 "[--traced] [--transparency]\n");
    return 2;
  }
  if (args.round == 0) {
    std::fprintf(stderr, "host: nproc=%ld build=%s compiler=\"%s\" sanitizer=%s\n",
                 ::sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, __VERSION__,
                 Sanitizer());
  }

  RoundConfig rc;
  rc.workload = args.workload;
  rc.seed = args.seed * 1000003ull + args.round;  // each round its own inputs
  rc.timed_seconds = args.seconds;
  rc.traced = args.traced;
  rc.tcp_base_port =
      static_cast<std::uint16_t>(kBasePort + kPortsPerRound * (args.round % 25));
  if (args.transparency) {
    if (args.workload != Workload::kBusEcho) {
      return Fail(args, "the transparency check runs on bus_echo");
    }
    rc.fixed_sends = kTransparencyPings;
    rc.window_override = 1;
  } else if (args.traced) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    if (ec) return Fail(args, "cannot create " + args.out_dir);
    rc.span_csv = (std::filesystem::path(args.out_dir) /
                   (std::string("spans-") + perfbench::WorkloadName(args.workload) +
                    "-seed" + std::to_string(args.seed) + ".csv"))
                      .string();
  }
  const RoundResult result = perfbench::RunRound(rc);
  if (!result.ok) return Fail(args, result.error);
  PrintRound(result);
  return 0;
}
