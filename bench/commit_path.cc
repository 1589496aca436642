// Commit-path benchmark: cost of making one message durable, as a
// function of the QueueOUT backlog behind it.
//
// Rewriting the whole channel image (clocks + QueueOUT + QueueIN +
// hold-back) on every commit would make the bytes per message grow
// linearly with the backlog of unacknowledged messages -- exactly the
// disk-I/O overload the paper's Section 3 worries about.  The store
// schema writes per-entry keys and only the clock images whose version
// advanced, so bytes per message are O(1) in the backlog.  (The retired
// whole-image layout measured ~300x more bytes per message at a 1k
// backlog; that record stays in BENCH_commit_path.json and
// EXPERIMENTS.md.)
//
// Scenario: Flat(2), only S0 booted; its peer never acks, so every
// send stays in QueueOUT and the backlog is exact.  After building a
// backlog of B messages, a probe batch measures commit bytes, commit
// count and wall-clock per message.  Runs over InMemoryStore and
// FileStore (real WAL writes).
//
// Gate: exits non-zero when a server fails to boot, or when commit
// bytes per message at backlog B exceed those at backlog 0 by more
// than kMaxBacklogSensitivity -- commit cost must stay O(1) in the
// backlog.
//
// Output: a table on stdout plus BENCH_commit_path.json (use --out to
// redirect).  --smoke shrinks the counts for the CI bench label.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "domains/topologies.h"
#include "mom/agent_server.h"
#include "mom/file_store.h"
#include "mom/store.h"
#include "net/sim_network.h"
#include "sim/simulator.h"

using namespace cmom;

namespace {

// Commit bytes per message at the full backlog over those at backlog 0
// (1.04 on record at B = 1000: only the message-id varints grow).
constexpr double kMaxBacklogSensitivity = 1.10;

struct RunResult {
  std::string store;
  std::size_t backlog = 0;
  std::size_t probes = 0;
  double commit_bytes_per_msg = 0;
  double commits_per_msg = 0;
  double msgs_per_sec = 0;
  double wal_file_bytes_per_msg = 0;  // FileStore only: on-disk growth
};

std::uint64_t DirectoryBytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  if (!std::filesystem::exists(dir)) return 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Sends `backlog` warm-up messages, then `probes` measured ones, into a
// QueueOUT that never drains (the peer is down).  Frames land in the
// simulator's event queue and are never delivered; retransmit timers
// are pushed out beyond the run.  Nullopt when the server fails to boot.
std::optional<RunResult> Measure(mom::Store* store,
                                 const std::filesystem::path* store_dir,
                                 std::string_view store_name,
                                 std::size_t backlog, std::size_t probes) {
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto deployment = domains::Deployment::Create(domains::topologies::Flat(2))
                        .value();
  auto endpoint0 = network.CreateEndpoint(ServerId(0)).value();
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();  // dead peer

  mom::AgentServerOptions options;
  options.retransmit_timeout_ns = 1ull << 50;  // never fires in-run
  mom::AgentServer server(deployment, ServerId(0), endpoint0.get(), &runtime,
                          store, options);
  if (Status boot = server.Boot(); !boot.ok()) {
    std::fprintf(stderr, "%.*s backlog %zu: boot failed: %s\n",
                 static_cast<int>(store_name.size()), store_name.data(),
                 backlog, boot.to_string().c_str());
    return std::nullopt;
  }

  const AgentId from{ServerId(0), 1};
  const AgentId to{ServerId(1), 1};
  for (std::size_t i = 0; i < backlog; ++i) {
    (void)server.SendMessage(from, to, "backlog");
  }

  const std::uint64_t bytes_before = store->total_bytes_written();
  const std::uint64_t commits_before = server.stats().commits;
  const std::uint64_t files_before =
      store_dir != nullptr ? DirectoryBytes(*store_dir) : 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < probes; ++i) {
    (void)server.SendMessage(from, to, "probe");
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  RunResult result;
  result.store = std::string(store_name);
  result.backlog = backlog;
  result.probes = probes;
  result.commit_bytes_per_msg =
      static_cast<double>(store->total_bytes_written() - bytes_before) /
      static_cast<double>(probes);
  result.commits_per_msg =
      static_cast<double>(server.stats().commits - commits_before) /
      static_cast<double>(probes);
  result.msgs_per_sec =
      seconds > 0 ? static_cast<double>(probes) / seconds : 0;
  if (store_dir != nullptr) {
    result.wal_file_bytes_per_msg =
        static_cast<double>(DirectoryBytes(*store_dir) - files_before) /
        static_cast<double>(probes);
  }
  server.Shutdown();
  return result;
}

// Commit bytes per message at `backlog` over those at backlog 0, on the
// in-memory store; 0 when either row is missing.
double BacklogSensitivity(const std::vector<RunResult>& results,
                          std::size_t backlog) {
  auto find = [&](std::size_t bl) -> const RunResult* {
    for (const RunResult& r : results) {
      if (r.store == "inmemory" && r.backlog == bl) return &r;
    }
    return nullptr;
  };
  const RunResult* full = find(backlog);
  const RunResult* empty = find(0);
  if (full == nullptr || empty == nullptr || empty->commit_bytes_per_msg <= 0) {
    return 0;
  }
  return full->commit_bytes_per_msg / empty->commit_bytes_per_msg;
}

void WriteJson(const std::string& path, const std::vector<RunResult>& results,
               std::size_t backlog, double sensitivity, bool smoke) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"commit_path\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"backlog\": %zu,\n", backlog);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(out,
                 "    {\"store\": \"%s\", \"backlog\": %zu, "
                 "\"probes\": %zu, \"commit_bytes_per_msg\": %.1f, "
                 "\"commits_per_msg\": %.2f, \"msgs_per_sec\": %.0f, "
                 "\"wal_file_bytes_per_msg\": %.1f}%s\n",
                 r.store.c_str(), r.backlog, r.probes,
                 r.commit_bytes_per_msg, r.commits_per_msg, r.msgs_per_sec,
                 r.wal_file_bytes_per_msg,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  std::fprintf(out,
               "  \"summary\": {\"incremental_backlog_sensitivity\": "
               "%.2f}\n}\n",
               sensitivity);
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_commit_path.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const std::size_t backlog = smoke ? 32 : 1000;
  const std::size_t probes = smoke ? 16 : 256;

  std::printf("Commit path: durable bytes per message vs QueueOUT backlog\n");
  std::printf("%-9s %8s %14s %12s %12s %12s\n", "store", "backlog",
              "bytes/msg", "commits/msg", "msgs/sec", "file B/msg");

  std::vector<RunResult> results;
  bool booted = true;
  const auto keep = [&](std::optional<RunResult> result) {
    if (result.has_value()) {
      results.push_back(std::move(*result));
    } else {
      booted = false;
    }
  };
  const auto run = [&](std::size_t bl) {
    {
      mom::InMemoryStore store;
      keep(Measure(&store, nullptr, "inmemory", bl, probes));
    }
    {
      const std::filesystem::path dir =
          std::filesystem::temp_directory_path() / "cmom_bench_commit_path";
      std::filesystem::remove_all(dir);
      auto store = mom::FileStore::Open(dir).value();
      store->set_compaction_threshold(1ull << 40);  // no compaction in-run
      keep(Measure(store.get(), &dir, "filestore", bl, probes));
      store.reset();
      std::filesystem::remove_all(dir);
    }
  };
  for (std::size_t bl : {std::size_t{0}, backlog}) run(bl);

  for (const RunResult& r : results) {
    std::printf("%-9s %8zu %14.1f %12.2f %12.0f %12.1f\n", r.store.c_str(),
                r.backlog, r.commit_bytes_per_msg, r.commits_per_msg,
                r.msgs_per_sec, r.wal_file_bytes_per_msg);
  }
  const double sensitivity = BacklogSensitivity(results, backlog);
  WriteJson(out_path, results, backlog, sensitivity, smoke);
  std::printf("bytes/msg, backlog %zu vs 0: %.2fx (1.0 = backlog-independent, "
              "gate %.2fx)\n",
              backlog, sensitivity, kMaxBacklogSensitivity);
  if (!booted) {
    std::fprintf(stderr, "FAIL: a server did not boot\n");
    return 1;
  }
  if (sensitivity <= 0 || sensitivity > kMaxBacklogSensitivity) {
    std::fprintf(stderr,
                 "FAIL: commit bytes/msg grow with the backlog (%.2fx > "
                 "%.2fx)\n",
                 sensitivity, kMaxBacklogSensitivity);
    return 1;
  }
  return 0;
}
