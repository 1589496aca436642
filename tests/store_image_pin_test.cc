// Byte-identity pin for the durable store image.
//
// A seeded SimHarness run over Bus(2,2) with flow control on (so the
// routers stage forwards under fwd/ keys) chatters between every pair
// of agents, with seeded reordering jitter so frames are held back.  At
// fixed simulated instants -- mid-traffic, right after a router crash,
// right after its restart, and at quiescence -- every server's
// InMemoryStore is folded into a CRC32 over its sorted (key, value)
// pairs.  The expected digests were recorded from the per-entry
// persistence code before the store-key schema moved into
// mom/store_schema and the full-image layout was deleted; any
// persistence refactor must reproduce them exactly.
//
// The run must also reach every queue prefix (qout/, qin/, hold/,
// fwd/) in at least one snapshot, or the pin would not cover them.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"
#include "domains/topologies.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

using workload::ChatterAgent;
using workload::SimHarness;
using workload::SimHarnessOptions;

constexpr std::size_t kServers = 4;
// Spelled out here, not taken from mom/store_schema.h, so the pin does
// not move with the code under test.
constexpr std::string_view kQueuePrefixes[] = {"qout/", "qin/", "hold/",
                                               "fwd/"};

// CRC32 over the store's sorted (key, value) pairs, each framed by
// its length so a byte cannot migrate across a key/value boundary
// unnoticed.
std::uint32_t StoreDigest(mom::InMemoryStore& store) {
  ByteWriter out;
  for (const std::string& key : store.Keys("")) {
    const auto value = store.Get(key);
    out.WriteString(key);
    out.WriteBytes(value.value_or(Bytes{}));
  }
  return Crc32(out.buffer());
}

// One row per snapshot (S0..S3): initial boot, ten mid-traffic
// instants, the crash of S0, 100 ms later, S0's restart, six more
// instants and quiescence.
constexpr std::uint32_t kExpected[][kServers] = {
    {0xf3506e65u, 0xdbb75242u, 0x020a0453u, 0xe38cd931u},
    {0xd9f14de5u, 0xe7e31094u, 0xb38eda9bu, 0x6555ff01u},
    {0x5842a8c0u, 0xa0256d61u, 0x3db90e79u, 0x75906127u},
    {0x720dc523u, 0x34fb4dbbu, 0xa1aa132fu, 0xb739a4e1u},
    {0xfcfee6f0u, 0xe7513b32u, 0x324dd1a0u, 0x17bc3235u},
    {0xde081d8du, 0x31bde2a6u, 0x5f94de51u, 0x392343a6u},
    {0x79536b8du, 0x42f38bcbu, 0xeb410290u, 0x0a9d629fu},
    {0xa611b19au, 0xcb13f8d7u, 0x768ba886u, 0xfd518fb7u},
    {0x9b1e0b5cu, 0x55b6a788u, 0xd6fc85eau, 0x02513ecau},
    {0x50f568feu, 0xde1a2aa5u, 0x0f079df3u, 0x7adc51ddu},
    {0x4963ad1cu, 0xb7c4eee1u, 0x0df523a7u, 0x7ea98961u},
    {0x4963ad1cu, 0xb7c4eee1u, 0x0df523a7u, 0x7ea98961u},
    {0x4963ad1cu, 0xec04500eu, 0xb9be1338u, 0xa1ee8673u},
    {0x00752615u, 0xec04500eu, 0xb9be1338u, 0xa1ee8673u},
    {0x27830e5cu, 0xec04500eu, 0x5b53dd85u, 0x34765195u},
    {0xe73d1f3eu, 0xec04500eu, 0x87baabdeu, 0x4f5759d2u},
    {0xd96f05a3u, 0xec04500eu, 0x3ac10ac3u, 0x46ccac42u},
    {0xc5686f7du, 0xec04500eu, 0xd5c4f8f8u, 0xc7275eeau},
    {0x440035e0u, 0xec04500eu, 0xc9167c9du, 0x43a8d550u},
    {0x1bbd0a41u, 0xec04500eu, 0x9b20770eu, 0xc3679f7eu},
    {0x20ba303du, 0x158bdf17u, 0xd809370cu, 0x9bde3860u},
};

struct PinRun {
  std::vector<std::uint32_t> digests;  // per snapshot, per server
  std::set<std::string_view> prefixes_seen;  // queue prefixes with keys
};

void Snapshot(SimHarness& harness, PinRun& run) {
  for (std::uint16_t s = 0; s < kServers; ++s) {
    mom::InMemoryStore& store = harness.store(ServerId(s));
    run.digests.push_back(StoreDigest(store));
    for (std::string_view prefix : kQueuePrefixes) {
      if (!store.Keys(prefix).empty()) run.prefixes_seen.insert(prefix);
    }
  }
}

PinRun RunBus22() {
  SimHarnessOptions options;  // cost model on, flow on
  options.retransmit_timeout_ns = 400 * sim::kMillisecond;
  // Two-member domains over FIFO links never hold a frame back; seeded
  // reordering jitter does.
  options.fault_model.jitter_probability = 0.3;
  options.fault_model.max_jitter = 40 * sim::kMillisecond;
  options.fault_model.allow_reordering = true;
  options.fault_seed = 11;
  auto config = domains::topologies::Bus(2, 2);
  SimHarness harness(config, options);
  std::vector<AgentId> peers;
  for (ServerId id : config.servers) peers.push_back(AgentId{id, 1});
  auto install = [&](ServerId id, mom::AgentServer& server) {
    server.AttachAgent(1,
                       std::make_unique<ChatterAgent>(7 + id.value(), peers));
  };
  EXPECT_TRUE(harness.Init(install).ok());
  EXPECT_TRUE(harness.BootAll().ok());

  PinRun run;
  Snapshot(harness, run);
  for (std::uint16_t s = 0; s < kServers; ++s) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(harness
                      .Send(ServerId(s), 1, ServerId(s), 1, workload::kChat,
                            ChatterAgent::MakeChatPayload(6))
                      .ok());
    }
  }
  sim::Time t = 0;
  for (int step = 0; step < 10; ++step) {
    t += 20 * sim::kMillisecond;
    harness.RunUntil(t);
    Snapshot(harness, run);
  }
  // Crash router S0 mid-traffic, let the others run on, restart it.
  harness.Crash(ServerId(0));
  Snapshot(harness, run);
  t += 100 * sim::kMillisecond;
  harness.RunUntil(t);
  Snapshot(harness, run);
  EXPECT_TRUE(harness.Restart(ServerId(0)).ok());
  Snapshot(harness, run);
  for (int step = 0; step < 6; ++step) {
    t += 20 * sim::kMillisecond;
    harness.RunUntil(t);
    Snapshot(harness, run);
  }
  harness.Run();
  Snapshot(harness, run);

  EXPECT_TRUE(harness.CheckQuiescent().ok());
  auto checker = harness.MakeChecker();
  const causality::Trace trace = harness.trace().Snapshot();
  EXPECT_TRUE(checker.CheckCausalDelivery(trace).causal());
  EXPECT_TRUE(checker.CheckExactlyOnce(trace).ok());
  return run;
}

TEST(StoreImagePin, SnapshotsMatchRecordedDigests) {
  const PinRun run = RunBus22();
  for (std::string_view prefix : kQueuePrefixes) {
    EXPECT_TRUE(run.prefixes_seen.contains(prefix))
        << "no snapshot holds a " << prefix << " key";
  }
  constexpr std::size_t kSnapshots = std::size(kExpected);
  ASSERT_EQ(run.digests.size(), kSnapshots * kServers);
  for (std::size_t snap = 0; snap < kSnapshots; ++snap) {
    for (std::size_t s = 0; s < kServers; ++s) {
      EXPECT_EQ(run.digests[snap * kServers + s], kExpected[snap][s])
          << "snapshot " << snap << ", S" << s;
    }
  }
}

}  // namespace
}  // namespace cmom
