// Robustness: every decoder must survive arbitrary bytes -- returning
// an error or a value, never crashing or reading out of bounds -- and
// live servers must survive garbage frames from the network.  The
// "fuzzing" is deterministic (seeded) so failures replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "clocks/causal_clock.h"
#include "clocks/causal_core.h"
#include "clocks/matrix_clock.h"
#include "clocks/stamp.h"
#include "clocks/updates_tracker.h"
#include "common/log.h"
#include "common/rng.h"
#include "domains/config_io.h"
#include "domains/topologies.h"
#include "mom/message.h"
#include "workload/agents.h"
#include "workload/sim_harness.h"

namespace cmom {
namespace {

Bytes RandomBytes(Rng& rng, std::size_t max_size) {
  Bytes bytes(rng.NextBelow(max_size + 1));
  for (auto& byte : bytes) {
    byte = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  return bytes;
}

class DecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    const Bytes bytes = RandomBytes(rng, 200);
    {
      ByteReader reader(bytes);
      (void)clocks::Stamp::Decode(reader);
    }
    {
      ByteReader reader(bytes);
      (void)clocks::MatrixClock::Decode(reader);
    }
    {
      ByteReader reader(bytes);
      (void)clocks::VectorClock::Decode(reader);
    }
    {
      ByteReader reader(bytes);
      (void)clocks::UpdatesTracker::Decode(reader);
    }
    {
      ByteReader reader(bytes);
      (void)clocks::CausalDomainClock::DecodeState(reader);
    }
    {
      ByteReader reader(bytes);
      (void)clocks::DecodeCausalCoreState(reader);
    }
    {
      // The same bytes behind the 0xFFFF sentinel exercise the
      // per-kind core payload decoders (the first random byte lands in
      // the kind slot).
      Bytes tagged{0xFF, 0xFF};
      tagged.insert(tagged.end(), bytes.begin(), bytes.end());
      ByteReader reader(tagged);
      (void)clocks::DecodeCausalCoreState(reader);
    }
    {
      ByteReader reader(bytes);
      (void)mom::Message::Decode(reader);
    }
    (void)mom::DataFrame::Deserialize(bytes);
    (void)mom::DeserializeAck(bytes);
    (void)mom::PeekFrameType(bytes);
  }
}

TEST_P(DecodeFuzz, BitFlippedValidFramesNeverCrash) {
  Rng rng(GetParam() + 100);
  mom::DataFrame frame;
  frame.message.id = MessageId{ServerId(1), 7};
  frame.message.from = AgentId{ServerId(1), 2};
  frame.message.to = AgentId{ServerId(3), 4};
  frame.message.subject = "subject";
  frame.message.payload = Bytes{1, 2, 3, 4, 5, 6, 7, 8};
  frame.domain = DomainId(2);
  frame.stamp.entries = {{DomainServerId(0), DomainServerId(1), 42},
                         {DomainServerId(1), DomainServerId(0), 7}};
  const Bytes valid = frame.Serialize();

  for (int round = 0; round < 300; ++round) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.NextBelow(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.NextBelow(8));
    }
    auto decoded = mom::DataFrame::Deserialize(mutated);
    if (decoded.ok()) {
      // A decode that "succeeds" must at least be internally
      // re-serializable (no wild pointers or absurd sizes).
      EXPECT_LE(decoded.value().stamp.entries.size(), 1000000u);
      (void)decoded.value().Serialize();
    }
  }
}

TEST_P(DecodeFuzz, ConfigParserNeverCrashes) {
  Rng rng(GetParam() + 200);
  const char* fragments[] = {"servers", "domain", "=", "0", "1", "99999",
                             "stamp_mode", "updates", "full", "#",
                             "allow_cyclic", "true", "\n", "x", "-1",
                             "causal_core", "matrix", "hybrid", "reduced",
                             "65535", "65536", "18446744073709551615"};
  for (int round = 0; round < 200; ++round) {
    std::string text;
    const std::size_t pieces = rng.NextBelow(30);
    for (std::size_t p = 0; p < pieces; ++p) {
      text += fragments[rng.NextBelow(std::size(fragments))];
      text += rng.NextBool(0.3) ? "\n" : " ";
    }
    (void)domains::ParseMomConfig(text);
    (void)domains::ParseTrafficProfile(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz, ::testing::Values(1, 2, 3, 4));

// A well-formed data frame from S0's agent 1 to S1's agent 1 in the
// flat domain D0, carrying `stamp`.
mom::DataFrame FrameFromS0(std::uint64_t seq, clocks::Stamp stamp,
                           clocks::CausalCoreKind core) {
  mom::DataFrame frame;
  frame.message.id = MessageId{ServerId(0), seq};
  frame.message.from = AgentId{ServerId(0), 1};
  frame.message.to = AgentId{ServerId(1), 1};
  frame.domain = DomainId(0);
  frame.stamp = std::move(stamp);
  frame.core_tag = static_cast<std::uint8_t>(core);
  return frame;
}

clocks::StampEntry Entry(std::uint16_t row, std::uint16_t col,
                         std::uint64_t value) {
  return {DomainServerId(row), DomainServerId(col), value};
}

struct JunkOutcome {
  mom::ServerStats stats;
  std::vector<MessageId> acked;  // ids S1 acknowledged back to S0
  std::uint64_t delivered = 0;   // messages S1's sink agent received
};

// Bare setup over `config` (two servers): S0's endpoint is held by the
// test (a malicious or broken peer), S1 runs a real server.  The junk
// and frames from S0 must be dropped or handled while S1 keeps serving
// local traffic: five local sends are delivered afterwards.
JunkOutcome SendJunkToLiveServer(domains::MomConfig config,
                                 const std::vector<Bytes>& junk) {
  JunkOutcome outcome;
  auto deployment = domains::Deployment::Create(std::move(config)).value();
  sim::Simulator simulator;
  net::SimRuntime runtime(simulator);
  net::SimNetwork network(simulator, net::CostModel{});
  auto attacker = network.CreateEndpoint(ServerId(0)).value();
  attacker->SetReceiveHandler([&outcome](ServerId, Bytes frame) {
    auto ack = mom::DeserializeAck(frame);
    if (!ack.ok()) return;
    for (const MessageId& id : ack.value().messages) {
      outcome.acked.push_back(id);
    }
  });
  auto endpoint1 = network.CreateEndpoint(ServerId(1)).value();
  mom::InMemoryStore store;
  mom::AgentServer server(deployment, ServerId(1), endpoint1.get(), &runtime,
                          &store);
  workload::SinkAgent* sink = nullptr;
  {
    auto agent = std::make_unique<workload::SinkAgent>();
    sink = agent.get();
    server.AttachAgent(1, std::move(agent));
  }
  EXPECT_TRUE(server.Boot().ok());
  for (const Bytes& bytes : junk) {
    EXPECT_TRUE(attacker->Send(ServerId(1), bytes).ok());
  }
  simulator.RunToCompletion();

  // The server is still alive and serves local application traffic.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(server
                    .SendMessage(AgentId{ServerId(1), 1},
                                 AgentId{ServerId(1), 1}, "local")
                    .ok());
  }
  simulator.RunToCompletion();
  outcome.stats = server.stats();
  outcome.delivered = sink->received();
  server.Shutdown();
  return outcome;
}

bool Acked(const JunkOutcome& outcome, std::uint64_t seq) {
  return std::find(outcome.acked.begin(), outcome.acked.end(),
                   MessageId{ServerId(0), seq}) != outcome.acked.end();
}

TEST(GarbageFrames, LiveServerSurvivesJunkFromTheNetwork) {
  // The junk provokes (expected) warnings; keep the test log quiet.
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  using clocks::CausalCoreKind;
  std::vector<Bytes> junk;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) junk.push_back(RandomBytes(rng, 64));
  // A structurally valid data frame with an absurd domain and an empty
  // stamp.
  mom::DataFrame weird = FrameFromS0(1, {}, CausalCoreKind::kMatrix);
  weird.domain = DomainId(999);
  junk.push_back(weird.Serialize());
  // Well-formed frames in the right domain whose stamps would crash the
  // matrix core: a coordinate far outside the 2x2 clock (merged on
  // delivery), and a stamp without its own (S0, S1) send counter.
  junk.push_back(FrameFromS0(2, {{Entry(0, 1, 1), Entry(40000, 40000, 1)}},
                             CausalCoreKind::kMatrix)
                     .Serialize());
  junk.push_back(
      FrameFromS0(3, {{Entry(1, 0, 1)}}, CausalCoreKind::kMatrix).Serialize());

  const JunkOutcome outcome =
      SendJunkToLiveServer(domains::topologies::Flat(2), junk);
  EXPECT_EQ(outcome.delivered, 5u);
  EXPECT_EQ(outcome.stats.malformed_frames, 2u);
  EXPECT_FALSE(Acked(outcome, 2));
  EXPECT_FALSE(Acked(outcome, 3));
  SetLogLevel(saved_level);
}

TEST(GarbageFrames, RetiredCoreTagIsFencedAndLeftUnacked) {
  // Tag 2 belonged to the retired reduced core.  A frame carrying it --
  // here with a stamp the matrix core would otherwise deliver -- is
  // fenced like any foreign core's frame: counted, never delivered and
  // never acknowledged.
  mom::DataFrame retired =
      FrameFromS0(1, {{Entry(0, 1, 1)}}, clocks::CausalCoreKind::kMatrix);
  retired.core_tag = 2;
  const JunkOutcome outcome = SendJunkToLiveServer(
      domains::topologies::Flat(2), {retired.Serialize()});
  EXPECT_EQ(outcome.stats.core_fenced_frames, 1u);
  EXPECT_EQ(outcome.stats.malformed_frames, 0u);
  EXPECT_FALSE(Acked(outcome, 1));
  EXPECT_EQ(outcome.delivered, 5u);  // the local sends only
}

TEST(GarbageFrames, HybridCoreDropsMalformedStampsAndKeepsGossipRows) {
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  using clocks::CausalCoreKind;
  constexpr std::uint16_t kGossip = clocks::HybridBufferingCore::kHeardFlag;
  std::vector<Bytes> junk = {
      // No FIFO header at all.
      FrameFromS0(1, {}, CausalCoreKind::kHybrid).Serialize(),
      // Header naming another sender's link.
      FrameFromS0(2, {{Entry(1, 1, 1)}}, CausalCoreKind::kHybrid).Serialize(),
      // Gossip row whose origin (flag stripped) is outside the domain.
      FrameFromS0(3, {{Entry(0, 1, 1), Entry(kGossip | 40, 0, 1)}},
                  CausalCoreKind::kHybrid)
          .Serialize(),
      // Barrier entry outside the domain.
      FrameFromS0(4, {{Entry(0, 1, 1), Entry(40000, 1, 1)}},
                  CausalCoreKind::kHybrid)
          .Serialize(),
      // Legal: the FIFO header plus a gossip row in range.
      FrameFromS0(5, {{Entry(0, 1, 1), Entry(kGossip | 1, 0, 0)}},
                  CausalCoreKind::kHybrid)
          .Serialize(),
  };
  domains::MomConfig config = domains::topologies::Flat(2);
  config.causal_core = CausalCoreKind::kHybrid;
  const JunkOutcome outcome = SendJunkToLiveServer(std::move(config), junk);
  EXPECT_EQ(outcome.stats.malformed_frames, 4u);
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    EXPECT_FALSE(Acked(outcome, seq));
  }
  // The legal frame is delivered and acknowledged.
  EXPECT_TRUE(Acked(outcome, 5));
  EXPECT_EQ(outcome.delivered, 6u);
  SetLogLevel(saved_level);
}

}  // namespace
}  // namespace cmom
