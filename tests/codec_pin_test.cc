// Byte-identity pin for the stamp, clock-image and data-frame codecs.
//
// A seeded Flat(32)-sized domain runs under each causal core (and both
// matrix stamp modes): random sends, per-link FIFO transit with random
// interleaving across links, and a receiver hold-back.  Every stamp,
// every data frame carrying one, and the durable EncodeState image of
// every core touched by a send or delivery are folded into CRC32
// digests.  The expected digests were recorded from the straightforward
// byte-at-a-time encoders; any encoder rewrite must reproduce them
// exactly, because both the wire and the store depend on the bytes.
//
// Along the way each stamp must report EncodedSize() equal to its
// encoding and decode back to itself, and each image must decode to a
// core equal to the one that wrote it.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "clocks/causal_core.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "mom/message.h"

namespace cmom {
namespace {

using clocks::CausalCore;
using clocks::CausalCoreKind;
using clocks::CheckResult;
using clocks::Stamp;
using clocks::StampMode;

constexpr std::size_t kServers = 32;
constexpr std::size_t kMessages = 1500;

// Order-sensitive fold of one encoding into a running digest.
struct Digest {
  std::uint32_t value = 0;
  std::uint64_t bytes = 0;
  std::uint64_t items = 0;

  void Add(std::span<const std::uint8_t> data) {
    ByteWriter link;
    link.WriteU32(value);
    link.WriteU32(Crc32(data));
    link.WriteU32(static_cast<std::uint32_t>(data.size()));
    value = Crc32(link.buffer());
    bytes += data.size();
    ++items;
  }
};

struct PinRun {
  Digest stamps;
  Digest frames;
  Digest images;
};

struct InFlight {
  std::uint16_t src;
  Stamp stamp;
};

void ImageOf(const CausalCore& core, Digest& digest) {
  ByteWriter out;
  core.EncodeState(out);
  digest.Add(out.buffer());
  ByteReader reader(out.buffer());
  auto decoded = clocks::DecodeCausalCoreState(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(reader.exhausted());
  EXPECT_TRUE(decoded.value()->Equals(core));
}

PinRun RunFlat32(CausalCoreKind kind, StampMode mode, std::uint64_t seed) {
  PinRun run;
  std::vector<std::unique_ptr<CausalCore>> cores;
  for (std::uint16_t i = 0; i < kServers; ++i) {
    cores.push_back(clocks::MakeCausalCore(kind, DomainServerId(i), kServers,
                                           mode));
  }
  std::vector<std::deque<InFlight>> links(kServers * kServers);
  std::vector<std::deque<InFlight>> holdback(kServers);
  std::vector<std::uint64_t> seq(kServers, 0);
  Rng rng(seed);
  std::size_t sent = 0;
  std::size_t in_flight = 0;
  std::size_t delivered = 0;

  auto deliver = [&](std::size_t dst, const InFlight& m) {
    cores[dst]->OnDeliver(DomainServerId(m.src), m.stamp);
    ++delivered;
    ImageOf(*cores[dst], run.images);
  };
  auto drain = [&](std::size_t dst) {
    for (bool progressed = true; progressed;) {
      progressed = false;
      auto& queue = holdback[dst];
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        const CheckResult verdict =
            cores[dst]->CheckReceive(DomainServerId(it->src), it->stamp);
        if (verdict == CheckResult::kHold) continue;
        EXPECT_EQ(verdict, CheckResult::kDeliver);
        deliver(dst, *it);
        queue.erase(it);
        progressed = true;
        break;
      }
    }
  };

  while (delivered < kMessages) {
    const bool can_send = sent < kMessages && in_flight < 64;
    if (can_send && (in_flight == 0 || rng.NextBelow(2) == 0)) {
      // A quarter of the traffic rides one hot pair, so its link
      // counters and every tracker state counter cross the one-byte
      // varint boundary; the rest is uniform over the domain.
      std::uint16_t src;
      std::uint16_t dst;
      if (rng.NextBelow(4) == 0) {
        src = static_cast<std::uint16_t>(rng.NextBelow(2));
        dst = static_cast<std::uint16_t>(1 - src);
      } else {
        src = static_cast<std::uint16_t>(rng.NextBelow(kServers));
        dst = static_cast<std::uint16_t>(rng.NextBelow(kServers - 1));
        if (dst >= src) ++dst;
      }
      InFlight m{src, cores[src]->PrepareSend(DomainServerId(dst))};
      ByteWriter encoded;
      m.stamp.Encode(encoded);
      EXPECT_EQ(m.stamp.EncodedSize(), encoded.size());
      run.stamps.Add(encoded.buffer());
      ByteReader reader(encoded.buffer());
      auto decoded = Stamp::Decode(reader);
      EXPECT_TRUE(decoded.ok() && decoded.value() == m.stamp);

      mom::DataFrame frame;
      frame.message.id = MessageId{ServerId(src), ++seq[src]};
      frame.message.from = AgentId{ServerId(src), 1};
      frame.message.to = AgentId{ServerId(dst), 1};
      frame.message.subject = "pin";
      frame.message.payload = Bytes(seq[src] % 40, 0x5A);
      frame.domain = DomainId(7);
      frame.stamp = m.stamp;
      frame.epoch = 1;
      frame.incarnation = 1;
      frame.core_tag = static_cast<std::uint8_t>(kind);
      const Bytes wire = frame.Serialize();
      run.frames.Add(wire);

      ImageOf(*cores[src], run.images);
      links[src * kServers + dst].push_back(std::move(m));
      ++in_flight;
      ++sent;
      continue;
    }
    // Receive the head of a random non-empty link.
    std::size_t pick = rng.NextBelow(in_flight);
    for (std::size_t link = 0; link < links.size(); ++link) {
      if (pick >= links[link].size()) {
        pick -= links[link].size();
        continue;
      }
      InFlight m = std::move(links[link].front());
      links[link].pop_front();
      --in_flight;
      const std::size_t dst = link % kServers;
      const CheckResult verdict =
          cores[dst]->CheckReceive(DomainServerId(m.src), m.stamp);
      if (verdict == CheckResult::kDeliver) {
        deliver(dst, m);
        drain(dst);
      } else {
        EXPECT_EQ(verdict, CheckResult::kHold);
        holdback[dst].push_back(std::move(m));
      }
      break;
    }
  }
  for (const auto& queue : holdback) EXPECT_TRUE(queue.empty());
  return run;
}

struct Expected {
  const char* name;
  CausalCoreKind kind;
  StampMode mode;
  std::uint32_t stamps;
  std::uint64_t stamp_bytes;
  std::uint32_t frames;
  std::uint64_t frame_bytes;
  std::uint32_t images;
  std::uint64_t image_bytes;
};

TEST(CodecPin, Flat32StampsFramesAndImagesAreByteIdentical) {
  const Expected expected[] = {
      {"matrix_full", CausalCoreKind::kMatrix, StampMode::kFullMatrix,
       0xDF7A579B, 4611631, 0xB7A54A2E, 4667607, 0x08E73DAD, 19356836},
      {"matrix_updates", CausalCoreKind::kMatrix, StampMode::kUpdates,
       0xEBBA8949, 829587, 0xBB3DBE36, 885563, 0x37D02154, 19383427},
      {"hybrid", CausalCoreKind::kHybrid, StampMode::kUpdates,
       0x675B0C8A, 1204201, 0x371AFEAD, 1261677, 0xD9BC9A39, 7909803},
  };
  for (const Expected& want : expected) {
    SCOPED_TRACE(want.name);
    const PinRun run = RunFlat32(want.kind, want.mode, /*seed=*/32);
    EXPECT_EQ(run.stamps.items, kMessages);
    EXPECT_EQ(run.frames.items, kMessages);
    EXPECT_EQ(run.images.items, 2 * kMessages);
    EXPECT_EQ(run.stamps.value, want.stamps);
    EXPECT_EQ(run.stamps.bytes, want.stamp_bytes);
    EXPECT_EQ(run.frames.value, want.frames);
    EXPECT_EQ(run.frames.bytes, want.frame_bytes);
    EXPECT_EQ(run.images.value, want.images);
    EXPECT_EQ(run.images.bytes, want.image_bytes);
  }
}

}  // namespace
}  // namespace cmom
