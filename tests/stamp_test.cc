// Unit tests for causal stamps and their codec.
#include "clocks/stamp.h"

#include <gtest/gtest.h>

#include <sstream>

namespace cmom::clocks {
namespace {

DomainServerId D(std::uint16_t v) { return DomainServerId(v); }

Stamp SampleStamp() {
  Stamp stamp;
  stamp.entries = {{D(0), D(1), 7}, {D(1), D(1), 3}, {D(2), D(0), 123456}};
  return stamp;
}

TEST(Stamp, FindLocatesEntries) {
  const Stamp stamp = SampleStamp();
  ASSERT_NE(stamp.Find(D(1), D(1)), nullptr);
  EXPECT_EQ(stamp.Find(D(1), D(1))->value, 3u);
  EXPECT_EQ(stamp.Find(D(1), D(0)), nullptr);
  EXPECT_EQ(stamp.Find(D(9), D(9)), nullptr);
}

TEST(Stamp, CodecRoundTrip) {
  const Stamp stamp = SampleStamp();
  ByteWriter writer;
  stamp.Encode(writer);
  ByteReader reader(writer.buffer());
  auto decoded = Stamp::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), stamp);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Stamp, EmptyStampRoundTrip) {
  Stamp stamp;
  ByteWriter writer;
  stamp.Encode(writer);
  EXPECT_EQ(writer.size(), 1u);  // just the zero count
  ByteReader reader(writer.buffer());
  auto decoded = Stamp::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().entries.empty());
}

TEST(Stamp, EncodedSizeMatchesEncode) {
  const Stamp stamp = SampleStamp();
  ByteWriter writer;
  stamp.Encode(writer);
  EXPECT_EQ(stamp.EncodedSize(), writer.size());
}

TEST(Stamp, SmallEntriesEncodeCompactly) {
  // One entry with tiny values: 1 count + 1 row + 1 col + 1 value.
  Stamp stamp;
  stamp.entries = {{D(1), D(2), 5}};
  EXPECT_EQ(stamp.EncodedSize(), 4u);
}

TEST(Stamp, EncodedSizeMatchesEncodeAtVarintBoundaries) {
  const std::uint64_t values[] = {0, 127, 128, 1ull << 63, ~0ull};
  const std::uint16_t ids[] = {0, 127, 128, 0xFFFF};
  Stamp all;
  for (std::uint64_t value : values) {
    for (std::uint16_t id : ids) {
      Stamp stamp;
      stamp.entries = {{D(id), D(static_cast<std::uint16_t>(id / 2)), value}};
      all.entries.push_back(stamp.entries.front());
      ByteWriter writer;
      stamp.Encode(writer);
      EXPECT_EQ(stamp.EncodedSize(), writer.size()) << value << " " << id;
      ByteReader reader(writer.buffer());
      auto decoded = Stamp::Decode(reader);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value(), stamp);
    }
  }
  // 20 entries, then appended after existing bytes of the writer.
  ByteWriter writer;
  writer.WriteU16(0xBEEF);
  all.Encode(writer);
  EXPECT_EQ(all.EncodedSize() + 2, writer.size());
  ByteReader reader(writer.buffer());
  ASSERT_EQ(reader.ReadU16().value(), 0xBEEF);
  auto decoded = Stamp::Decode(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), all);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Stamp, DecodeTruncatedFails) {
  const Stamp stamp = SampleStamp();
  ByteWriter writer;
  stamp.Encode(writer);
  for (std::size_t cut = 1; cut < writer.size(); cut += 2) {
    Bytes truncated(writer.buffer().begin(),
                    writer.buffer().begin() + static_cast<long>(cut));
    ByteReader reader(truncated);
    EXPECT_FALSE(Stamp::Decode(reader).ok()) << "cut at " << cut;
  }
}

TEST(Stamp, DecodeRejectsWideCoordinatesAndOverflowingValues) {
  {
    ByteWriter writer;  // one entry whose row needs 33 bits
    writer.WriteVarU64(1);
    writer.WriteVarU64(1ull << 32);
    writer.WriteVarU64(0);
    writer.WriteVarU64(0);
    ByteReader reader(writer.buffer());
    auto decoded = Stamp::Decode(reader);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  {
    ByteWriter writer;  // one entry whose value overflows 64 bits
    writer.WriteVarU64(1);
    writer.WriteVarU64(0);
    writer.WriteVarU64(0);
    for (int i = 0; i < 9; ++i) writer.WriteU8(0xFF);
    writer.WriteU8(0x02);
    ByteReader reader(writer.buffer());
    auto decoded = Stamp::Decode(reader);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

TEST(Stamp, StreamsReadably) {
  Stamp stamp;
  stamp.entries = {{D(0), D(1), 7}};
  std::ostringstream out;
  out << stamp;
  EXPECT_EQ(out.str(), "{(0,1)=7}");
}

}  // namespace
}  // namespace cmom::clocks
