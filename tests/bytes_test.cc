// Unit tests for the serialization primitives (common/bytes.h) and the
// CRC helper: round trips, boundary encodings, and truncation handling.
#include "common/bytes.h"

#include <gtest/gtest.h>

#include "common/crc32.h"

namespace cmom {
namespace {

TEST(ByteWriter, FixedWidthRoundTrip) {
  ByteWriter writer;
  writer.WriteU8(0xAB);
  writer.WriteU16(0xBEEF);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFull);

  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadU8().value(), 0xAB);
  EXPECT_EQ(reader.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(reader.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteWriter, VarintBoundaries) {
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  129,  255,  16383,      16384,
                                  1u << 21,   (1ull << 35) + 7,
                                  ~0ull};
  for (std::uint64_t value : values) {
    ByteWriter writer;
    writer.WriteVarU64(value);
    ByteReader reader(writer.buffer());
    auto read = reader.ReadVarU64();
    ASSERT_TRUE(read.ok()) << value;
    EXPECT_EQ(read.value(), value);
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(ByteWriter, SmallVarintsAreOneByte) {
  for (std::uint64_t value = 0; value < 128; ++value) {
    ByteWriter writer;
    writer.WriteVarU64(value);
    EXPECT_EQ(writer.size(), 1u);
  }
}

TEST(ByteWriter, StringAndBytesRoundTrip) {
  ByteWriter writer;
  writer.WriteString("hello middleware");
  writer.WriteBytes(Bytes{1, 2, 3, 4, 5});
  writer.WriteString("");

  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadString().value(), "hello middleware");
  EXPECT_EQ(reader.ReadBytes().value(), (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(reader.ReadString().value(), "");
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteReader, TruncatedFixedWidthIsDataLoss) {
  Bytes buffer{0x01, 0x02};
  ByteReader reader(buffer);
  auto value = reader.ReadU32();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kDataLoss);
}

TEST(ByteReader, TruncatedVarintIsDataLoss) {
  Bytes buffer{0x80, 0x80};  // continuation bits with no terminator
  ByteReader reader(buffer);
  auto value = reader.ReadVarU64();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kDataLoss);
}

TEST(ByteReader, OverlongVarintIsDataLoss) {
  Bytes buffer(11, 0xFF);  // 11 continuation bytes > 64 bits
  ByteReader reader(buffer);
  auto value = reader.ReadVarU64();
  ASSERT_FALSE(value.ok());
}

TEST(ByteReader, TruncatedByteStringIsDataLoss) {
  ByteWriter writer;
  writer.WriteVarU64(100);  // claims 100 bytes follow
  writer.WriteU8(1);
  ByteReader reader(writer.buffer());
  auto bytes = reader.ReadBytes();
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), StatusCode::kDataLoss);
}

// Smallest and largest value of each varint length 1..10.
std::uint64_t MinOfLength(int length) {
  return length == 1 ? 0 : 1ull << (7 * (length - 1));
}
std::uint64_t MaxOfLength(int length) {
  return length >= 10 ? ~0ull : (1ull << (7 * length)) - 1;
}

TEST(ByteReader, DecodesEveryVarintLength) {
  for (int length = 1; length <= 10; ++length) {
    for (std::uint64_t value : {MinOfLength(length), MaxOfLength(length)}) {
      SCOPED_TRACE(value);
      ByteWriter writer;
      writer.WriteVarU64(value);
      ASSERT_EQ(writer.size(), static_cast<std::size_t>(length));
      EXPECT_EQ(ByteWriter::VarU64Size(value),
                static_cast<std::size_t>(length));
      // Framed by one-byte varints on both sides, so the fast path is
      // exercised right before and right after a slow-path read.
      ByteWriter framed;
      framed.WriteVarU64(5);
      framed.WriteVarU64(value);
      framed.WriteVarU64(127);
      ByteReader reader(framed.buffer());
      EXPECT_EQ(reader.ReadVarU64().value(), 5u);
      auto read = reader.ReadVarU64();
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(read.value(), value);
      EXPECT_EQ(reader.ReadVarU64().value(), 127u);
      EXPECT_TRUE(reader.exhausted());
      // The same through the bool form tight decode loops use.
      ByteReader loop(framed.buffer());
      std::uint64_t first = 0, middle = 0, last = 0;
      ASSERT_TRUE(loop.ReadVarU64(first) && loop.ReadVarU64(middle) &&
                  loop.ReadVarU64(last));
      EXPECT_EQ(first, 5u);
      EXPECT_EQ(middle, value);
      EXPECT_EQ(last, 127u);
      EXPECT_TRUE(loop.exhausted());
    }
  }
}

TEST(ByteReader, TruncatedVarintOfEveryLengthIsDataLoss) {
  for (int length = 1; length <= 10; ++length) {
    ByteWriter writer;
    writer.WriteVarU64(MaxOfLength(length));
    for (std::size_t cut = 0; cut < writer.size(); ++cut) {
      const Bytes prefix(writer.buffer().begin(),
                         writer.buffer().begin() + static_cast<long>(cut));
      ByteReader reader(prefix);
      auto value = reader.ReadVarU64();
      ASSERT_FALSE(value.ok()) << "length " << length << " cut " << cut;
      EXPECT_EQ(value.status().code(), StatusCode::kDataLoss);
      ByteReader loop(prefix);
      std::uint64_t out = 0;
      EXPECT_FALSE(loop.ReadVarU64(out)) << "length " << length;
    }
  }
}

TEST(ByteReader, VarintPastSixtyFourBitsIsDataLoss) {
  // Ten bytes whose last one carries bit 64 (and above).
  for (std::uint8_t last : {0x02, 0x7E, 0x7F}) {
    Bytes buffer(9, 0xFF);
    buffer.push_back(last);
    ByteReader reader(buffer);
    auto value = reader.ReadVarU64();
    ASSERT_FALSE(value.ok()) << int{last};
    EXPECT_EQ(value.status().code(), StatusCode::kDataLoss);
    ByteReader loop(buffer);
    std::uint64_t out = 0;
    EXPECT_FALSE(loop.ReadVarU64(out)) << int{last};
  }
  // A 32-bit read of a valid 64-bit varint above 2^32.
  ByteWriter writer;
  writer.WriteVarU64(1ull << 32);
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.ReadVarU32().status().code(), StatusCode::kDataLoss);
}

TEST(ByteWriter, ExtendAndPutMatchTheWriteCalls) {
  const std::uint64_t values[] = {0, 127, 128, 16384, 1ull << 63, ~0ull};
  ByteWriter by_call;
  std::size_t size = 0;
  for (std::uint64_t v : values) {
    by_call.WriteVarU64(v);
    by_call.WriteU32(static_cast<std::uint32_t>(v ^ 0xA5A5A5A5u));
    size += ByteWriter::VarU64Size(v) + 4;
  }
  ByteWriter by_pointer;
  by_pointer.WriteU8(0x42);
  std::uint8_t* p = by_pointer.Extend(size);
  for (std::uint64_t v : values) {
    p = ByteWriter::PutVarU64(p, v);
    p = ByteWriter::PutU32(p, static_cast<std::uint32_t>(v ^ 0xA5A5A5A5u));
  }
  EXPECT_EQ(p, by_pointer.buffer().data() + by_pointer.size());
  EXPECT_EQ(Bytes(by_pointer.buffer().begin() + 1, by_pointer.buffer().end()),
            by_call.buffer());

  ByteWriter run;
  run.WriteVarU64s(values);
  ByteWriter one_by_one;
  for (std::uint64_t v : values) one_by_one.WriteVarU64(v);
  EXPECT_EQ(run.buffer(), one_by_one.buffer());
}

TEST(Crc32, KnownVector) {
  const Bytes data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data), 0xCBF43926u);  // the standard check value
}

TEST(Crc32, DetectsBitFlip) {
  Bytes data{'c', 'a', 'u', 's', 'a', 'l'};
  const std::uint32_t original = Crc32(data);
  data[2] ^= 0x01;
  EXPECT_NE(Crc32(data), original);
}

}  // namespace
}  // namespace cmom
