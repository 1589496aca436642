// Tests for the in-memory store (transactional staging semantics).
#include "mom/store.h"

#include <gtest/gtest.h>

namespace cmom::mom {
namespace {

Bytes B(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

TEST(InMemoryStore, GetMissingReturnsNullopt) {
  InMemoryStore store;
  EXPECT_FALSE(store.Get("nope").has_value());
}

TEST(InMemoryStore, ReadYourWritesBeforeCommit) {
  InMemoryStore store;
  store.Put("k", B({1, 2}));
  ASSERT_TRUE(store.Get("k").has_value());
  EXPECT_EQ(*store.Get("k"), B({1, 2}));
}

TEST(InMemoryStore, RollbackDiscardsStaged) {
  InMemoryStore store;
  store.Put("k", B({1}));
  ASSERT_TRUE(store.Commit().ok());
  store.Put("k", B({2}));
  store.Put("other", B({3}));
  store.Rollback();
  EXPECT_EQ(*store.Get("k"), B({1}));
  EXPECT_FALSE(store.Get("other").has_value());
}

TEST(InMemoryStore, CommitAppliesAtomically) {
  InMemoryStore store;
  store.Put("a", B({1}));
  store.Put("b", B({2}));
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(*store.Get("a"), B({1}));
  EXPECT_EQ(*store.Get("b"), B({2}));
}

TEST(InMemoryStore, DeleteStagedAndCommitted) {
  InMemoryStore store;
  store.Put("k", B({1}));
  ASSERT_TRUE(store.Commit().ok());
  store.Delete("k");
  EXPECT_FALSE(store.Get("k").has_value());  // staged delete visible
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_FALSE(store.Get("k").has_value());
}

TEST(InMemoryStore, LastStagedOpWins) {
  InMemoryStore store;
  store.Put("k", B({1}));
  store.Put("k", B({2}));
  store.Delete("k");
  store.Put("k", B({3}));
  EXPECT_EQ(*store.Get("k"), B({3}));
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(*store.Get("k"), B({3}));
}

TEST(InMemoryStore, KeysWithPrefix) {
  InMemoryStore store;
  store.Put("agent/1", B({1}));
  store.Put("agent/2", B({1}));
  store.Put("clk/0000", B({1}));
  ASSERT_TRUE(store.Commit().ok());
  store.Put("agent/3", B({1}));     // staged-only key
  store.Delete("agent/1");          // staged delete
  const auto keys = store.Keys("agent/");
  EXPECT_EQ(keys, (std::vector<std::string>{"agent/2", "agent/3"}));
  EXPECT_EQ(store.Keys("").size(), 3u);
}

TEST(InMemoryStore, ByteAccounting) {
  InMemoryStore store;
  store.Put("abc", B({1, 2, 3, 4}));  // 3 key + 4 value
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(store.last_commit_bytes(), 7u);
  EXPECT_EQ(store.total_bytes_written(), 7u);
  store.Put("x", B({1}));  // 1 + 1
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(store.last_commit_bytes(), 2u);
  EXPECT_EQ(store.total_bytes_written(), 9u);
  EXPECT_EQ(store.commit_count(), 2u);
}

TEST(InMemoryStore, EmptyCommitIsCheap) {
  InMemoryStore store;
  ASSERT_TRUE(store.Commit().ok());
  EXPECT_EQ(store.last_commit_bytes(), 0u);
}

}  // namespace
}  // namespace cmom::mom
