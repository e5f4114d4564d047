// Edge-case tests for the storage engines: boundary value sizes, key
// ordering at the encoding level, cache-pressure behaviour, FASTER region
// transitions, B+tree page boundary conditions, and Lethe-vs-LSM contrast.
#include <gtest/gtest.h>

#include <thread>

#include "src/common/coding.h"
#include "src/common/file_util.h"
#include "src/stores/btree/btree_store.h"
#include "src/stores/faster/faster_store.h"
#include "src/stores/kvstore.h"
#include "src/stores/lsm/lsm_store.h"
#include "src/streams/state_access.h"

namespace gadget {
namespace {

// ------------------------------------------------------- value-size sweeps

class ValueSizeTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(ValueSizeTest, RoundTripsExactBytes) {
  const auto& [engine, size] = GetParam();
  ScopedTempDir dir;
  StoreOptions sopts;
  sopts.engine = engine;
  sopts.dir = dir.path() + "/db";
  auto store = OpenStore(sopts);
  ASSERT_TRUE(store.ok());
  std::string value;
  value.reserve(static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    value.push_back(static_cast<char>(i * 131 + 7));
  }
  ASSERT_TRUE((*store)->Put("k", value).ok());
  std::string got;
  ASSERT_TRUE((*store)->Get("k", &got).ok());
  EXPECT_EQ(got, value);
  // Survive a flush cycle too.
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Get("k", &got).ok());
  EXPECT_EQ(got, value);
  ASSERT_TRUE((*store)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ValueSizeTest,
    ::testing::Combine(::testing::Values("lsm", "faster", "btree"),
                       ::testing::Values(0, 1, 255, 1024, 4096, 4097, 65536, 1'000'000)),
    [](const auto& spec) {
      return std::string(std::get<0>(spec.param)) + "_" +
             std::to_string(std::get<1>(spec.param)) + "b";
    });

// -------------------------------------------------------------- key quirks

TEST(KeyEdgeTest, BinaryKeysWithEmbeddedZeros) {
  for (const char* engine : {"lsm", "faster", "btree"}) {
    ScopedTempDir dir;
    auto store = OpenStore({.engine = engine, .dir = dir.path() + "/db"});
    ASSERT_TRUE(store.ok()) << engine;
    std::string k1("\x00\x01\x00", 3);
    std::string k2("\x00\x01\x00\x00", 4);  // prefix of nothing: distinct key
    ASSERT_TRUE((*store)->Put(k1, "one").ok());
    ASSERT_TRUE((*store)->Put(k2, "two").ok());
    std::string value;
    ASSERT_TRUE((*store)->Get(k1, &value).ok()) << engine;
    EXPECT_EQ(value, "one");
    ASSERT_TRUE((*store)->Get(k2, &value).ok()) << engine;
    EXPECT_EQ(value, "two");
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST(KeyEdgeTest, StateKeyEncodingAgreesWithStoreOrdering) {
  // Writes via encoded StateKeys and checks extremes round-trip.
  ScopedTempDir dir;
  auto store = OpenStore({.engine = "btree", .dir = dir.path() + "/db"});
  ASSERT_TRUE(store.ok());
  StateKey keys[] = {{0, 0}, {0, ~0ull}, {~0ull, 0}, {~0ull, ~0ull}, {1ull << 63, 42}};
  for (const StateKey& k : keys) {
    ASSERT_TRUE((*store)->Put(EncodeStateKey(k), std::to_string(k.hi ^ k.lo)).ok());
  }
  std::string value;
  for (const StateKey& k : keys) {
    ASSERT_TRUE((*store)->Get(EncodeStateKey(k), &value).ok());
    EXPECT_EQ(value, std::to_string(k.hi ^ k.lo));
  }
  ASSERT_TRUE((*store)->Close().ok());
}

// ----------------------------------------------------------- cache pressure

TEST(CachePressureTest, LsmReadsWorkWithTinyCache) {
  ScopedTempDir dir;
  LsmOptions opts;
  opts.write_buffer_size = 16 * 1024;
  // Pathological pool: ~1 block resident.
  auto pool = std::make_shared<BufferPool>(
      BufferPoolOptions{.capacity_bytes = 4 * 1024, .shards = 1});
  auto store = LsmStore::Open(dir.path(), opts, pool);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  std::string value;
  for (int i = 0; i < 2000; i += 7) {
    ASSERT_TRUE((*store)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  StoreStats stats = (*store)->stats();
  EXPECT_GT(stats.cache_misses, 0u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(CachePressureTest, BTreeEvictsDirtyPagesCorrectly) {
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 512;
  // 4-page pool: every leaf walk evicts; dirty pages must survive via the
  // dirty table.
  auto pool = std::make_shared<BufferPool>(
      BufferPoolOptions{.capacity_bytes = 2 * 1024, .shards = 1});
  auto store = BTreeStore::Open(dir.path(), opts, pool);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  std::string value;
  for (int i = 0; i < 2000; i += 13) {
    ASSERT_TRUE((*store)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  auto* btree = static_cast<BTreeStore*>(store->get());
  ASSERT_TRUE(btree->CheckInvariants().ok());
  ASSERT_TRUE((*store)->Close().ok());
}

// ------------------------------------------------- B+tree corrupt page file

std::string BTreeFile(const ScopedTempDir& dir) { return dir.path() + "/btree.db"; }

TEST(BTreeEdgeTest, CyclicOverflowChainIsCorruption) {
  ScopedTempDir dir;
  constexpr size_t kPage = 4096;
  constexpr size_t kChunk = kPage - 8;  // u32 next | u32 chunk_len | chunk
  // 5000 bytes: a two-page chain.
  std::string value(5000, '\0');
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>(i * 131 + 7);
  }
  {
    auto store = BTreeStore::Open(dir.path(), BTreeOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("big", value).ok());
    ASSERT_TRUE((*store)->Put("small", "s").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  std::string file;
  ASSERT_TRUE(ReadFileToString(BTreeFile(dir), &file).ok());
  size_t head = 0;
  for (size_t p = 1; (p + 1) * kPage <= file.size(); ++p) {
    if (file.compare(p * kPage + 8, kChunk, value, 0, kChunk) == 0) {
      head = p;
    }
  }
  ASSERT_NE(head, 0u) << "chain head not found";
  const uint32_t second = DecodeFixed32(file.data() + head * kPage);
  ASSERT_NE(second, 0u);
  ASSERT_EQ(DecodeFixed32(file.data() + static_cast<size_t>(second) * kPage), 0u);
  // Point the tail back at the head: the chain now cycles.
  std::string next;
  PutFixed32(&next, static_cast<uint32_t>(head));
  file.replace(static_cast<size_t>(second) * kPage, 4, next);
  ASSERT_TRUE(WriteStringToFile(BTreeFile(dir), file).ok());

  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store.ok());
  std::string got;
  Status s = (*store)->Get("big", &got);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  s = (*store)->ReadModifyWrite("big", "x");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  s = (*store)->Delete("big");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_TRUE((*store)->Get("small", &got).ok());
  EXPECT_EQ(got, "s");
  EXPECT_TRUE(static_cast<BTreeStore*>(store->get())->CheckInvariants().IsCorruption());
}

TEST(BTreeEdgeTest, UnreadableFreeListHeadIsReportedNotSkipped) {
  ScopedTempDir dir;
  {
    auto store = BTreeStore::Open(dir.path(), BTreeOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("big", std::string(5000, 'b')).ok());
    ASSERT_TRUE((*store)->Delete("big").ok());  // its two pages go on the free list
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Meta page: magic | root | next_page | free_head | height. Point the free
  // list past the end of the file.
  std::string file;
  ASSERT_TRUE(ReadFileToString(BTreeFile(dir), &file).ok());
  ASSERT_NE(DecodeFixed32(file.data() + 12), 0u);
  std::string head;
  PutFixed32(&head, 999);
  file.replace(12, 4, head);
  ASSERT_TRUE(WriteStringToFile(BTreeFile(dir), file).ok());

  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store.ok());
  const uint64_t pages = static_cast<BTreeStore*>(store->get())->num_pages();
  // Allocating a page must fail loudly, not leak the list and grow the file.
  Status s = (*store)->Put("big", std::string(5000, 'c'));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(static_cast<BTreeStore*>(store->get())->num_pages(), pages);
}

// --------------------------------------------------------- FASTER specifics

TEST(FasterEdgeTest, RmwReadsBaseFromDiskRegion) {
  ScopedTempDir dir;
  FasterOptions opts;
  opts.log_memory_bytes = 8 * 1024;  // tiny window: bases evict quickly
  auto store = FasterStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("acc", "BASE-").ok());
  // Push the base record out of memory with churn.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*store)->Put("churn" + std::to_string(i), std::string(64, 'c')).ok());
  }
  auto* faster = static_cast<FasterStore*>(store->get());
  EXPECT_GT(faster->head_address(), 0u);
  ASSERT_TRUE((*store)->ReadModifyWrite("acc", "tail").ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("acc", &value).ok());
  EXPECT_EQ(value, "BASE-tail");
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(FasterEdgeTest, DeleteThenRecoverDropsKey) {
  ScopedTempDir dir;
  FasterOptions opts;
  opts.log_memory_bytes = 8 * 1024;
  {
    auto store = FasterStore::Open(dir.path(), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE((*store)->Put("k" + std::to_string(i), "v").ok());
    }
    for (int i = 0; i < 500; i += 2) {
      ASSERT_TRUE((*store)->Delete("k" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = FasterStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  std::string value;
  EXPECT_TRUE((*store)->Get("k0", &value).IsNotFound());
  ASSERT_TRUE((*store)->Get("k1", &value).ok());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(FasterEdgeTest, TruncatesTornLogTail) {
  ScopedTempDir dir;
  {
    auto store = FasterStore::Open(dir.path(), FasterOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("good", "value").ok());
    ASSERT_TRUE((*store)->Put("torn", "casualty").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Chop bytes off the log to simulate a torn write.
  std::string log;
  ASSERT_TRUE(ReadFileToString(dir.path() + "/hybrid.log", &log).ok());
  log.resize(log.size() - 5);
  ASSERT_TRUE(WriteStringToFile(dir.path() + "/hybrid.log", log).ok());

  auto store = FasterStore::Open(dir.path(), FasterOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::string value;
  ASSERT_TRUE((*store)->Get("good", &value).ok());
  EXPECT_EQ(value, "value");
  EXPECT_TRUE((*store)->Get("torn", &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

// ------------------------------------------------------------ Lethe vs LSM

TEST(LetheContrastTest, NamesAndConfigDiffer) {
  ScopedTempDir dir;
  auto lsm = OpenStore({.engine = "lsm", .dir = dir.path() + "/a"});
  auto lethe = OpenStore({.engine = "lethe", .dir = dir.path() + "/b"});
  ASSERT_TRUE(lsm.ok() && lethe.ok());
  EXPECT_EQ((*lsm)->name(), "lsm");
  EXPECT_EQ((*lethe)->name(), "lethe");
  EXPECT_TRUE((*lsm)->supports_merge());
  EXPECT_TRUE((*lethe)->supports_merge());
  ASSERT_TRUE((*lsm)->Close().ok());
  ASSERT_TRUE((*lethe)->Close().ok());
}

// ------------------------------------------------------------- concurrency

TEST(ConcurrencyEdgeTest, MixedOpsFourThreads) {
  ScopedTempDir dir;
  auto store = OpenStore({.engine = "lsm", .dir = dir.path() + "/db"});
  ASSERT_TRUE(store.ok());
  auto worker = [&](int id) {
    for (int i = 0; i < 1500; ++i) {
      std::string key = "t" + std::to_string(id) + "-" + std::to_string(i % 50);
      switch (i % 4) {
        case 0:
          ASSERT_TRUE(store->get()->Put(key, "v").ok());
          break;
        case 1: {
          std::string value;
          Status s = store->get()->Get(key, &value);
          ASSERT_TRUE(s.ok() || s.IsNotFound());
          break;
        }
        case 2:
          ASSERT_TRUE(store->get()->Merge(key, "+").ok());
          break;
        case 3:
          ASSERT_TRUE(store->get()->Delete(key).ok());
          break;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(worker, t);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_TRUE((*store)->Close().ok());
}

}  // namespace
}  // namespace gadget
