// Engine-level tests shared across all four KV stores plus engine-specific
// behaviour (LSM compaction & reopen, FASTER regions, B+tree invariants) and
// randomized differential tests against the in-memory reference store.
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/stores/btree/btree_store.h"
#include "src/stores/faster/faster_store.h"
#include "src/stores/kvstore.h"
#include "src/stores/lsm/lsm_store.h"
#include "src/stores/memstore.h"

namespace gadget {
namespace {

// -------------------------------------------------- cross-engine contract

class StoreContractTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScopedTempDir>();
    StoreOptions opts;
    opts.engine = GetParam();
    opts.dir = dir_->path() + "/db";
    auto store = OpenStore(opts);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
  }

  void TearDown() override {
    if (store_ != nullptr) {
      EXPECT_TRUE(store_->Close().ok());
    }
  }

  std::unique_ptr<ScopedTempDir> dir_;
  std::unique_ptr<KVStore> store_;
};

TEST_P(StoreContractTest, PutGetDelete) {
  ASSERT_TRUE(store_->Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE(store_->Delete("k").ok());
  EXPECT_TRUE(store_->Get("k", &value).IsNotFound());
}

TEST_P(StoreContractTest, GetMissingIsNotFound) {
  std::string value;
  EXPECT_TRUE(store_->Get("nope", &value).IsNotFound());
}

TEST_P(StoreContractTest, OverwriteReplacesValue) {
  ASSERT_TRUE(store_->Put("k", "old").ok());
  ASSERT_TRUE(store_->Put("k", "new and longer").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "new and longer");
}

TEST_P(StoreContractTest, DeleteMissingKeyIsHarmless) {
  EXPECT_TRUE(store_->Delete("ghost").ok());
}

TEST_P(StoreContractTest, ReadModifyWriteAppends) {
  ASSERT_TRUE(store_->ReadModifyWrite("k", "a").ok());
  ASSERT_TRUE(store_->ReadModifyWrite("k", "b").ok());
  ASSERT_TRUE(store_->ReadModifyWrite("k", "c").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "abc");
}

TEST_P(StoreContractTest, MergeOrRmwEquivalence) {
  // Merge where supported, RMW otherwise — same observable semantics (§5.5).
  auto update = [&](std::string_view key, std::string_view op) {
    if (store_->supports_merge()) {
      return store_->Merge(key, op);
    }
    return store_->ReadModifyWrite(key, op);
  };
  ASSERT_TRUE(store_->Put("k", "base|").ok());
  ASSERT_TRUE(update("k", "m1|").ok());
  ASSERT_TRUE(update("k", "m2").ok());
  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "base|m1|m2");
}

TEST_P(StoreContractTest, ManyKeysSurviveFlush) {
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store_->Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store_->Flush().ok());
  std::string value;
  for (int i = 0; i < n; i += 13) {
    ASSERT_TRUE(store_->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
}

TEST_P(StoreContractTest, LargeValues) {
  std::string big(300000, 'X');
  ASSERT_TRUE(store_->Put("big", big).ok());
  std::string value;
  ASSERT_TRUE(store_->Get("big", &value).ok());
  EXPECT_EQ(value, big);
}

TEST_P(StoreContractTest, EmptyValue) {
  ASSERT_TRUE(store_->Put("k", "").ok());
  std::string value = "sentinel";
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "");
}

TEST_P(StoreContractTest, StatsCountOperations) {
  ASSERT_TRUE(store_->Put("a", "1").ok());
  std::string value;
  // status intentionally ignored: this test asserts on the counters, not
  // the outcomes.
  (void)store_->Get("a", &value);
  (void)store_->Delete("a");
  StoreStats stats = store_->stats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.gets, 1u);
  EXPECT_EQ(stats.deletes, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, StoreContractTest,
                         ::testing::Values("mem", "lsm", "lethe", "faster", "btree"),
                         [](const auto& spec) { return std::string(spec.param); });

// -------------------------------------------------- differential (property)

class StoreDifferentialTest : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(StoreDifferentialTest, MatchesReferenceUnderRandomOps) {
  const auto& [engine, seed] = GetParam();
  ScopedTempDir dir;
  auto store_or = OpenStore({.engine = engine, .dir = dir.path() + "/db"});
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  std::map<std::string, std::string> reference;

  Pcg32 rng(static_cast<uint64_t>(seed));
  const int kOps = 20000;
  const int kKeySpace = 200;
  for (int i = 0; i < kOps; ++i) {
    std::string key = "key" + std::to_string(rng.NextBounded(kKeySpace));
    uint32_t dice = rng.NextBounded(100);
    if (dice < 35) {  // put
      std::string value = "v" + std::to_string(rng.NextU32() % 100000);
      ASSERT_TRUE(store->Put(key, value).ok());
      reference[key] = value;
    } else if (dice < 60) {  // merge/rmw append
      std::string op = "+" + std::to_string(rng.NextU32() % 100);
      if (store->supports_merge()) {
        ASSERT_TRUE(store->Merge(key, op).ok());
      } else {
        ASSERT_TRUE(store->ReadModifyWrite(key, op).ok());
      }
      reference[key] += op;
    } else if (dice < 75) {  // delete
      ASSERT_TRUE(store->Delete(key).ok());
      reference.erase(key);
    } else {  // get
      std::string value;
      Status s = store->Get(key, &value);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_TRUE(s.IsNotFound()) << "key " << key << " op " << i << ": " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << "key " << key << " op " << i << ": " << s.ToString();
        EXPECT_EQ(value, it->second) << "key " << key << " op " << i;
      }
    }
  }
  // Final sweep: every key must match.
  for (int k = 0; k < kKeySpace; ++k) {
    std::string key = "key" + std::to_string(k);
    std::string value;
    Status s = store->Get(key, &value);
    auto it = reference.find(key);
    if (it == reference.end()) {
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(value, it->second) << key;
    }
  }
  ASSERT_TRUE(store->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(
    EnginesBySeeds, StoreDifferentialTest,
    ::testing::Combine(::testing::Values("lsm", "lethe", "faster", "btree"),
                       ::testing::Values(1, 2, 3)),
    [](const auto& spec) {
      return std::string(std::get<0>(spec.param)) + "_seed" +
             std::to_string(std::get<1>(spec.param));
    });

// ------------------------------------------------------------ LSM specifics

LsmOptions SmallLsmOptions() {
  LsmOptions opts;
  opts.write_buffer_size = 64 * 1024;  // force frequent flushes
  opts.max_bytes_level_base = 256 * 1024;
  opts.target_file_size = 64 * 1024;
  return opts;
}

TEST(LsmStoreTest, CompactionKeepsDataCorrect) {
  ScopedTempDir dir;
  auto store_or = LsmStore::Open(dir.path(), SmallLsmOptions());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  const int n = 5000;
  std::string value(100, 'v');
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store->Put("key" + std::to_string(i % 500), value + std::to_string(i)).ok());
  }
  // Multiple flushes must have happened and compaction must have run.
  StoreStats stats = store->stats();
  EXPECT_GT(stats.flushes, 2u);
  for (int k = 0; k < 500; ++k) {
    std::string got;
    ASSERT_TRUE(store->Get("key" + std::to_string(k), &got).ok()) << k;
  }
  ASSERT_TRUE(store->Close().ok());
}

TEST(LsmStoreTest, ReopenRecoversData) {
  ScopedTempDir dir;
  {
    auto store = LsmStore::Open(dir.path(), SmallLsmOptions());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Delete("key7").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = LsmStore::Open(dir.path(), SmallLsmOptions());
  ASSERT_TRUE(store.ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("key42", &value).ok());
  EXPECT_EQ(value, "v42");
  EXPECT_TRUE((*store)->Get("key7", &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmStoreTest, ReopenWithoutCleanCloseReplaysWal) {
  ScopedTempDir dir;
  {
    LsmOptions opts;  // default large buffer: nothing flushes
    auto store = LsmStore::Open(dir.path(), opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("durable", "yes").ok());
    // Simulate a crash: leak the store without Close() by only flushing the
    // WAL (Close would flush the memtable). We cannot literally crash here,
    // so reopen after a Close that flushed nothing is approximated by
    // closing and verifying the data comes back either via WAL or SSTable.
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = LsmStore::Open(dir.path(), LsmOptions());
  ASSERT_TRUE(store.ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("durable", &value).ok());
  EXPECT_EQ(value, "yes");
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(LsmStoreTest, MergeSurvivesFlushAndCompaction) {
  ScopedTempDir dir;
  LsmOptions opts = SmallLsmOptions();
  auto store_or = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  ASSERT_TRUE(store->Put("acc", "base").ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store->Merge("acc", ",“" + std::to_string(i)).ok());
    // Interleave unrelated churn to force flushes between operands.
    ASSERT_TRUE(store->Put("churn" + std::to_string(i % 97), std::string(500, 'c')).ok());
  }
  std::string value;
  ASSERT_TRUE(store->Get("acc", &value).ok());
  EXPECT_TRUE(value.starts_with("base"));
  EXPECT_TRUE(value.ends_with("999"));
  ASSERT_TRUE(store->Close().ok());
}

TEST(LsmStoreTest, LetheReclaimsTombstonesFaster) {
  // Delete-aware mode must compact tombstone-laden files even when size
  // triggers would not fire.
  ScopedTempDir dir;
  LsmOptions opts = SmallLsmOptions();
  opts.delete_aware = true;
  opts.delete_persistence_ms = 50;
  auto store_or = LsmStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or;
  auto* lsm = static_cast<LsmStore*>(store.get());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Put("k" + std::to_string(i), std::string(100, 'v')).ok());
  }
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(store->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  uint64_t compactions_before = store->stats().compactions;
  // Wait past the delete-persistence threshold: the background thread must
  // pick up the tombstone-laden files on its own.
  for (int spin = 0; spin < 100 && store->stats().compactions == compactions_before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(store->stats().compactions, compactions_before);
  (void)lsm;
  ASSERT_TRUE(store->Close().ok());
}

// --------------------------------------------------------- FASTER specifics

TEST(FasterStoreTest, InPlaceUpdatesInMutableRegion) {
  ScopedTempDir dir;
  FasterOptions opts;
  auto store_or = FasterStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto* faster = static_cast<FasterStore*>(store_or->get());
  ASSERT_TRUE((*store_or)->Put("k", "12345678").ok());
  uint64_t tail_before = faster->tail_address();
  ASSERT_TRUE((*store_or)->Put("k", "abcdefgh").ok());  // same size -> in place
  EXPECT_EQ(faster->tail_address(), tail_before);
  EXPECT_EQ(faster->in_place_updates(), 1u);
  std::string value;
  ASSERT_TRUE((*store_or)->Get("k", &value).ok());
  EXPECT_EQ(value, "abcdefgh");
  // Different size -> append.
  ASSERT_TRUE((*store_or)->Put("k", "longer value").ok());
  EXPECT_GT(faster->tail_address(), tail_before);
  ASSERT_TRUE((*store_or)->Close().ok());
}

TEST(FasterStoreTest, EvictionToDiskKeepsReadsWorking) {
  ScopedTempDir dir;
  FasterOptions opts;
  opts.log_memory_bytes = 64 * 1024;  // tiny memory window
  auto store_or = FasterStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto* faster = static_cast<FasterStore*>(store_or->get());
  const int n = 6000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE((*store_or)->Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  EXPECT_GT(faster->head_address(), 0u);  // eviction happened
  std::string value;
  for (int i = 0; i < n; i += 41) {  // old keys now live on disk
    ASSERT_TRUE((*store_or)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
  ASSERT_TRUE((*store_or)->Close().ok());
}

TEST(FasterStoreTest, RecoveryRebuildsIndex) {
  ScopedTempDir dir;
  {
    auto store = FasterStore::Open(dir.path(), FasterOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Put("b", "2").ok());
    ASSERT_TRUE((*store)->Put("a", "3").ok());
    ASSERT_TRUE((*store)->Delete("b").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = FasterStore::Open(dir.path(), FasterOptions());
  ASSERT_TRUE(store.ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("a", &value).ok());
  EXPECT_EQ(value, "3");
  EXPECT_TRUE((*store)->Get("b", &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

// --------------------------------------------------------- B+tree specifics

TEST(BTreeStoreTest, SplitsMaintainInvariants) {
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 512;  // tiny pages force deep trees
  auto store_or = BTreeStore::Open(dir.path(), opts);
  ASSERT_TRUE(store_or.ok());
  auto* btree = static_cast<BTreeStore*>(store_or->get());
  const int n = 3000;
  Pcg32 rng(5);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  // Random insertion order stresses splits everywhere in the tree.
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<size_t>(i)],
              order[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  for (int i : order) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);
    ASSERT_TRUE((*store_or)->Put(key, "val" + std::to_string(i)).ok());
  }
  EXPECT_GT(btree->height(), 2u);
  ASSERT_TRUE(btree->CheckInvariants().ok());
  std::string value;
  for (int i = 0; i < n; i += 17) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);
    ASSERT_TRUE((*store_or)->Get(key, &value).ok()) << key;
    EXPECT_EQ(value, "val" + std::to_string(i));
  }
  ASSERT_TRUE((*store_or)->Close().ok());
}

TEST(BTreeStoreTest, OverflowValues) {
  ScopedTempDir dir;
  auto store_or = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store_or.ok());
  std::string big(50000, 'O');
  ASSERT_TRUE((*store_or)->Put("big", big).ok());
  ASSERT_TRUE((*store_or)->Put("small", "s").ok());
  std::string value;
  ASSERT_TRUE((*store_or)->Get("big", &value).ok());
  EXPECT_EQ(value, big);
  // Replacing a large value must release and rebuild the chain.
  std::string bigger(120000, 'P');
  ASSERT_TRUE((*store_or)->Put("big", bigger).ok());
  ASSERT_TRUE((*store_or)->Get("big", &value).ok());
  EXPECT_EQ(value, bigger);
  ASSERT_TRUE((*store_or)->Close().ok());
}

// Deterministic bytes for overflowed values: differ by key, version and
// position, so a chunk from the wrong page or chain cannot pass.
std::string OverflowPattern(int key, int version, size_t len) {
  std::string out(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<char>((i * 131 + static_cast<size_t>(key) * 17 +
                                static_cast<size_t>(version) * 7) & 0xff);
  }
  return out;
}

TEST(BTreeStoreTest, OverflowValuesSurviveReopenAndCheckpointWithTinyPool) {
  ScopedTempDir dir;
  StoreOptions opts;
  opts.engine = "btree";
  opts.dir = dir.path() + "/live";
  // Four 4 KiB pages of pool: clean overflow pages are evicted and re-read.
  opts.buffer_pool = BufferPoolOptions{.capacity_bytes = 4 * 4096, .shards = 1};
  constexpr int kKeys = 60;
  auto key_of = [](int i) { return "bucket" + std::to_string(i); };
  std::map<std::string, std::string> oracle;
  auto verify = [&](KVStore* store, const std::map<std::string, std::string>& want) {
    ASSERT_TRUE(static_cast<BTreeStore*>(store)->CheckInvariants().ok());
    for (int i = 0; i < kKeys; ++i) {
      std::string value;
      Status s = store->Get(key_of(i), &value);
      auto it = want.find(key_of(i));
      if (it == want.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key_of(i) << ": " << s.ToString();
      } else {
        ASSERT_TRUE(s.ok()) << key_of(i) << ": " << s.ToString();
        EXPECT_EQ(value, it->second) << key_of(i);
      }
    }
  };

  auto store = OpenStore(opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // 1100..15850 bytes: one to four overflow pages each.
  for (int i = 0; i < kKeys; ++i) {
    oracle[key_of(i)] = OverflowPattern(i, 0, 1100 + static_cast<size_t>(i) * 250);
    ASSERT_TRUE((*store)->Put(key_of(i), oracle[key_of(i)]).ok());
  }
  // Write back so the pages are clean and the pool may drop them.
  ASSERT_TRUE((*store)->Flush().ok());
  for (int i = 0; i < kKeys; i += 3) {
    oracle[key_of(i)] = OverflowPattern(i, 1, 16000 - static_cast<size_t>(i) * 200);
    ASSERT_TRUE((*store)->Put(key_of(i), oracle[key_of(i)]).ok());
  }
  for (int i = 1; i < kKeys; i += 5) {
    oracle.erase(key_of(i));
    ASSERT_TRUE((*store)->Delete(key_of(i)).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  for (int i = 2; i < kKeys; i += 7) {
    const std::string operand = OverflowPattern(i, 2, 3000);
    oracle[key_of(i)] += operand;
    ASSERT_TRUE((*store)->ReadModifyWrite(key_of(i), operand).ok());
  }
  verify(store->get(), oracle);
  EXPECT_GT((*store)->stats().cache_evictions, 0u);
  ASSERT_TRUE((*store)->Close().ok());

  store = OpenStore(opts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  verify(store->get(), oracle);
  const std::string cp = dir.path() + "/cp";
  ASSERT_TRUE((*store)->Checkpoint(cp).ok());
  const std::map<std::string, std::string> at_checkpoint = oracle;
  // Changes after the checkpoint must not reach the image.
  ASSERT_TRUE((*store)->Put(key_of(0), OverflowPattern(0, 3, 9000)).ok());
  ASSERT_TRUE((*store)->Delete(key_of(3)).ok());
  ASSERT_TRUE((*store)->ReadModifyWrite(key_of(4), OverflowPattern(4, 3, 5000)).ok());
  ASSERT_TRUE((*store)->Close().ok());

  StoreOptions restored_opts = opts;
  restored_opts.dir = dir.path() + "/restored";
  auto restored = RestoreStore(restored_opts, cp);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  verify(restored->get(), at_checkpoint);
  ASSERT_TRUE((*restored)->Close().ok());
}

TEST(BTreeStoreTest, RmwOfOverflowedValueReusesFreedPages) {
  ScopedTempDir dir;
  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store.ok());
  auto* btree = static_cast<BTreeStore*>(store->get());
  std::string expected = OverflowPattern(1, 0, 5000);
  ASSERT_TRUE((*store)->Put("bucket", expected).ok());
  for (int i = 0; i < 1000; ++i) {
    const std::string operand(10, static_cast<char>('a' + i % 26));
    expected += operand;
    ASSERT_TRUE((*store)->ReadModifyWrite("bucket", operand).ok()) << i;
  }
  std::string value;
  ASSERT_TRUE((*store)->Get("bucket", &value).ok());
  EXPECT_EQ(value, expected);
  ASSERT_TRUE(btree->CheckInvariants().ok());
  // The value ends at 15000 bytes, four pages. Each RMW installs the new
  // chain before freeing the old one, so at most two chains exist at once:
  // meta + root + 2 * 4 pages. Without reuse the file would hold ~3000.
  EXPECT_LE(btree->num_pages(), 10u);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(BTreeStoreTest, SplitsReuseFreedOverflowPages) {
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 512;  // 128-byte inline limit, tiny leaves
  auto store = BTreeStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  auto* btree = static_cast<BTreeStore*>(store->get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        (*store)->Put("big" + std::to_string(i), OverflowPattern(i, 0, 600 + 20 * i)).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->Delete("big" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  const uint64_t high_water = btree->num_pages();
  // The splits below take their pages off the free list: each free-list
  // link (a chain page, possibly pool-resident) becomes a tree node.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(btree->num_pages(), high_water);
  // After write-back the new nodes are read through the pool, which must
  // not still hold the free-list links that were there before.
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE(btree->CheckInvariants().ok());
  std::string value;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE((*store)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(BTreeStoreTest, PoolResidentOverflowRmwAndGetReadNoPages) {
  ScopedTempDir dir;
  auto store = BTreeStore::Open(dir.path(), BTreeOptions());
  ASSERT_TRUE(store.ok());
  std::string expected = OverflowPattern(2, 0, 6000);
  ASSERT_TRUE((*store)->Put("bucket", expected).ok());
  // Warm-up: the chain pages and the free list they cycle through are
  // written back once and stay in the (default, roomy) pool.
  for (int i = 0; i < 5; ++i) {
    expected += "warm";
    ASSERT_TRUE((*store)->ReadModifyWrite("bucket", "warm").ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  const uint64_t read_before = (*store)->stats().io_bytes_read;
  std::string value;
  for (int i = 0; i < 100; ++i) {
    const std::string operand = "op" + std::to_string(i);
    expected += operand;
    ASSERT_TRUE((*store)->ReadModifyWrite("bucket", operand).ok()) << i;
    ASSERT_TRUE((*store)->Get("bucket", &value).ok()) << i;
    ASSERT_EQ(value, expected) << i;
    if (i == 50) {
      // Clean pages again: the rest of the loop must hit the pool, not the
      // dirty table alone.
      ASSERT_TRUE((*store)->Flush().ok());
    }
  }
  EXPECT_EQ((*store)->stats().io_bytes_read, read_before);
  ASSERT_TRUE((*store)->Close().ok());
}

TEST(BTreeStoreTest, PersistsAcrossReopen) {
  ScopedTempDir dir;
  BTreeOptions opts;
  opts.page_size = 1024;
  {
    auto store = BTreeStore::Open(dir.path(), opts);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Delete("key500").ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto store = BTreeStore::Open(dir.path(), opts);
  ASSERT_TRUE(store.ok());
  auto* btree = static_cast<BTreeStore*>(store->get());
  ASSERT_TRUE(btree->CheckInvariants().ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("key999", &value).ok());
  EXPECT_EQ(value, "v999");
  EXPECT_TRUE((*store)->Get("key500", &value).IsNotFound());
  ASSERT_TRUE((*store)->Close().ok());
}

// ---------------------------------------------------------- concurrency

TEST(StoreConcurrencyTest, TwoThreadsDisjointKeys) {
  // Fig. 14 shares one store across operators; engines must tolerate
  // concurrent access (single-writer-per-key is guaranteed by the model).
  for (const char* engine : {"lsm", "faster", "btree"}) {
    ScopedTempDir dir;
    auto store_or = OpenStore({.engine = engine, .dir = dir.path() + "/db"});
    ASSERT_TRUE(store_or.ok()) << engine;
    auto& store = *store_or;
    auto worker = [&](int id) {
      for (int i = 0; i < 2000; ++i) {
        std::string key = "t" + std::to_string(id) + "_" + std::to_string(i % 100);
        ASSERT_TRUE(store->Put(key, "v" + std::to_string(i)).ok());
        std::string value;
        Status s = store->Get(key, &value);
        ASSERT_TRUE(s.ok()) << engine << " " << s.ToString();
      }
    };
    std::thread t1(worker, 1), t2(worker, 2);
    t1.join();
    t2.join();
    ASSERT_TRUE(store->Close().ok()) << engine;
  }
}

}  // namespace
}  // namespace gadget
