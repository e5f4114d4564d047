// Unit tests for LSM internals: bloom filter, buffer pool plumbing, memtable,
// SSTable builder/reader/iterator, WAL, manifest.
#include <gtest/gtest.h>

#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/lsm/bloom.h"
#include "src/stores/lsm/memtable.h"
#include "src/stores/lsm/sstable.h"
#include "src/stores/lsm/version.h"
#include "src/stores/lsm/wal.h"

namespace gadget {
namespace {

// -------------------------------------------------------------------- bloom

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 1000; ++i) {
    builder.AddKey("key" + std::to_string(i));
  }
  std::string filter = builder.Finish();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(BloomFilterMayContain(filter, "key" + std::to_string(i)));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; ++i) {
    builder.AddKey("key" + std::to_string(i));
  }
  std::string filter = builder.Finish();
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (BloomFilterMayContain(filter, "absent" + std::to_string(i))) {
      ++fp;
    }
  }
  // 10 bits/key should give ~1% FPR; allow 3%.
  EXPECT_LT(fp, 300);
}

TEST(BloomTest, EmptyFilterIsSafe) {
  BloomFilterBuilder builder(10);
  std::string filter = builder.Finish();
  // No keys added: any answer is allowed but must not crash; degenerate
  // filters answer true.
  // result intentionally ignored: only exercising that the probe is safe.
  (void)BloomFilterMayContain(filter, "x");
  EXPECT_TRUE(BloomFilterMayContain("", "x"));
}

// -------------------------------------------------------------- buffer pool

TEST(BufferPoolCacheTest, HitAfterInsert) {
  BufferPool pool;
  pool.InsertBlock(1, 0, "hello");
  PinnedBlock h = pool.Lookup(1, 0);
  ASSERT_TRUE(static_cast<bool>(h));
  EXPECT_EQ(h.data(), "hello");
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPoolCacheTest, EvictsUnderPressure) {
  BufferPool pool(BufferPoolOptions{.capacity_bytes = 8 * 1024, .shards = 8});
  for (uint64_t i = 0; i < 1000; ++i) {
    pool.InsertBlock(1, i * 4096, std::string(512, 'x'));
  }
  int present = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    if (pool.Lookup(1, i * 4096)) {
      ++present;
    }
  }
  EXPECT_LT(present, 64);  // most were evicted
  EXPECT_GT(present, 0);   // but the most recent stayed
}

TEST(BufferPoolCacheTest, EraseFileDropsBlocks) {
  BufferPool pool;
  pool.InsertBlock(7, 0, "a");
  pool.InsertBlock(7, 4096, "b");
  pool.InsertBlock(8, 0, "c");
  pool.EraseFile(7);
  EXPECT_FALSE(pool.Lookup(7, 0));
  EXPECT_FALSE(pool.Lookup(7, 4096));
  EXPECT_TRUE(static_cast<bool>(pool.Lookup(8, 0)));
}

// ----------------------------------------------------------------- memtable

TEST(MemTableTest, PutGet) {
  MemTable mem;
  mem.Put("a", "1");
  std::string value;
  std::vector<std::string> ops;
  EXPECT_EQ(mem.Get("a", &value, &ops), LookupState::kFound);
  EXPECT_EQ(value, "1");
  EXPECT_EQ(mem.Get("b", &value, &ops), LookupState::kNotFound);
}

TEST(MemTableTest, DeleteShadowsPut) {
  MemTable mem;
  mem.Put("a", "1");
  mem.Delete("a");
  std::string value;
  std::vector<std::string> ops;
  EXPECT_EQ(mem.Get("a", &value, &ops), LookupState::kDeleted);
}

TEST(MemTableTest, MergeOnBaseCollapses) {
  MemTable mem;
  mem.Put("a", "base");
  mem.Merge("a", "+1");
  mem.Merge("a", "+2");
  std::string value;
  std::vector<std::string> ops;
  EXPECT_EQ(mem.Get("a", &value, &ops), LookupState::kFound);
  EXPECT_EQ(value, "base+1+2");
}

TEST(MemTableTest, MergeWithoutBaseIsPartial) {
  MemTable mem;
  mem.Merge("a", "x");
  mem.Merge("a", "y");
  std::string value;
  std::vector<std::string> ops;
  EXPECT_EQ(mem.Get("a", &value, &ops), LookupState::kMergePartial);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0], "x");
  EXPECT_EQ(ops[1], "y");
}

TEST(MemTableTest, MergeAfterDelete) {
  MemTable mem;
  mem.Put("a", "old");
  mem.Delete("a");
  mem.Merge("a", "new");
  std::string value;
  std::vector<std::string> ops;
  EXPECT_EQ(mem.Get("a", &value, &ops), LookupState::kFound);
  EXPECT_EQ(value, "new");
}

TEST(MemTableTest, FlushRecordTypes) {
  MemTable mem;
  mem.Put("full", "v");
  mem.Delete("gone");
  mem.Merge("lazy", "op");
  mem.Put("merged", "v");
  mem.Merge("merged", "+");
  std::map<std::string, std::pair<RecType, std::string>> records;
  mem.ForEachFlushRecord([&](const MemTable::FlushRecord& rec) {
    records[std::string(rec.key)] = {rec.type, std::string(rec.value)};
  });
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records["full"].first, RecType::kValue);
  EXPECT_EQ(records["gone"].first, RecType::kTombstone);
  EXPECT_EQ(records["lazy"].first, RecType::kMergeStack);
  EXPECT_EQ(records["merged"].first, RecType::kValue);
  EXPECT_EQ(records["merged"].second, "v+");
}

TEST(MemTableTest, ByteAccountingGrows) {
  MemTable mem;
  uint64_t before = mem.ApproximateBytes();
  mem.Put("key", std::string(1000, 'v'));
  EXPECT_GT(mem.ApproximateBytes(), before + 900);
}

TEST(MemTableTest, PutOverMergedKeyReleasesOperandBytes) {
  // A superseded operand stack must be refunded in full, or memtables seal
  // early on merge-then-delete (holistic window) workloads.
  MemTable lone;
  lone.Put("key", "value");
  MemTable merged;
  merged.Merge("key", std::string(100, 'a'));
  merged.Merge("key", "b");
  merged.Merge("key", "c");
  merged.Put("key", "value");
  EXPECT_EQ(merged.ApproximateBytes(), lone.ApproximateBytes());
  merged.Merge("key", "+tail");
  merged.Delete("key");
  MemTable deleted;
  deleted.Delete("key");
  EXPECT_EQ(merged.ApproximateBytes(), deleted.ApproximateBytes());
}

TEST(MemTableTest, FlushEmitsKeysInAscendingOrder) {
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(std::string("k").append(std::to_string(i * 7919 % 1000)));
  }
  keys.push_back("");
  keys.push_back(std::string("\xff\x00", 2));
  keys.push_back(std::string("\x00", 1));
  Pcg32 rng(17);
  for (size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  MemTable mem;
  for (size_t i = 0; i < keys.size(); ++i) {
    switch (i % 3) {
      case 0:
        mem.Put(keys[i], "v");
        break;
      case 1:
        mem.Merge(keys[i], "m");
        break;
      default:
        mem.Delete(keys[i]);
        break;
    }
  }
  std::vector<std::string> flushed;
  mem.ForEachFlushRecord([&](const MemTable::FlushRecord& rec) {
    flushed.emplace_back(rec.key);
  });
  ASSERT_EQ(flushed.size(), keys.size());
  for (size_t i = 1; i < flushed.size(); ++i) {
    EXPECT_LT(flushed[i - 1], flushed[i]) << i;
  }
}

TEST(MemTableTest, BaselessStackFlushesInMergeStackEncoding) {
  const std::vector<std::string> operands = {"x", "", std::string(300, 'y'),
                                             std::string("\x00z", 2)};
  MemTable mem;
  for (const std::string& op : operands) {
    mem.Merge("lazy", op);
  }
  int records = 0;
  mem.ForEachFlushRecord([&](const MemTable::FlushRecord& rec) {
    ++records;
    EXPECT_EQ(rec.key, "lazy");
    EXPECT_EQ(rec.type, RecType::kMergeStack);
    EXPECT_EQ(rec.value, EncodeMergeStack(operands));
  });
  EXPECT_EQ(records, 1);
  std::string value;
  std::vector<std::string> got;
  EXPECT_EQ(mem.Get("lazy", &value, &got), LookupState::kMergePartial);
  EXPECT_EQ(got, operands);
}

// ------------------------------------------------------------------ sstable

TEST(SSTableTest, BuildAndPointGet) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/1.sst";
  SSTableBuilder builder(path, 4096, 10);
  for (int i = 0; i < 1000; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(builder.Add(key, RecType::kValue, "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_entries(), 1000u);
  EXPECT_EQ(builder.smallest(), "key000000");
  EXPECT_EQ(builder.largest(), "key000999");

  BufferPool pool;
  auto reader = SSTableReader::Open(path, 1, &pool);
  ASSERT_TRUE(reader.ok());
  std::string value;
  std::vector<std::string> ops;
  for (int i = 0; i < 1000; i += 37) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    auto st = (*reader)->Get(key, &value, &ops);
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(*st, LookupState::kFound) << key;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
  auto miss = (*reader)->Get("key9999999", &value, &ops);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(*miss, LookupState::kNotFound);
}

TEST(SSTableTest, TombstoneAndMergeRecords) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/2.sst";
  SSTableBuilder builder(path, 4096, 10);
  ASSERT_TRUE(builder.Add("a", RecType::kMergeStack, EncodeMergeStack({"x", "y"})).ok());
  ASSERT_TRUE(builder.Add("b", RecType::kTombstone, "").ok());
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_tombstones(), 1u);

  auto reader = SSTableReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  std::string value;
  std::vector<std::string> ops;
  auto st = (*reader)->Get("a", &value, &ops);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, LookupState::kMergePartial);
  EXPECT_EQ(ops, (std::vector<std::string>{"x", "y"}));
  st = (*reader)->Get("b", &value, &ops);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, LookupState::kDeleted);
}

TEST(SSTableTest, RejectsOutOfOrderKeys) {
  ScopedTempDir dir;
  SSTableBuilder builder(dir.path() + "/3.sst", 4096, 10);
  ASSERT_TRUE(builder.Add("b", RecType::kValue, "1").ok());
  EXPECT_FALSE(builder.Add("a", RecType::kValue, "2").ok());
  EXPECT_FALSE(builder.Add("b", RecType::kValue, "3").ok());  // duplicates too
}

TEST(SSTableTest, IteratorSeesAllRecordsInOrder) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/4.sst";
  SSTableBuilder builder(path, 256, 10);  // small blocks force many blocks
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(builder.Add(key, RecType::kValue, std::string(20, 'v')).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SSTableReader::Open(path, 4, nullptr);
  ASSERT_TRUE(reader.ok());
  SSTableIterator it(*reader);
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    EXPECT_GT(std::string(it.key()), prev);
    prev = std::string(it.key());
    ++count;
    it.Next();
  }
  ASSERT_TRUE(it.status().ok());
  EXPECT_EQ(count, n);
}

TEST(SSTableTest, LargeValuesSpanBlocks) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/5.sst";
  SSTableBuilder builder(path, 4096, 10);
  std::string big(100000, 'B');
  ASSERT_TRUE(builder.Add("big", RecType::kValue, big).ok());
  ASSERT_TRUE(builder.Add("small", RecType::kValue, "s").ok());
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = SSTableReader::Open(path, 5, nullptr);
  ASSERT_TRUE(reader.ok());
  std::string value;
  std::vector<std::string> ops;
  auto st = (*reader)->Get("big", &value, &ops);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st, LookupState::kFound);
  EXPECT_EQ(value, big);
}

TEST(SSTableTest, CorruptBlockDetected) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/6.sst";
  SSTableBuilder builder(path, 4096, 10);
  ASSERT_TRUE(builder.Add("k", RecType::kValue, std::string(100, 'v')).ok());
  ASSERT_TRUE(builder.Finish().ok());
  std::string raw;
  ASSERT_TRUE(ReadFileToString(path, &raw).ok());
  raw[10] ^= 0x01;  // corrupt the data block
  ASSERT_TRUE(WriteStringToFile(path, raw).ok());
  auto reader = SSTableReader::Open(path, 6, nullptr);
  ASSERT_TRUE(reader.ok());  // footer/index still fine
  std::string value;
  std::vector<std::string> ops;
  auto st = (*reader)->Get("k", &value, &ops);
  EXPECT_FALSE(st.ok());
}

// ---------------------------------------------------------------------- wal

TEST(WalTest, ReplayRoundTrip) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(RecType::kValue, "k1", "v1", false).ok());
    ASSERT_TRUE((*wal)->Append(RecType::kMergeStack, "k2", "op", false).ok());
    ASSERT_TRUE((*wal)->Append(RecType::kTombstone, "k3", "", false).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  std::vector<std::tuple<RecType, std::string, std::string>> records;
  auto n = ReplayWal(path, [&](RecType t, std::string_view k, std::string_view v) {
    records.emplace_back(t, std::string(k), std::string(v));
  });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(records[0], std::make_tuple(RecType::kValue, std::string("k1"), std::string("v1")));
  EXPECT_EQ(records[2], std::make_tuple(RecType::kTombstone, std::string("k3"), std::string()));
}

TEST(WalTest, TornTailStopsCleanly) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(RecType::kValue, "k1", "v1", false).ok());
    ASSERT_TRUE((*wal)->Append(RecType::kValue, "k2", "v2", false).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  std::string raw;
  ASSERT_TRUE(ReadFileToString(path, &raw).ok());
  raw.resize(raw.size() - 3);  // simulate a crash mid-record
  ASSERT_TRUE(WriteStringToFile(path, raw).ok());
  int count = 0;
  auto n = ReplayWal(path, [&](RecType, std::string_view, std::string_view) { ++count; });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);  // first record survives, torn second is skipped
}

// ----------------------------------------------------------------- manifest

TEST(ManifestTest, SaveLoadRoundTrip) {
  ScopedTempDir dir;
  ManifestData data;
  data.next_file_number = 42;
  data.wal_numbers = {7, 11};  // two live generations: imm queue + active
  data.files.push_back({0, 3, 1000, 50, 5, 12345, std::string("\x00\x01", 2), "zz"});
  data.files.push_back({2, 9, 2000, 99, 0, 777, "a", "m"});
  ASSERT_TRUE(SaveManifest(dir.path(), data).ok());
  auto back = LoadManifest(dir.path());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->next_file_number, 42u);
  EXPECT_EQ(back->wal_numbers, (std::vector<uint64_t>{7, 11}));
  ASSERT_EQ(back->files.size(), 2u);
  EXPECT_EQ(back->files[0].level, 0);
  EXPECT_EQ(back->files[0].smallest, std::string("\x00\x01", 2));
  EXPECT_EQ(back->files[1].largest, "m");
}

TEST(ManifestTest, MissingManifestIsNotFound) {
  ScopedTempDir dir;
  auto result = LoadManifest(dir.path());
  EXPECT_TRUE(result.status().IsNotFound());
}

}  // namespace
}  // namespace gadget
