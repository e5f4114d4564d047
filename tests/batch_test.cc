// Batched store API: WriteBatch / MultiGet semantics, batch-vs-single
// equivalence per engine, the stats accounting contract, the group-commit
// WAL record format, batched replay's read-your-writes guarantee, and the
// BatchCoalescer's equivalence with sequential apply.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/rng.h"
#include "src/gadget/evaluator.h"
#include "src/stores/batch_coalescer.h"
#include "src/stores/kvstore.h"
#include "src/stores/memstore.h"
#include "src/stores/lsm/version.h"
#include "src/stores/lsm/wal.h"
#include "src/streams/state_access.h"

namespace gadget {
namespace {

constexpr const char* kEngines[] = {"mem", "lsm", "lethe", "btree", "faster"};

std::unique_ptr<KVStore> MustOpen(const std::string& engine, const std::string& dir) {
  StoreOptions opts;
  opts.engine = engine;
  opts.dir = dir;
  auto store = OpenStore(opts);
  EXPECT_TRUE(store.ok()) << engine << ": " << store.status().ToString();
  return store.ok() ? std::move(*store) : nullptr;
}

// ------------------------------------------------- in-batch ordering

class BatchEngineTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScopedTempDir>();
    store_ = MustOpen(GetParam(), dir_->path() + "/db");
    ASSERT_NE(store_, nullptr);
  }
  void TearDown() override {
    if (store_ != nullptr) {
      EXPECT_TRUE(store_->Close().ok());
    }
  }
  std::unique_ptr<ScopedTempDir> dir_;
  std::unique_ptr<KVStore> store_;
};

TEST_P(BatchEngineTest, EntriesApplyInInsertionOrder) {
  WriteBatch wb;
  wb.Put("k", "first");
  wb.Delete("k");
  wb.Put("k", "second");
  wb.Put("gone", "x");
  wb.Delete("gone");
  ASSERT_TRUE(store_->Write(wb).ok());

  std::string value;
  ASSERT_TRUE(store_->Get("k", &value).ok());
  EXPECT_EQ(value, "second");
  EXPECT_TRUE(store_->Get("gone", &value).IsNotFound());
}

TEST_P(BatchEngineTest, MultiGetEdgeCases) {
  ASSERT_TRUE(store_->Put("a", "va").ok());
  ASSERT_TRUE(store_->Put("b", "vb").ok());

  // Missing keys and duplicates in one call; duplicates resolve independently.
  std::vector<std::string> keys = {"a", "missing", "a", "b", "also-missing"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(store_->MultiGet(keys, &values, &statuses).ok());
  ASSERT_EQ(values.size(), keys.size());
  ASSERT_EQ(statuses.size(), keys.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "va");
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], "va");
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ(values[3], "vb");
  EXPECT_TRUE(statuses[4].IsNotFound());

  // A key written earlier in the same Write call is visible to a MultiGet
  // issued right after (the batch is fully applied before Write returns).
  WriteBatch wb;
  wb.Put("c", "vc");
  wb.Delete("a");
  ASSERT_TRUE(store_->Write(wb).ok());
  keys = {"c", "a"};
  ASSERT_TRUE(store_->MultiGet(keys, &values, &statuses).ok());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "vc");
  EXPECT_TRUE(statuses[1].IsNotFound());

  // Empty key vector: resized outputs, Ok overall.
  keys.clear();
  ASSERT_TRUE(store_->MultiGet(keys, &values, &statuses).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());
}

TEST_P(BatchEngineTest, BatchCountersTrackCallsAndOps) {
  const StoreStats before = store_->stats();

  WriteBatch wb;
  wb.Put("x", "1");
  wb.Merge("x", "2");
  wb.Delete("y");
  ASSERT_TRUE(store_->Write(wb).ok());

  std::vector<std::string> values;
  std::vector<Status> statuses;
  ASSERT_TRUE(store_->MultiGet({"x", "y"}, &values, &statuses).ok());

  // Empty batches still count as one call carrying zero ops.
  WriteBatch empty;
  ASSERT_TRUE(store_->Write(empty).ok());

  const StoreStats after = store_->stats();
  EXPECT_EQ(after.batches - before.batches, 3u);
  EXPECT_EQ(after.batched_ops - before.batched_ops, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BatchEngineTest, ::testing::ValuesIn(kEngines));

// Engines that refuse reads once closed (mem and the LSMs keep serving them).
class ClosedBatchEngineTest : public BatchEngineTest {};

// A refused MultiGet must fail every key: a per-key Ok with an empty value
// would read as a hit to callers that go by per-key statuses (the server).
TEST_P(ClosedBatchEngineTest, MultiGetAfterCloseFailsEveryKey) {
  ASSERT_TRUE(store_->Put("a", "va").ok());
  ASSERT_TRUE(store_->Close().ok());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  EXPECT_FALSE(store_->MultiGet({"a", "missing"}, &values, &statuses).ok());
  ASSERT_EQ(statuses.size(), 2u);
  for (const Status& s : statuses) {
    EXPECT_FALSE(s.ok()) << s.ToString();
    EXPECT_FALSE(s.IsNotFound()) << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(ClosingEngines, ClosedBatchEngineTest,
                         ::testing::Values("btree", "faster"));

// ------------------------------------- batch-vs-single equivalence

// Deterministic op mix over a small key space: puts, merges (or RMW where the
// engine lacks merge), deletes, with keys colliding often enough to exercise
// ordering within batches.
struct MixOp {
  WriteBatch::Op op;
  std::string key;
  std::string value;
};

std::vector<MixOp> MakeMix(size_t n) {
  std::vector<MixOp> ops;
  ops.reserve(n);
  uint64_t x = 88172645463325252ull;  // xorshift64
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::string key = "key" + std::to_string(x % 37);
    switch (x % 10) {
      case 0:
        ops.push_back({WriteBatch::Op::kDelete, key, ""});
        break;
      case 1:
      case 2:
      case 3:
        ops.push_back({WriteBatch::Op::kMerge, key, "m" + std::to_string(i % 7)});
        break;
      default:
        ops.push_back({WriteBatch::Op::kPut, key, std::string(1 + i % 40, 'v')});
        break;
    }
  }
  return ops;
}

Status ApplySingle(KVStore* store, const MixOp& op, bool has_merge) {
  switch (op.op) {
    case WriteBatch::Op::kPut:
      return store->Put(op.key, op.value);
    case WriteBatch::Op::kMerge:
      return has_merge ? store->Merge(op.key, op.value)
                       : store->ReadModifyWrite(op.key, op.value);
    case WriteBatch::Op::kDelete:
      return store->Delete(op.key);
  }
  return Status::Internal("unreachable");
}

// Final state probe: Get every key the mix ever touched.
std::map<std::string, std::string> ProbeState(KVStore* store, const std::vector<MixOp>& ops) {
  std::map<std::string, std::string> state;
  for (const MixOp& op : ops) {
    if (state.count(op.key) != 0) {
      continue;
    }
    std::string value;
    Status s = store->Get(op.key, &value);
    state[op.key] = s.ok() ? value : (s.IsNotFound() ? "<absent>" : "<error>");
  }
  return state;
}

TEST_P(BatchEngineTest, Batch64MatchesSingleOps) {
  const std::vector<MixOp> mix = MakeMix(512);
  const bool has_merge = store_->supports_merge();

  // Path A: one call per op on the fixture's store.
  for (const MixOp& op : mix) {
    ASSERT_TRUE(ApplySingle(store_.get(), op, has_merge).ok());
  }
  const StoreStats single = store_->stats();

  // Path B: the same ops in WriteBatches of 64 on a fresh store.
  std::unique_ptr<KVStore> batched = MustOpen(GetParam(), dir_->path() + "/db-batched");
  ASSERT_NE(batched, nullptr);
  WriteBatch wb;
  for (size_t i = 0; i < mix.size(); ++i) {
    switch (mix[i].op) {
      case WriteBatch::Op::kPut:
        wb.Put(mix[i].key, mix[i].value);
        break;
      case WriteBatch::Op::kMerge:
        wb.Merge(mix[i].key, mix[i].value);
        break;
      case WriteBatch::Op::kDelete:
        wb.Delete(mix[i].key);
        break;
    }
    if (wb.size() == 64 || i + 1 == mix.size()) {
      ASSERT_TRUE(batched->Write(wb).ok());
      wb.Clear();
    }
  }
  const StoreStats grouped = batched->stats();

  // Identical surviving state...
  EXPECT_EQ(ProbeState(store_.get(), mix), ProbeState(batched.get(), mix));

  // ...and identical per-op accounting; only batches/batched_ops may differ.
  EXPECT_EQ(single.puts, grouped.puts);
  EXPECT_EQ(single.merges, grouped.merges);
  EXPECT_EQ(single.deletes, grouped.deletes);
  EXPECT_EQ(single.rmws, grouped.rmws);
  EXPECT_EQ(single.bytes_written, grouped.bytes_written);
  EXPECT_EQ(single.batches, 0u);
  EXPECT_EQ(grouped.batches, (mix.size() + 63) / 64);
  EXPECT_EQ(grouped.batched_ops, mix.size());

  EXPECT_TRUE(batched->Close().ok());
}

// bytes_written must agree ACROSS engines too — same op set, same number,
// regardless of how each engine spells merge internally.
TEST(BatchStatsDriftTest, BytesWrittenAgreeAcrossEnginesAndPaths) {
  const std::vector<MixOp> mix = MakeMix(256);
  uint64_t expected = 0;
  for (const MixOp& op : mix) {
    expected += op.key.size() + op.value.size();  // delete value is empty
  }

  for (const char* engine : kEngines) {
    ScopedTempDir dir;
    std::unique_ptr<KVStore> single = MustOpen(engine, dir.path() + "/s");
    ASSERT_NE(single, nullptr);
    const bool has_merge = single->supports_merge();
    for (const MixOp& op : mix) {
      ASSERT_TRUE(ApplySingle(single.get(), op, has_merge).ok());
    }
    EXPECT_EQ(single->stats().bytes_written, expected) << engine << " single-op path";
    EXPECT_TRUE(single->Close().ok());

    std::unique_ptr<KVStore> batched = MustOpen(engine, dir.path() + "/b");
    ASSERT_NE(batched, nullptr);
    WriteBatch wb;
    for (const MixOp& op : mix) {
      switch (op.op) {
        case WriteBatch::Op::kPut:
          wb.Put(op.key, op.value);
          break;
        case WriteBatch::Op::kMerge:
          wb.Merge(op.key, op.value);
          break;
        case WriteBatch::Op::kDelete:
          wb.Delete(op.key);
          break;
      }
    }
    ASSERT_TRUE(batched->Write(wb).ok());
    EXPECT_EQ(batched->stats().bytes_written, expected) << engine << " batched path";
    EXPECT_TRUE(batched->Close().ok());
  }
}

// ------------------------------------------- batched replay (evaluator)

std::vector<StateAccess> WriteThenReadTrace(uint64_t n) {
  // Put key i immediately followed by Get key i: with batch_size > 1 the get
  // lands while the put is still buffered, so it exercises the
  // read-your-writes flush rule. Every 5th key is probed but never written.
  std::vector<StateAccess> trace;
  trace.reserve(2 * n);
  for (uint64_t i = 0; i < n; ++i) {
    if (i % 5 != 0) {
      trace.push_back(StateAccess{OpType::kPut, StateKey{i, 0}, 64, i});
    }
    trace.push_back(StateAccess{OpType::kGet, StateKey{i, 0}, 0, i});
  }
  return trace;
}

TEST(BatchedReplayTest, ReadYourWritesMatchesUnbatchedReplay) {
  const std::vector<StateAccess> trace = WriteThenReadTrace(1'000);
  const uint64_t expected_not_found = 200;  // the every-5th never-written probes

  for (uint64_t batch : {1ull, 64ull}) {
    for (const char* engine : {"mem", "lsm"}) {
      ScopedTempDir dir;
      std::unique_ptr<KVStore> store = MustOpen(engine, dir.path() + "/db");
      ASSERT_NE(store, nullptr);
      ReplayOptions opts;
      opts.batch_size = batch;
      auto result = ReplayTrace(trace, store.get(), opts);
      ASSERT_TRUE(result.ok()) << engine << "/batch=" << batch;
      EXPECT_EQ(result->ops, trace.size()) << engine << "/batch=" << batch;
      // A get that missed its just-buffered put would inflate this count.
      EXPECT_EQ(result->not_found, expected_not_found) << engine << "/batch=" << batch;
      const StoreStats stats = store->stats();
      EXPECT_EQ(stats.puts, 800u) << engine << "/batch=" << batch;
      EXPECT_EQ(stats.gets, 1'000u) << engine << "/batch=" << batch;
      EXPECT_TRUE(store->Close().ok());
    }
  }
}

// ------------------------------------------------------- BatchCoalescer

// One step of a random op stream. kMultiGet / kWriteBatch are the direct
// calls a server shard issues for MULTI_GET / WRITE_BATCH frames.
struct StreamOp {
  enum Kind { kGet, kWrite, kMultiGet, kWriteBatch } kind = kGet;
  WriteBatch::Op op = WriteBatch::Op::kPut;  // kWrite
  std::string key;                           // kGet / kWrite
  std::string value;                         // kWrite
  std::vector<std::string> keys;             // kMultiGet
  WriteBatch batch;                          // kWriteBatch
};

std::vector<StreamOp> RandomStream(uint64_t seed, size_t n, int num_keys) {
  Pcg32 rng(seed);
  auto key = [&] { return "k" + std::to_string(rng.NextBounded(num_keys)); };
  std::vector<StreamOp> ops(n);
  for (size_t i = 0; i < n; ++i) {
    StreamOp& o = ops[i];
    const std::string v = "<" + std::to_string(i) + ">";
    const uint32_t r = rng.NextBounded(20);
    if (r < 8) {
      o.kind = StreamOp::kGet;
      o.key = key();
    } else if (r < 17) {
      o.kind = StreamOp::kWrite;
      o.op = r < 11 ? WriteBatch::Op::kPut
                    : (r < 15 ? WriteBatch::Op::kMerge : WriteBatch::Op::kDelete);
      o.key = key();
      o.value = v;
    } else if (r < 18) {
      o.kind = StreamOp::kMultiGet;
      for (uint32_t j = 0; j <= rng.NextBounded(3); ++j) {
        o.keys.push_back(key());
      }
    } else {
      o.kind = StreamOp::kWriteBatch;
      for (uint32_t j = 0; j <= rng.NextBounded(3); ++j) {
        o.batch.Append(static_cast<WriteBatch::Op>(rng.NextBounded(3)), key(), v);
      }
    }
  }
  return ops;
}

// A get's outcome as the stream saw it.
std::string Outcome(const Status& s, const std::string& value) {
  return s.ok() ? value : (s.IsNotFound() ? "<absent>" : "<error:" + s.ToString() + ">");
}

std::map<std::string, std::string> AllKeys(KVStore* store, int num_keys) {
  std::map<std::string, std::string> state;
  for (int i = 0; i < num_keys; ++i) {
    const std::string k = "k" + std::to_string(i);
    std::string value;
    state[k] = Outcome(store->Get(k, &value), value);
  }
  return state;
}

// The oracle: every op applied on its own, in stream order. Returns every
// read outcome in stream order (a MULTI_GET contributes one per key).
std::vector<std::string> ApplySequentially(const std::vector<StreamOp>& ops, KVStore* store) {
  std::vector<std::string> reads;
  std::string value;
  for (const StreamOp& o : ops) {
    switch (o.kind) {
      case StreamOp::kGet:
        reads.push_back(Outcome(store->Get(o.key, &value), value));
        break;
      case StreamOp::kWrite:
        EXPECT_TRUE(ApplySingle(store, {o.op, o.key, o.value}, true).ok());
        break;
      case StreamOp::kMultiGet:
        for (const std::string& k : o.keys) {
          reads.push_back(Outcome(store->Get(k, &value), value));
        }
        break;
      case StreamOp::kWriteBatch:
        for (size_t j = 0; j < o.batch.size(); ++j) {
          const WriteBatch::Entry& e = o.batch.entry(j);
          EXPECT_TRUE(ApplySingle(store, {e.op, e.key, e.value}, true).ok());
        }
        break;
    }
  }
  return reads;
}

// Random streams over at most 16 keys (so conflicts are frequent) through
// the coalescer, driven the way a server shard drives it: every get's
// outcome and the final state must equal the sequential oracle's.
TEST(BatchCoalescerTest, RandomStreamsMatchSequentialOracle) {
  constexpr int kKeys = 12;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<StreamOp> ops = RandomStream(seed, 1500, kKeys);
    MemStore oracle;
    const std::vector<std::string> expected = ApplySequentially(ops, &oracle);

    for (size_t cap : {1, 2, 3, 8, 64}) {
      MemStore store;
      std::vector<std::string> reads(expected.size());
      std::vector<size_t> pending;  // read slots of the pending gets
      std::vector<std::string> values;
      std::vector<Status> statuses;
      BatchCoalescer batch(
          cap, [&](const WriteBatch& wb) { return store.Write(wb); },
          [&](const std::vector<std::string>& keys) {
            EXPECT_EQ(keys.size(), pending.size());
            EXPECT_LE(keys.size(), cap);
            GADGET_RETURN_IF_ERROR(store.MultiGet(keys, &values, &statuses));
            for (size_t j = 0; j < keys.size(); ++j) {
              reads[pending[j]] = Outcome(statuses[j], values[j]);
            }
            pending.clear();
            return Status::Ok();
          });
      size_t slot = 0;
      for (const StreamOp& o : ops) {
        switch (o.kind) {
          case StreamOp::kGet:
            pending.push_back(slot++);
            ASSERT_TRUE(batch.AddGet(o.key).ok());
            break;
          case StreamOp::kWrite:
            ASSERT_TRUE(batch.AddWrite(o.op, o.key, o.value).ok());
            break;
          case StreamOp::kMultiGet:
            ASSERT_TRUE(batch.BeforeMultiGet(o.keys).ok());
            ASSERT_TRUE(store.MultiGet(o.keys, &values, &statuses).ok());
            for (size_t j = 0; j < o.keys.size(); ++j) {
              reads[slot++] = Outcome(statuses[j], values[j]);
            }
            break;
          case StreamOp::kWriteBatch:
            ASSERT_TRUE(batch.BeforeWrite(o.batch).ok());
            ASSERT_TRUE(store.Write(o.batch).ok());
            break;
        }
      }
      ASSERT_TRUE(batch.Flush().ok());
      EXPECT_TRUE(pending.empty());
      EXPECT_EQ(reads, expected) << "seed " << seed << " cap " << cap;
      EXPECT_EQ(AllKeys(&store, kKeys), AllKeys(&oracle, kKeys))
          << "seed " << seed << " cap " << cap;
    }
  }
}

// Whatever batch size is asked for, a pending side never outgrows
// kMaxPending, so an unbounded server burst keeps its scans bounded.
TEST(BatchCoalescerTest, PendingSidesAreCappedAtMaxPending) {
  std::vector<size_t> write_flushes;
  std::vector<size_t> get_flushes;
  BatchCoalescer batch(
      1'000'000,
      [&](const WriteBatch& wb) {
        write_flushes.push_back(wb.size());
        return Status::Ok();
      },
      [&](const std::vector<std::string>& keys) {
        get_flushes.push_back(keys.size());
        return Status::Ok();
      });
  const size_t n = BatchCoalescer::kMaxPending + 10;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(batch.AddWrite(WriteBatch::Op::kPut, "w" + std::to_string(i), "v").ok());
    ASSERT_TRUE(batch.AddGet("g" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(batch.Flush().ok());
  EXPECT_EQ(write_flushes, (std::vector<size_t>{BatchCoalescer::kMaxPending, 10}));
  EXPECT_EQ(get_flushes, (std::vector<size_t>{BatchCoalescer::kMaxPending, 10}));
}

// The evaluator side: the same kind of streams as StateAccess traces
// through ReplayTrace, batched against batch_size = 1.
TEST(BatchCoalescerTest, BatchedReplayMatchesUnbatchedReplay) {
  constexpr uint64_t kKeys = 16;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Pcg32 rng(seed);
    std::vector<StateAccess> trace;
    for (uint64_t i = 0; i < 3000; ++i) {
      const OpType op = static_cast<OpType>(rng.NextBounded(4));
      const uint32_t size =
          op == OpType::kGet || op == OpType::kDelete ? 0 : 1 + rng.NextBounded(9);
      trace.push_back(StateAccess{op, StateKey{rng.NextBounded(kKeys), 0}, size, i});
    }
    MemStore single_store;
    auto single = ReplayTrace(trace, &single_store);
    ASSERT_TRUE(single.ok());
    std::map<std::string, std::string> single_state;
    for (uint64_t k = 0; k < kKeys; ++k) {
      std::string value;
      const std::string key = EncodeStateKey(StateKey{k, 0});
      single_state[key] = Outcome(single_store.Get(key, &value), value);
    }
    for (uint64_t cap : {2, 3, 8, 64}) {
      MemStore store;
      ReplayOptions opts;
      opts.batch_size = cap;
      auto batched = ReplayTrace(trace, &store, opts);
      ASSERT_TRUE(batched.ok());
      EXPECT_EQ(batched->ops, single->ops) << "seed " << seed << " batch " << cap;
      EXPECT_EQ(batched->not_found, single->not_found) << "seed " << seed << " batch " << cap;
      for (const auto& [key, value] : single_state) {
        std::string got;
        EXPECT_EQ(Outcome(store.Get(key, &got), got), value) << "seed " << seed << " batch " << cap;
      }
    }
  }
}

// ----------------------------------------------- group-commit WAL records

TEST(WalBatchTest, BatchRecordRoundTripsInOrder) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(RecType::kValue, "solo", "s", /*sync=*/false).ok());
    WriteBatch wb;
    wb.Put("a", "1");
    wb.Merge("b", "2");
    wb.Delete("c");
    ASSERT_TRUE((*wal)->AppendBatch(wb, /*sync=*/true).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }

  std::vector<std::tuple<RecType, std::string, std::string>> ops;
  auto replayed = ReplayWal(path, [&](RecType type, std::string_view key,
                                      std::string_view value) {
    ops.emplace_back(type, std::string(key), std::string(value));
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 4u);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0], std::make_tuple(RecType::kValue, "solo", "s"));
  EXPECT_EQ(ops[1], std::make_tuple(RecType::kValue, "a", "1"));
  EXPECT_EQ(ops[2], std::make_tuple(RecType::kMergeStack, "b", "2"));
  EXPECT_EQ(ops[3], std::make_tuple(RecType::kTombstone, "c", ""));
}

TEST(WalBatchTest, EmptyBatchWritesNothing) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  auto wal = WalWriter::Create(path);
  ASSERT_TRUE(wal.ok());
  WriteBatch empty;
  ASSERT_TRUE((*wal)->AppendBatch(empty, /*sync=*/false).ok());
  EXPECT_EQ((*wal)->size(), 0u);
  ASSERT_TRUE((*wal)->Close().ok());
}

TEST(WalBatchTest, TornBatchRecordIsAllOrNothing) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/wal.log";
  {
    auto wal = WalWriter::Create(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(RecType::kValue, "durable", "yes", /*sync=*/false).ok());
    WriteBatch wb;
    for (int i = 0; i < 8; ++i) {
      wb.Put("batch" + std::to_string(i), std::string(32, 'v'));
    }
    ASSERT_TRUE((*wal)->AppendBatch(wb, /*sync=*/false).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }

  // Tear the tail off the batch record: the crc covers the whole payload, so
  // even the intact leading entries must NOT replay.
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  data.resize(data.size() - 5);
  ASSERT_TRUE(WriteStringToFile(path, data).ok());

  std::vector<std::string> keys;
  auto replayed = ReplayWal(path, [&](RecType, std::string_view key, std::string_view) {
    keys.emplace_back(key);
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, 1u);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], "durable");
}

// Crash recovery through the store: a database directory whose manifest
// points at a WAL containing a group-commit record (the state after a crash
// between commit and memtable flush) must come back with the batch applied.
TEST(WalBatchTest, LsmReplaysGroupCommitRecordOnOpen) {
  ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/db";
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  ManifestData manifest;
  manifest.next_file_number = 2;
  manifest.wal_numbers = {1};
  ASSERT_TRUE(SaveManifest(dir, manifest).ok());
  {
    auto wal = WalWriter::Create(dir + "/wal-1.log");
    ASSERT_TRUE(wal.ok());
    WriteBatch wb;
    wb.Put("a", "1");
    wb.Put("b", "2");
    wb.Delete("a");
    ASSERT_TRUE((*wal)->AppendBatch(wb, /*sync=*/true).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }

  std::unique_ptr<KVStore> store = MustOpen("lsm", dir);
  ASSERT_NE(store, nullptr);
  std::string value;
  EXPECT_TRUE(store->Get("a", &value).IsNotFound());
  ASSERT_TRUE(store->Get("b", &value).ok());
  EXPECT_EQ(value, "2");
  EXPECT_TRUE(store->Close().ok());
}

TEST(WalBatchTest, LsmDropsTornGroupCommitRecordOnOpen) {
  ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/db";
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  ManifestData manifest;
  manifest.next_file_number = 2;
  manifest.wal_numbers = {1};
  ASSERT_TRUE(SaveManifest(dir, manifest).ok());
  const std::string wal_path = dir + "/wal-1.log";
  {
    auto wal = WalWriter::Create(wal_path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(RecType::kValue, "synced", "v", /*sync=*/true).ok());
    WriteBatch wb;
    wb.Put("torn1", "x");
    wb.Put("torn2", "y");
    ASSERT_TRUE((*wal)->AppendBatch(wb, /*sync=*/false).ok());
    ASSERT_TRUE((*wal)->Close().ok());
  }
  std::string data;
  ASSERT_TRUE(ReadFileToString(wal_path, &data).ok());
  data.resize(data.size() - 3);  // the crash happened mid-batch-record
  ASSERT_TRUE(WriteStringToFile(wal_path, data).ok());

  std::unique_ptr<KVStore> store = MustOpen("lsm", dir);
  ASSERT_NE(store, nullptr);
  std::string value;
  ASSERT_TRUE(store->Get("synced", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(store->Get("torn1", &value).IsNotFound());
  EXPECT_TRUE(store->Get("torn2", &value).IsNotFound());
  EXPECT_TRUE(store->Close().ok());
}

}  // namespace
}  // namespace gadget
