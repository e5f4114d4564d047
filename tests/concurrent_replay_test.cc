// Concurrent replay coverage: multi-instance replay against the striped
// MemStore and the LSM store (per-instance accounting, namespace
// disjointness, per-instance status reporting), the hash-sharded
// single-trace mode's sequential-equivalence guarantee, and the evaluator's
// latency-sampling semantics.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/hash.h"
#include "src/gadget/multi.h"
#include "src/stores/kvstore.h"
#include "src/stores/memstore.h"

namespace gadget {
namespace {

// Deterministic mixed trace: puts and gets over `num_keys` keys, merge
// operands whose order is observable in the final value.
std::vector<StateAccess> MixedTrace(uint64_t ops, uint64_t num_keys) {
  std::vector<StateAccess> trace;
  trace.reserve(ops);
  for (uint64_t i = 0; i < ops; ++i) {
    OpType op = (i % 5 == 4) ? OpType::kMerge : ((i % 2) ? OpType::kGet : OpType::kPut);
    trace.push_back(StateAccess{op, StateKey{i % num_keys, i % 3}, 32, i});
  }
  return trace;
}

class EightInstancesTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EightInstancesTest, PerInstanceCountsAndDisjointNamespaces) {
  const char* engine = GetParam();
  constexpr int kInstances = 8;
  constexpr uint64_t kStride = 1'000'000;

  std::vector<std::vector<StateAccess>> traces;
  for (int i = 0; i < kInstances; ++i) {
    traces.push_back(MixedTrace(2'000 + 100 * static_cast<uint64_t>(i), 64));
  }
  ScopedTempDir dir;
  StoreOptions sopts;
  sopts.engine = engine;
  sopts.dir = dir.path() + "/db";
  auto store = OpenStore(sopts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto result = ReplayConcurrently(traces, store->get(), {}, kStride);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->all_ok()) << result->FirstError().ToString();
  ASSERT_EQ(result->per_instance.size(), static_cast<size_t>(kInstances));
  ASSERT_EQ(result->statuses.size(), static_cast<size_t>(kInstances));

  uint64_t total = 0;
  double max_single = 0;
  for (int i = 0; i < kInstances; ++i) {
    EXPECT_EQ(result->per_instance[static_cast<size_t>(i)].ops,
              traces[static_cast<size_t>(i)].size())
        << "instance " << i;
    total += result->per_instance[static_cast<size_t>(i)].ops;
    max_single =
        std::max(max_single, result->per_instance[static_cast<size_t>(i)].throughput_ops_per_sec);
  }
  EXPECT_EQ(result->total_ops, total);
  EXPECT_GT(result->combined_throughput_ops_per_sec, max_single);

  // Namespace disjointness: every instance's keys live at hi + i * stride,
  // and nothing leaked into the gaps between namespaces.
  std::string value;
  for (int i = 0; i < kInstances; ++i) {
    StateKey probe{0 + static_cast<uint64_t>(i) * kStride, 0};
    EXPECT_TRUE((*store)->Get(EncodeStateKey(probe), &value).ok())
        << engine << " instance " << i;
    StateKey gap{500'000 + static_cast<uint64_t>(i) * kStride, 0};
    EXPECT_TRUE((*store)->Get(EncodeStateKey(gap), &value).IsNotFound());
  }

  // The merged view accounts for every op without re-recording samples.
  ReplayResult merged = result->Merged();
  EXPECT_EQ(merged.ops, total);
  EXPECT_EQ(merged.latency_ns.count(), total);
  ASSERT_TRUE((*store)->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Engines, EightInstancesTest, ::testing::Values("mem", "lsm"),
                         [](const auto& spec) { return std::string(spec.param); });

// A store whose writes fail: used to verify per-instance status reporting.
class FailingWriteStore : public MemStore {
 public:
  Status Put(std::string_view, std::string_view) override {
    return Status::IoError("injected put failure");
  }
};

TEST(ConcurrentStatusTest, ReportsEveryInstanceStatus) {
  FailingWriteStore store;
  std::vector<StateAccess> reads(100, StateAccess{OpType::kGet, StateKey{1, 0}, 0, 0});
  std::vector<StateAccess> writes(100, StateAccess{OpType::kPut, StateKey{2, 0}, 8, 0});
  std::vector<std::vector<StateAccess>> traces = {reads, writes, reads};
  auto result = ReplayConcurrently(traces, &store, {}, /*stride=*/0);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->all_ok());
  ASSERT_EQ(result->statuses.size(), 3u);
  EXPECT_TRUE(result->statuses[0].ok());
  EXPECT_FALSE(result->statuses[1].ok());
  EXPECT_TRUE(result->statuses[2].ok());
  EXPECT_EQ(result->FirstError().ToString(), result->statuses[1].ToString());
  // The failing instance must not mask the successful instances' results.
  EXPECT_EQ(result->per_instance[0].ops, 100u);
  EXPECT_EQ(result->per_instance[2].ops, 100u);
  EXPECT_EQ(result->total_ops, 200u);
}

TEST(ConcurrentStatusTest, NullStoreIsAnError) {
  std::vector<std::vector<StateAccess>> traces(1);
  traces[0].push_back(StateAccess{OpType::kGet, StateKey{1, 0}, 0, 0});
  auto result = ReplayConcurrently(traces, nullptr);
  EXPECT_FALSE(result.ok());
}

// Sharded replay must produce exactly the state a sequential replay
// produces: hash partitioning keeps each key's accesses ordered on one
// thread (the single-writer-per-key invariant).
TEST(ReplayShardedTest, MatchesSequentialFinalState) {
  const std::vector<StateAccess> trace = MixedTrace(20'000, 128);

  MemStore sequential_store;
  auto sequential = ReplayTrace(trace, &sequential_store);
  ASSERT_TRUE(sequential.ok());

  for (unsigned threads : {1u, 3u, 8u}) {
    MemStore store;
    auto result = ReplaySharded(trace, &store, threads);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->all_ok()) << result->FirstError().ToString();
    ASSERT_EQ(result->per_instance.size(), threads);
    EXPECT_EQ(result->total_ops, trace.size());

    std::map<StateKey, bool> keys;
    for (const StateAccess& a : trace) {
      keys[a.key] = true;
    }
    for (const auto& [key, unused] : keys) {
      std::string expected, actual;
      Status es = sequential_store.Get(EncodeStateKey(key), &expected);
      Status as = store.Get(EncodeStateKey(key), &actual);
      ASSERT_EQ(es.ok(), as.ok()) << threads << " threads";
      if (es.ok()) {
        EXPECT_EQ(actual, expected) << threads << " threads";
      }
    }
  }
}

// The one trace split both replay paths use (ReplaySharded, RunLoadgen): each key
// in exactly one partition, each partition in trace order, sizes summing to
// the limit, and the partition index pinned to Hash64 of the encoded key —
// the wire loadgen's per-client split.
TEST(PartitionTraceTest, KeyDisjointOrderPreservingAndPinnedToEncodedKeyHash) {
  const std::vector<StateAccess> trace = MixedTrace(5'000, 97);
  for (unsigned n : {1u, 3u, 4u, 8u}) {
    for (uint64_t limit : {uint64_t{0}, uint64_t{1'234}, uint64_t{trace.size()}}) {
      uint64_t seen = 0;
      const auto parts = PartitionTrace(trace, limit, n, [&](std::string_view key) {
        EXPECT_EQ(key, EncodeStateKey(trace[seen].key));
        ++seen;
      });
      EXPECT_EQ(seen, limit);
      ASSERT_EQ(parts.size(), n);
      std::map<StateKey, size_t> owner;
      uint64_t total = 0;
      for (size_t p = 0; p < parts.size(); ++p) {
        for (size_t j = 0; j < parts[p].size(); ++j) {
          const StateAccess& a = parts[p][j];
          EXPECT_EQ(Hash64(EncodeStateKey(a.key)) % n, p);
          EXPECT_EQ(owner.emplace(a.key, p).first->second, p) << "key in two partitions";
          // MixedTrace timestamps are trace positions: strictly rising.
          EXPECT_LT(a.timestamp, limit);
          if (j > 0) {
            EXPECT_LT(parts[p][j - 1].timestamp, a.timestamp);
          }
        }
        total += parts[p].size();
      }
      EXPECT_EQ(total, limit);
    }
  }
}

TEST(ReplayShardedTest, MaxOpsBoundsTotalAcrossShards) {
  const std::vector<StateAccess> trace = MixedTrace(10'000, 64);
  MemStore store;
  ReplayOptions opts;
  opts.max_ops = 1'000;
  auto result = ReplaySharded(trace, &store, 4, opts);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->all_ok());
  EXPECT_EQ(result->total_ops, 1'000u);
}

// latency_sample_every = 1 must reproduce the unsampled path exactly: every
// op gets a histogram sample, split across read/write histograms as before.
TEST(LatencySamplingTest, EveryOneMatchesUnsampledPath) {
  const std::vector<StateAccess> trace = MixedTrace(5'000, 64);
  uint64_t reads = 0;
  for (const StateAccess& a : trace) {
    if (a.op == OpType::kGet) {
      ++reads;
    }
  }

  MemStore default_store;
  auto unsampled = ReplayTrace(trace, &default_store);  // default options
  ASSERT_TRUE(unsampled.ok());

  MemStore explicit_store;
  ReplayOptions opts;
  opts.latency_sample_every = 1;
  auto sampled = ReplayTrace(trace, &explicit_store, opts);
  ASSERT_TRUE(sampled.ok());

  for (const ReplayResult* r : {&*unsampled, &*sampled}) {
    EXPECT_EQ(r->ops, trace.size());
    EXPECT_EQ(r->latency_ns.count(), trace.size());
    EXPECT_EQ(r->read_latency_ns.count(), reads);
    EXPECT_EQ(r->write_latency_ns.count(), trace.size() - reads);
    EXPECT_GT(r->latency_ns.max(), 0u);
  }
}

TEST(LatencySamplingTest, SampledModeCountsAllOpsButFewerSamples) {
  const std::vector<StateAccess> trace = MixedTrace(5'000, 64);
  MemStore store;
  ReplayOptions opts;
  opts.latency_sample_every = 16;
  auto result = ReplayTrace(trace, &store, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ops, trace.size());
  // ceil(5000 / 16) sampled ops (i = 0, 16, 32, ...).
  EXPECT_EQ(result->latency_ns.count(), (trace.size() + 15) / 16);
  EXPECT_GT(result->throughput_ops_per_sec, 0);
}

// The on-the-fly key offset must behave exactly like shifting the trace.
TEST(KeyOffsetTest, OffsetEqualsShiftedTrace) {
  std::vector<StateAccess> trace;
  for (uint64_t i = 0; i < 500; ++i) {
    trace.push_back(StateAccess{OpType::kPut, StateKey{i, 7}, 16, i});
  }
  MemStore shifted_store;
  std::vector<StateAccess> shifted = trace;
  for (StateAccess& a : shifted) {
    a.key.hi += 42;
  }
  ASSERT_TRUE(ReplayTrace(shifted, &shifted_store).ok());

  MemStore offset_store;
  ReplayOptions opts;
  opts.key_hi_offset = 42;
  ASSERT_TRUE(ReplayTrace(trace, &offset_store, opts).ok());

  for (uint64_t i = 0; i < 500; ++i) {
    std::string a, b;
    ASSERT_TRUE(shifted_store.Get(EncodeStateKey(StateKey{i + 42, 7}), &a).ok());
    ASSERT_TRUE(offset_store.Get(EncodeStateKey(StateKey{i + 42, 7}), &b).ok());
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace gadget
