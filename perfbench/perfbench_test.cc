// Tests of the benchmark's own arithmetic (percentiles, the ladder's
// sustained-rate rule, self time from nested spans) and of the counting
// decorator's transparency.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "counting_store.h"
#include "metrics.h"
#include "open_loop.h"
#include "spans.h"
#include "src/common/file_util.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) {
    v.push_back(i);
  }
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = Iota(1000);
  EXPECT_EQ(Percentile(v, 50), 500);
  EXPECT_EQ(Percentile(v, 99), 990);
  EXPECT_EQ(Percentile(v, 99.9), 999);
  EXPECT_EQ(Percentile(v, 100), 1000);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile({}, 50), 0);
  EXPECT_EQ(Percentile({7}, 99.9), 7);
}

TEST(PercentileTest, FailedRequestsSitAboveEveryLimit) {
  std::vector<double> v = Iota(99);
  v.push_back(kFailedLatency);  // one failure in 100 requests
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_TRUE(std::isinf(Percentile(v, 99.5)));
  v.push_back(kFailedLatency);  // two failures: p99 is now a failure
  EXPECT_TRUE(std::isinf(Percentile(v, 99)));
}

TEST(PercentileTest, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(HighestTailPercentile(1'500'000), 99.9);
  EXPECT_EQ(HighestTailPercentile(10'000), 99.9);  // exactly 10 beyond
  EXPECT_EQ(HighestTailPercentile(9'999), 99.0);
  EXPECT_EQ(HighestTailPercentile(1'000), 99.0);
  EXPECT_EQ(HighestTailPercentile(999), 90.0);
  EXPECT_EQ(HighestTailPercentile(20), 50.0);
  EXPECT_EQ(HighestTailPercentile(19), 0.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

StepResult Step(double rate, double p99_us, double lag_us = 50, uint64_t failed = 0,
                uint64_t backlog = 0) {
  StepResult s;
  s.rate = rate;
  s.offered = static_cast<uint64_t>(rate);
  s.failed = failed;
  s.completed = s.offered - failed;
  s.lat_p99_us = p99_us;
  s.lag_p99_us = lag_us;
  s.backlog_at_end = backlog;
  return s;
}

TEST(LadderTest, MaxRateIsHighestSustainedStep) {
  const SustainRule rule;
  std::vector<StepResult> steps = {Step(20000, 150), Step(40000, 300), Step(60000, 900),
                                   Step(80000, 4000), Step(100000, 90000)};
  for (auto& s : steps) {
    Judge(rule, &s);
  }
  EXPECT_TRUE(steps[2].sustained);
  EXPECT_FALSE(steps[3].sustained);
  EXPECT_EQ(MaxSustainedStep(steps), 2);
}

TEST(LadderTest, ClimbStopsAtTheFirstUnsustainedStep) {
  const SustainRule rule;
  std::vector<StepResult> steps = {Step(20000, 150), Step(40000, 1500), Step(60000, 300)};
  for (auto& s : steps) {
    Judge(rule, &s);
  }
  EXPECT_TRUE(steps[2].sustained);
  EXPECT_EQ(MaxSustainedStep(steps), 0);  // 60k passing after 40k failed does not count
  steps[0].sustained = false;
  EXPECT_EQ(MaxSustainedStep(steps), -1);
}

TEST(LadderTest, FailedRequestIsNotSustainedEvenWithLowP99) {
  const SustainRule rule;
  StepResult failing = Step(60000, 200, 50, /*failed=*/1);
  Judge(rule, &failing);
  EXPECT_FALSE(failing.sustained);
  std::vector<StepResult> steps = {Step(20000, 100), Step(40000, 100), failing};
  Judge(rule, &steps[0]);
  Judge(rule, &steps[1]);
  EXPECT_EQ(MaxSustainedStep(steps), 1);
}

TEST(LadderTest, LagOrBacklogDisqualifiesAStep) {
  const SustainRule rule;
  StepResult lagging = Step(40000, 400, /*lag_us=*/800);
  Judge(rule, &lagging);
  EXPECT_FALSE(lagging.sustained);
  // 1 ms of work at 40k ops/s is 40 requests.
  StepResult at_limit = Step(40000, 400, 50, 0, /*backlog=*/40);
  Judge(rule, &at_limit);
  EXPECT_TRUE(at_limit.sustained);
  StepResult grown = Step(40000, 400, 50, 0, /*backlog=*/41);
  Judge(rule, &grown);
  EXPECT_FALSE(grown.sustained);
  EXPECT_EQ(MaxSustainedStep({lagging, grown}), -1);
}

TEST(LadderTest, SummarizeTimesFromDueAndCountsFailuresOverTheLimit) {
  // 100 requests due 1 us apart, each answered 10 us after it was due and
  // sent 2 us late; one never answered.
  std::vector<RequestRecord> recs(100);
  for (int i = 0; i < 100; ++i) {
    recs[i].due_ns = 1'000'000 + i * 1'000;
    recs[i].send_ns = recs[i].due_ns + 2'000;
    recs[i].done_ns = recs[i].due_ns + 10'000;
    recs[i].outcome = RequestRecord::kOk;
  }
  recs[50].outcome = RequestRecord::kFailed;
  const StepResult s = Summarize(recs, 1e6, /*window=*/100);
  EXPECT_EQ(s.offered, 100u);
  EXPECT_EQ(s.completed, 99u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_DOUBLE_EQ(s.lat_p50_us, 10);
  EXPECT_DOUBLE_EQ(s.lat_p99_us, 10);  // rank 99 of 100: the failure is rank 100
  EXPECT_TRUE(std::isinf(s.lat_p999_us));
  EXPECT_DOUBLE_EQ(s.rtt_p50_us, 8);
  EXPECT_DOUBLE_EQ(s.lag_p99_us, 2);
  // Answered after the last due time: the last 10 requests, plus the failure.
  EXPECT_EQ(s.backlog_at_end, 10u + 1u);
  StepResult judged = s;
  Judge(SustainRule(), &judged);
  EXPECT_FALSE(judged.sustained);
}

TEST(LadderTest, MedianStepAddsCountsAndTakesMedianFigures) {
  std::vector<StepResult> runs = {Step(40000, 100), Step(40000, 5000, 900, /*failed=*/2),
                                  Step(40000, 120)};
  runs[0].lat_p50_us = 50;
  runs[1].lat_p50_us = 70;
  runs[2].lat_p50_us = 60;
  const StepResult m = MedianStep(runs);
  EXPECT_EQ(m.rate, 40000);
  EXPECT_EQ(m.offered, 3u * 40000u);
  EXPECT_EQ(m.failed, 2u);
  EXPECT_EQ(m.completed, m.offered - 2);
  EXPECT_DOUBLE_EQ(m.lat_p50_us, 60);
  EXPECT_DOUBLE_EQ(m.lat_p99_us, 120);
  EXPECT_DOUBLE_EQ(m.lag_p99_us, 50);
  StepResult judged = m;
  Judge(SustainRule(), &judged);
  EXPECT_FALSE(judged.sustained);  // the failures still count
}

TEST(LadderTest, WindowMedianSetsAsideOneStalledWindow) {
  // Five windows of 100 requests at 1 us spacing, answered 10 us after they
  // were due, except that window 2 sat behind a 5 ms stall.
  std::vector<RequestRecord> recs(500);
  for (int i = 0; i < 500; ++i) {
    recs[i].due_ns = i * 1'000;
    recs[i].send_ns = recs[i].due_ns;
    recs[i].done_ns = recs[i].due_ns + (i / 100 == 2 ? 5'000'000 : 10'000);
    recs[i].outcome = RequestRecord::kOk;
  }
  const StepResult s = Summarize(recs, 1e6, /*window=*/100);
  EXPECT_DOUBLE_EQ(s.lat_p99_us, 10);
  EXPECT_DOUBLE_EQ(s.pooled_p99_us, 5000);
  EXPECT_DOUBLE_EQ(s.pooled_p999_us, 5000);
  // A ragged last window (here 50 of 100) is dropped from the median.
  recs.resize(450);
  EXPECT_DOUBLE_EQ(Summarize(recs, 1e6, 100).lat_p99_us, 10);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfDirectChildren) {
  SpanLog log;
  const uint32_t n = log.NameId("x");
  const uint32_t root = log.Add(n, kNoParent, 0, 100);
  const uint32_t a = log.Add(n, root, 10, 40);   // overlaps b on [30, 40)
  const uint32_t b = log.Add(n, root, 30, 60);
  const uint32_t c = log.Add(n, root, 90, 120);  // clipped to [90, 100)
  const uint32_t grandchild = log.Add(n, a, 15, 25);
  const std::vector<int64_t> self = SelfTimes(log.spans());
  EXPECT_EQ(self[root], 100 - (60 - 10) - (100 - 90));
  EXPECT_EQ(self[a], 30 - 10);
  EXPECT_EQ(self[b], 30);
  EXPECT_EQ(self[c], 30);
  EXPECT_EQ(self[grandchild], 10);
}

TEST(SpanTest, SelfTimesAddBackUpToTheRootWhenChildrenDoNotOverlap) {
  SpanLog log;
  const uint32_t replay = log.NameId("replay");
  const uint32_t op = log.NameId("store.get");
  const uint32_t root = log.Open(replay, kNoParent, 1000);
  for (int i = 0; i < 10; ++i) {
    log.Add(op, root, 1000 + i * 100 + 20, 1000 + i * 100 + 90);
  }
  log.Close(root, 2000);
  const auto by_name = SelfTimeByName(log);
  EXPECT_EQ(by_name.at("replay"), 10 * 30);
  EXPECT_EQ(by_name.at("store.get"), 10 * 70);
  EXPECT_EQ(by_name.at("replay") + by_name.at("store.get"), 1000);
}

// A replay through CountingStore must drive the engine exactly as one
// without it: same logical StoreStats counters, same final state.
class DecoratorTest : public ::testing::TestWithParam<std::pair<std::string, uint64_t>> {};

TEST_P(DecoratorTest, ReplayThroughDecoratorMatchesDirectReplay) {
  const auto [engine, batch] = GetParam();
  gadget::Config cfg;
  cfg.Set("operator", engine == "btree" ? "sliding_hol" : "tumbling_hol");
  cfg.Set("source", "borg");
  cfg.Set("events", "3000");
  cfg.Set("seed", "7");
  auto trace = gadget::BuildAccessTrace(cfg);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  gadget::ScopedTempDir tmp("perfbench-test");

  auto replay = [&](const std::string& dir, bool decorated,
                    gadget::StoreStats* stats) -> std::unique_ptr<gadget::KVStore> {
    gadget::StoreOptions opts;
    opts.engine = engine;
    opts.dir = tmp.path() + "/" + dir;
    auto store = gadget::OpenStore(opts);
    EXPECT_TRUE(store.ok());
    SpanLog log;
    CountingStore counted(store->get(), &log);
    gadget::ReplayOptions ropts;
    ropts.batch_size = batch;
    auto result = gadget::ReplayTrace(*trace, decorated ? static_cast<gadget::KVStore*>(&counted)
                                                        : store->get(),
                                      ropts);
    EXPECT_TRUE(result.ok());
    if (decorated) {
      EXPECT_EQ(counted.calls(), log.spans().size());
      uint64_t ops = 0;
      for (size_t i = 0; i < kStoreOpCount; ++i) {
        ops += counted.tally(static_cast<StoreOp>(i)).ops;
      }
      EXPECT_EQ(ops, trace->size());
      EXPECT_EQ(counted.stats().gets, (*store)->stats().gets);
      EXPECT_EQ(counted.name(), (*store)->name());
      EXPECT_EQ(counted.supports_merge(), (*store)->supports_merge());
    }
    *stats = (*store)->stats();
    return std::move(*store);
  };
  gadget::StoreStats direct_stats, decorated_stats;
  auto direct = replay("direct", false, &direct_stats);
  auto decorated = replay("decorated", true, &decorated_stats);
  EXPECT_EQ(direct_stats.gets, decorated_stats.gets);
  EXPECT_EQ(direct_stats.puts, decorated_stats.puts);
  EXPECT_EQ(direct_stats.merges, decorated_stats.merges);
  EXPECT_EQ(direct_stats.deletes, decorated_stats.deletes);
  EXPECT_EQ(direct_stats.rmws, decorated_stats.rmws);
  EXPECT_EQ(direct_stats.bytes_written, decorated_stats.bytes_written);
  EXPECT_EQ(direct_stats.bytes_read, decorated_stats.bytes_read);
  EXPECT_EQ(direct_stats.batches, decorated_stats.batches);
  EXPECT_EQ(direct_stats.batched_ops, decorated_stats.batched_ops);
  EXPECT_EQ(direct_stats.wal_bytes, decorated_stats.wal_bytes);

  const std::vector<std::string> keys = DistinctKeys(*trace, trace->size());
  auto mismatches = CountMismatches(direct.get(), decorated.get(), keys);
  ASSERT_TRUE(mismatches.ok());
  EXPECT_EQ(*mismatches, 0u);
  auto oracle = BuildOracle(*trace, trace->size());
  ASSERT_TRUE(oracle.ok());
  auto vs_oracle = CountMismatches(oracle->get(), decorated.get(), keys);
  ASSERT_TRUE(vs_oracle.ok());
  EXPECT_EQ(*vs_oracle, 0u);
  EXPECT_TRUE(direct->Close().ok());
  EXPECT_TRUE(decorated->Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Engines, DecoratorTest,
                         ::testing::Values(std::make_pair(std::string("btree"), uint64_t{1}),
                                           std::make_pair(std::string("lsm"), uint64_t{1}),
                                           std::make_pair(std::string("lsm"), uint64_t{64})));

TEST(MetricCatalogueTest, NamesAreUniqueAndWellFormed) {
  std::vector<std::pair<std::string, std::string>> all = PerLayerMetrics();
  all.insert(all.end(), EndToEndMetrics().begin(), EndToEndMetrics().end());
  std::set<std::string> seen;
  for (const auto& [name, unit] : all) {
    EXPECT_TRUE(seen.insert(name).second) << name;
    EXPECT_LE(name.size(), 64u) << name;
    EXPECT_FALSE(unit.empty()) << name;
  }
  EXPECT_LE(PerLayerMetrics().size(), 128u);
}

}  // namespace
}  // namespace perfbench
