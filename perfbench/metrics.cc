#include "metrics.h"

#include <algorithm>
#include <cmath>

#include "src/common/json.h"

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const double n = static_cast<double>(sorted.size());
  // Rank ceil(p/100 * n), 1-based, clamped into [1, n].
  double rank = std::ceil(p / 100.0 * n - 1e-9);
  rank = std::clamp(rank, 1.0, n);
  return sorted[static_cast<size_t>(rank) - 1];
}

double HighestTailPercentile(uint64_t samples) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    const double beyond =
        static_cast<double>(samples) - std::ceil(p / 100.0 * static_cast<double>(samples) - 1e-9);
    if (beyond >= 10) {
      return p;
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

StepResult MedianStep(const std::vector<StepResult>& runs) {
  StepResult m;
  if (runs.empty()) {
    return m;
  }
  m.rate = runs[0].rate;
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const StepResult& r : runs) {
      v.push_back(static_cast<double>(r.*field));
    }
    return Median(v);
  };
  for (const StepResult& r : runs) {
    m.offered += r.offered;
    m.completed += r.completed;
    m.failed += r.failed;
  }
  m.lat_p50_us = median_of(&StepResult::lat_p50_us);
  m.lat_p99_us = median_of(&StepResult::lat_p99_us);
  m.lat_p999_us = median_of(&StepResult::lat_p999_us);
  m.rtt_p50_us = median_of(&StepResult::rtt_p50_us);
  m.rtt_p99_us = median_of(&StepResult::rtt_p99_us);
  m.lag_p99_us = median_of(&StepResult::lag_p99_us);
  m.pooled_p99_us = median_of(&StepResult::pooled_p99_us);
  m.pooled_p999_us = median_of(&StepResult::pooled_p999_us);
  m.achieved_ops_s = median_of(&StepResult::achieved_ops_s);
  m.backlog_at_end = static_cast<uint64_t>(median_of(&StepResult::backlog_at_end));
  return m;
}

void Judge(const SustainRule& rule, StepResult* step) {
  const double backlog_limit = step->rate * rule.backlog_limit_s;
  step->sustained = step->offered > 0 && step->failed == 0 &&
                    step->completed == step->offered &&
                    step->lat_p99_us <= rule.p99_limit_us &&
                    step->lag_p99_us <= rule.lag_limit_us &&
                    static_cast<double>(step->backlog_at_end) <= backlog_limit;
}

int MaxSustainedStep(const std::vector<StepResult>& steps) {
  int best = -1;
  for (size_t i = 0; i < steps.size() && steps[i].sustained; ++i) {
    best = static_cast<int>(i);
  }
  return best;
}

namespace {

gadget::JsonValue MetricsJson(const std::map<std::string, Metric>& metrics) {
  gadget::JsonValue obj = gadget::JsonValue::MakeObject();
  for (const auto& [name, m] : metrics) {
    gadget::JsonValue v = gadget::JsonValue::MakeObject();
    v.Set("value", m.value);
    v.Set("unit", m.unit);
    obj.Set(name, std::move(v));
  }
  return obj;
}

gadget::JsonValue HeadJson(const RunResult& r) {
  gadget::JsonValue doc = gadget::JsonValue::MakeObject();
  doc.Set("correct", r.correct);
  doc.Set("attempted", r.attempted);
  doc.Set("failed", r.failed);
  doc.Set("metrics", MetricsJson(r.metrics));
  return doc;
}

}  // namespace

std::string ResultLine(const RunResult& r) { return HeadJson(r).Write(); }

std::string ResultDocument(const RunResult& r) {
  gadget::JsonValue doc = HeadJson(r);
  doc.Set("extra", MetricsJson(r.extra));
  gadget::JsonValue meta = gadget::JsonValue::MakeObject();
  for (const auto& [k, v] : r.meta) {
    meta.Set(k, v);
  }
  doc.Set("meta", std::move(meta));
  gadget::JsonValue problems = gadget::JsonValue::MakeArray();
  for (const std::string& p : r.problems) {
    problems.Append(p);
  }
  doc.Set("problems", std::move(problems));
  return doc.Write(2);
}

}  // namespace perfbench
