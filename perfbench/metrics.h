// The benchmark's own arithmetic: percentiles over exact samples, the
// open-loop ladder's sustained-rate rule, medians of repeated set-ups, and
// the result document every run prints. Kept free of I/O so
// perfbench_test.cc can check it on synthetic inputs.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// A failed or refused request is recorded as this latency, so it lands above
// any latency limit and every percentile that reaches it.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

// Nearest-rank percentile of `sorted` (ascending): the smallest sample such
// that at least p% of samples are <= it. 0 for an empty vector.
double Percentile(const std::vector<double>& sorted, double p);

// The highest of 99.9 / 99 / 90 / 50 that leaves at least ten samples above
// its rank among `samples`, or 0 when fewer than twenty samples exist.
double HighestTailPercentile(uint64_t samples);

// Median of unsorted values (mean of the middle two for an even count).
double Median(std::vector<double> values);

// One step of the open-loop ladder, measured at a fixed offered rate.
struct StepResult {
  double rate = 0;             // offered ops/s (the ladder rung)
  uint64_t offered = 0;        // requests scheduled
  uint64_t completed = 0;      // acknowledged with the expected response
  uint64_t failed = 0;         // error, wrong response type, or never answered
  // Percentiles are the median over short windows of the step (see
  // Summarize in open_loop.h). Latency is timed from the due time, with
  // failures at kFailedLatency; round trip from the actual send time;
  // lag is actual send time minus due time.
  double lat_p50_us = 0;
  double lat_p99_us = 0;
  double lat_p999_us = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  double lag_p99_us = 0;
  double pooled_p99_us = 0;    // over every request of the step, no windows
  double pooled_p999_us = 0;
  double achieved_ops_s = 0;   // completed / (last response - first due)
  uint64_t backlog_at_end = 0; // requests unanswered when the last one was due
  bool sustained = false;      // set by Judge()
};

// Combines repeated runs of one ladder step (same rate): request counts add;
// the percentiles, lag, achieved rate and backlog are medians over the runs,
// so one run disturbed by a scheduling hiccup does not decide the step.
StepResult MedianStep(const std::vector<StepResult>& runs);

// The limits a step must meet to count as sustained.
struct SustainRule {
  double p99_limit_us = 1000;  // the latency limit, on p99 from due time
  double lag_limit_us = 500;   // generator lateness bound, on lag p99
  // A backlog larger than this much time's worth of offered requests at the
  // last due time means the queue grew during the step.
  double backlog_limit_s = 0.001;
};

// Sets step->sustained: every request completed, none failed, p99 within
// the limit, generator lag within bound, and no grown backlog.
void Judge(const SustainRule& rule, StepResult* step);

// The ladder is climbed in ascending rate order and stops counting at the
// first step that is not sustained: returns the index of the last step
// before it, or -1 when the first step already fails. A higher step that
// happens to pass after a failed one does not count.
int MaxSustainedStep(const std::vector<StepResult>& steps);

// One named measurement with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

// A run's outcome: the figures of the last stdout line plus the run
// metadata and labels that go only to the result file.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;   // end-to-end or per-layer set
  std::map<std::string, Metric> extra;     // reported, not gated
  std::map<std::string, std::string> meta; // seed, nproc, kernel, build ...
  std::vector<std::string> problems;       // oracle mismatches and the like

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// The single-line JSON result a run prints last:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string ResultLine(const RunResult& r);

// The full result document (metrics, extra, meta, problems), pretty-printed.
std::string ResultDocument(const RunResult& r);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
