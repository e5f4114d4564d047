#include "src/gadget/evaluator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "src/stores/batch_coalescer.h"

namespace gadget {
namespace {

using Clock = std::chrono::steady_clock;

inline uint64_t ElapsedNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Collects per-interval TimelineSamples during one replay. The replay loops
// feed it sampled latencies (RecordLatency) and signal after ops/not_found
// advance (OnProgress); an interval closes once the cumulative op count
// reaches the next boundary — exactly on it for the single-op path, at the
// first flush at or after it when batching — and Finish emits the trailing
// ragged interval. Each boundary takes one store->stats() snapshot, whose
// delta against the previous snapshot becomes the sample's stats_delta.
class TimelineCollector {
 public:
  TimelineCollector(const ReplayOptions& options, KVStore* store, ReplayResult* result)
      : interval_(options.timeline_interval_ops), store_(store), result_(result) {}

  bool active() const { return interval_ != 0; }

  void Start(Clock::time_point start) {
    if (!active()) {
      return;
    }
    start_ = interval_start_time_ = start;
    stats_at_start_ = store_->stats();
    next_boundary_ = interval_;
  }

  void RecordLatency(uint64_t ns, bool is_read) {
    if (!active()) {
      return;
    }
    (is_read ? cur_read_ : cur_write_).Record(ns);
  }

  void OnProgress() {
    if (!active() || result_->ops < next_boundary_) {
      return;
    }
    CloseInterval(Clock::now());
    next_boundary_ = result_->ops + interval_;
  }

  void Finish(Clock::time_point end) {
    if (active() && result_->ops > interval_start_ops_) {
      CloseInterval(end);
    }
  }

  // Marks the current interval as containing a checkpoint (the replay time
  // it consumed is attributed to the interval it landed in).
  void NoteCheckpoint(uint64_t duration_micros) {
    if (!active()) {
      return;
    }
    ++cur_checkpoints_;
    cur_checkpoint_micros_ += duration_micros;
  }

 private:
  void CloseInterval(Clock::time_point now) {
    TimelineSample s;
    s.index = result_->timeline.size();
    s.ops = result_->ops - interval_start_ops_;
    s.start_seconds = static_cast<double>(ElapsedNs(start_, interval_start_time_)) / 1e9;
    s.end_seconds = static_cast<double>(ElapsedNs(start_, now)) / 1e9;
    double span = s.end_seconds - s.start_seconds;
    s.ops_per_sec = span > 0 ? static_cast<double>(s.ops) / span : 0;
    s.not_found = result_->not_found - not_found_at_start_;
    // Exchange against fresh histograms: a moved-from LatencyHistogram has no
    // bucket storage and would crash on the next Record.
    s.read_latency_ns = std::exchange(cur_read_, LatencyHistogram());
    s.write_latency_ns = std::exchange(cur_write_, LatencyHistogram());
    s.checkpoints = std::exchange(cur_checkpoints_, 0);
    s.checkpoint_micros = std::exchange(cur_checkpoint_micros_, 0);
    StoreStats stats_now = store_->stats();
    s.stats_delta = stats_now.DeltaSince(stats_at_start_);
    result_->timeline.push_back(std::move(s));
    interval_start_ops_ = result_->ops;
    not_found_at_start_ = result_->not_found;
    interval_start_time_ = now;
    stats_at_start_ = std::move(stats_now);
  }

  const uint64_t interval_;
  KVStore* const store_;
  ReplayResult* const result_;
  Clock::time_point start_;
  Clock::time_point interval_start_time_;
  uint64_t next_boundary_ = 0;
  uint64_t interval_start_ops_ = 0;
  uint64_t not_found_at_start_ = 0;
  StoreStats stats_at_start_;
  LatencyHistogram cur_read_;
  LatencyHistogram cur_write_;
  uint64_t cur_checkpoints_ = 0;
  uint64_t cur_checkpoint_micros_ = 0;
};

// Takes periodic checkpoints during one replay
// (ReplayOptions::checkpoint_every_ops). The replay loops call Due() after
// result->ops advances and Take() at a point where the store state equals the
// exact trace prefix [0, result->ops) — the single-op loop after every op,
// the batched loop after flushing both pending buffers.
class CheckpointDriver {
 public:
  CheckpointDriver(const ReplayOptions& options, KVStore* store, ReplayResult* result,
                   TimelineCollector* tl)
      : every_(options.checkpoint_every_ops),
        dir_(options.checkpoint_dir),
        incremental_(options.checkpoint_incremental),
        store_(store),
        result_(result),
        tl_(tl) {}

  bool active() const { return every_ != 0 && !dir_.empty(); }

  void Start(Clock::time_point start) {
    start_ = start;
    next_ = every_;
  }

  bool Due() const { return active() && result_->ops >= next_; }

  Status Take() {
    CheckpointSample s;
    s.index = result_->checkpoints.size();
    s.trace_pos = result_->ops;
    char name[32];
    std::snprintf(name, sizeof(name), "cp-%06llu", static_cast<unsigned long long>(s.index));
    s.dir = dir_ + "/" + name;
    CheckpointOptions copts;
    if (incremental_ && !result_->checkpoints.empty()) {
      copts.base_dir = result_->checkpoints.back().dir;
    }
    auto t0 = Clock::now();
    auto info = store_->Checkpoint(s.dir, copts);
    if (!info.ok()) {
      return info.status();
    }
    auto t1 = Clock::now();
    s.at_seconds = static_cast<double>(ElapsedNs(start_, t1)) / 1e9;
    s.duration_micros = ElapsedNs(t0, t1) / 1000;
    s.bytes = info->bytes;
    s.files = info->files;
    s.hard_links = info->hard_links;
    s.reused = info->reused;
    tl_->NoteCheckpoint(s.duration_micros);
    result_->checkpoints.push_back(std::move(s));
    next_ = result_->ops + every_;
    return Status::Ok();
  }

 private:
  const uint64_t every_;
  const std::string dir_;
  const bool incremental_;
  KVStore* const store_;
  ReplayResult* const result_;
  TimelineCollector* const tl_;
  Clock::time_point start_;
  uint64_t next_ = 0;
};

}  // namespace

void TimelineSample::MergeFrom(const TimelineSample& other) {
  ops += other.ops;
  not_found += other.not_found;
  start_seconds = std::min(start_seconds, other.start_seconds);
  end_seconds = std::max(end_seconds, other.end_seconds);
  double span = end_seconds - start_seconds;
  ops_per_sec = span > 0 ? static_cast<double>(ops) / span : 0;
  read_latency_ns.Merge(other.read_latency_ns);
  write_latency_ns.Merge(other.write_latency_ns);
  stats_delta.MergeMax(other.stats_delta);
  checkpoints += other.checkpoints;
  checkpoint_micros += other.checkpoint_micros;
}

void ReplayResult::MergeFrom(const ReplayResult& other) {
  ops += other.ops;
  not_found += other.not_found;
  latency_ns.Merge(other.latency_ns);
  read_latency_ns.Merge(other.read_latency_ns);
  write_latency_ns.Merge(other.write_latency_ns);
  elapsed_seconds = std::max(elapsed_seconds, other.elapsed_seconds);
  throughput_ops_per_sec =
      elapsed_seconds > 0 ? static_cast<double>(ops) / elapsed_seconds : 0;
  for (size_t i = 0; i < other.timeline.size(); ++i) {
    if (i < timeline.size()) {
      timeline[i].MergeFrom(other.timeline[i]);
    } else {
      timeline.push_back(other.timeline[i]);
    }
  }
  // Checkpointing runs on one instance; appended samples keep their indices.
  checkpoints.insert(checkpoints.end(), other.checkpoints.begin(), other.checkpoints.end());
}

std::string ReplayResult::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%llu ops in %.2fs -> %.0f ops/s, p50=%.1fus p99.9=%.1fus",
                static_cast<unsigned long long>(ops), elapsed_seconds, throughput_ops_per_sec,
                static_cast<double>(latency_ns.Percentile(50)) / 1000.0,
                static_cast<double>(latency_ns.Percentile(99.9)) / 1000.0);
  return std::string(buf);
}

// One loop serves both modes. With batch_size > 1 the trace streams through
// a BatchCoalescer, which owns the pending WriteBatch and MultiGet keys and
// both same-key conflict rules (see ReplayOptions::batch_size); its flush
// actions are the store calls. Otherwise every access is its own store call.
// Either way a store call is timed when sampled, then its ops are counted.
StatusOr<ReplayResult> ReplayTrace(const std::vector<StateAccess>& trace, KVStore* store,
                                   const ReplayOptions& options) {
  ReplayResult result;
  TimelineCollector tl(options, store, &result);
  CheckpointDriver cp(options, store, &result, &tl);
  const bool has_merge = store->supports_merge();
  const bool batched = options.batch_size > 1;
  // Reusable synthetic value buffer; contents are irrelevant, size matters.
  std::string value_buf;
  std::string read_buf;
  std::vector<std::string> get_values;
  std::vector<Status> get_statuses;

  const uint64_t limit =
      options.max_ops == 0 ? trace.size() : std::min<uint64_t>(options.max_ops, trace.size());
  const double pace_ns =
      options.service_rate_ops_per_sec > 0 ? 1e9 / options.service_rate_ops_per_sec : 0;
  const uint64_t sample_every = std::max<uint64_t>(options.latency_sample_every, 1);
  uint64_t until_sample = 0;  // countdown: avoids a divide per op
  std::string key;  // reused: EncodeStateKeyTo avoids an allocation per op

  auto timed = [&](bool is_read, uint64_t ops, auto&& call) -> Status {
    const bool sampled = until_sample == 0;
    until_sample = sampled ? sample_every - 1 : until_sample - 1;
    Clock::time_point t0;
    if (sampled) {
      t0 = Clock::now();
    }
    GADGET_RETURN_IF_ERROR(call());
    if (sampled) {
      uint64_t ns = ElapsedNs(t0, Clock::now());
      result.latency_ns.Record(ns);
      (is_read ? result.read_latency_ns : result.write_latency_ns).Record(ns);
      tl.RecordLatency(ns, is_read);
    }
    result.ops += ops;
    tl.OnProgress();
    return Status::Ok();
  };
  BatchCoalescer batch(
      static_cast<size_t>(options.batch_size),
      [&](const WriteBatch& wb) {
        return timed(/*is_read=*/false, wb.size(), [&] { return store->Write(wb); });
      },
      [&](const std::vector<std::string>& keys) {
        return timed(/*is_read=*/true, keys.size(), [&]() -> Status {
          // Per-key NotFound stays in the statuses; a non-Ok return is a
          // real error.
          GADGET_RETURN_IF_ERROR(
              store->MultiGet(keys, &get_values, &get_statuses, options.read_options));
          for (const Status& st : get_statuses) {
            if (st.IsNotFound()) {
              ++result.not_found;
            }
          }
          return Status::Ok();
        });
      });

  auto start = Clock::now();
  tl.Start(start);
  cp.Start(start);
  for (uint64_t i = 0; i < limit; ++i) {
    // A due checkpoint first flushes both pending sides, so the image is an
    // exact trace prefix. result.ops only advances at flushes, so like
    // timeline intervals a batched cut can overshoot its boundary by up to
    // batch_size - 1 ops.
    if (cp.Due()) {
      GADGET_RETURN_IF_ERROR(batch.Flush());
      GADGET_RETURN_IF_ERROR(cp.Take());
    }
    const StateAccess& a = trace[i];
    if (pace_ns > 0) {
      auto due =
          start + std::chrono::nanoseconds(static_cast<uint64_t>(pace_ns * static_cast<double>(i)));
      std::this_thread::sleep_until(due);
    }
    StateKey k = a.key;
    k.hi += options.key_hi_offset;
    EncodeStateKeyTo(k, &key);
    if (a.value_size > value_buf.size()) {
      value_buf.resize(a.value_size, 'v');
    }
    std::string_view value(value_buf.data(), a.value_size);

    if (batched) {
      // A batched merge on an engine without native merge applies as an
      // eager RMW, the same translation the single-op path makes below.
      GADGET_RETURN_IF_ERROR(a.op == OpType::kGet ? batch.AddGet(key)
                                                  : batch.AddWrite(ToBatchOp(a.op), key, value));
      continue;
    }
    GADGET_RETURN_IF_ERROR(timed(a.op == OpType::kGet, 1, [&]() -> Status {
      switch (a.op) {
        case OpType::kGet: {
          Status s = store->Get(key, &read_buf, options.read_options);
          if (s.IsNotFound()) {
            ++result.not_found;
            return Status::Ok();
          }
          return s;
        }
        case OpType::kPut:
          return store->Put(key, value);
        case OpType::kMerge:
          return has_merge ? store->Merge(key, value) : store->ReadModifyWrite(key, value);
        case OpType::kDelete:
          return store->Delete(key);
      }
      return Status::Internal("unknown op");
    }));
  }
  GADGET_RETURN_IF_ERROR(batch.Flush());  // trailing partial batches
  auto end = Clock::now();
  tl.Finish(end);
  result.elapsed_seconds = static_cast<double>(ElapsedNs(start, end)) / 1e9;
  result.throughput_ops_per_sec =
      result.elapsed_seconds > 0 ? static_cast<double>(result.ops) / result.elapsed_seconds : 0;
  return result;
}

}  // namespace gadget
