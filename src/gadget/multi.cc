#include "src/gadget/multi.h"

#include <algorithm>
#include <string>
#include <thread>

#include "src/common/hash.h"
#include "src/streams/state_access.h"

namespace gadget {
namespace {

// Common runner: one thread per entry of `traces`, instance i replays with
// key.hi shifted by i * namespace_stride (applied inside ReplayTrace, no
// trace copies). Collects every instance's outcome.
ConcurrentReplayResult RunInstances(const std::vector<const std::vector<StateAccess>*>& traces,
                                    KVStore* store, const ReplayOptions& options,
                                    uint64_t namespace_stride) {
  ConcurrentReplayResult result;
  const size_t n = traces.size();
  std::vector<StatusOr<ReplayResult>> outcomes(n, Status::Internal("instance did not run"));
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ReplayOptions opts = options;
      opts.key_hi_offset += static_cast<uint64_t>(i) * namespace_stride;
      outcomes[i] = ReplayTrace(*traces[i], store, opts);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  result.per_instance.resize(n);
  result.statuses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    result.statuses.push_back(outcomes[i].status());
    if (outcomes[i].ok()) {
      result.combined_throughput_ops_per_sec += outcomes[i]->throughput_ops_per_sec;
      result.total_ops += outcomes[i]->ops;
      result.per_instance[i] = std::move(*outcomes[i]);
    }
  }
  return result;
}

}  // namespace

bool ConcurrentReplayResult::all_ok() const {
  for (const Status& s : statuses) {
    if (!s.ok()) {
      return false;
    }
  }
  return true;
}

Status ConcurrentReplayResult::FirstError() const {
  for (const Status& s : statuses) {
    if (!s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

ReplayResult ConcurrentReplayResult::Merged() const {
  ReplayResult merged;
  for (size_t i = 0; i < per_instance.size(); ++i) {
    if (i < statuses.size() && statuses[i].ok()) {
      merged.MergeFrom(per_instance[i]);
    }
  }
  return merged;
}

StatusOr<ConcurrentReplayResult> ReplayConcurrently(
    const std::vector<std::vector<StateAccess>>& traces, KVStore* store,
    const ReplayOptions& options, uint64_t namespace_stride) {
  if (traces.empty()) {
    return ConcurrentReplayResult{};
  }
  if (store == nullptr) {
    return Status::InvalidArgument("ReplayConcurrently: null store");
  }
  std::vector<const std::vector<StateAccess>*> ptrs;
  ptrs.reserve(traces.size());
  for (const auto& t : traces) {
    ptrs.push_back(&t);
  }
  return RunInstances(ptrs, store, options, namespace_stride);
}

std::vector<std::vector<StateAccess>> PartitionTrace(
    const std::vector<StateAccess>& trace, uint64_t limit, unsigned n,
    const std::function<void(std::string_view encoded_key)>& on_key) {
  std::vector<std::vector<StateAccess>> parts(n);
  for (auto& part : parts) {
    part.reserve(static_cast<size_t>(limit) / n + 1);
  }
  std::string key;
  for (uint64_t i = 0; i < limit; ++i) {
    EncodeStateKeyTo(trace[i].key, &key);
    if (on_key) {
      on_key(key);
    }
    parts[Hash64(key) % n].push_back(trace[i]);
  }
  return parts;
}

StatusOr<ConcurrentReplayResult> ReplaySharded(const std::vector<StateAccess>& trace,
                                               KVStore* store, unsigned num_threads,
                                               const ReplayOptions& options) {
  if (num_threads == 0) {
    return Status::InvalidArgument("ReplaySharded: num_threads must be >= 1");
  }
  if (store == nullptr) {
    return Status::InvalidArgument("ReplaySharded: null store");
  }
  const uint64_t limit = options.max_ops == 0
                             ? trace.size()
                             : std::min<uint64_t>(options.max_ops, trace.size());
  const std::vector<std::vector<StateAccess>> shards = PartitionTrace(trace, limit, num_threads);
  ReplayOptions opts = options;
  opts.max_ops = 0;  // the partition above already enforces the total budget
  std::vector<const std::vector<StateAccess>*> ptrs;
  ptrs.reserve(shards.size());
  for (const auto& s : shards) {
    ptrs.push_back(&s);
  }
  // Stride 0: shards share the workload's key namespace; disjointness comes
  // from the hash partition, not from offsetting.
  return RunInstances(ptrs, store, opts, /*namespace_stride=*/0);
}

}  // namespace gadget
