// Multi-instance evaluation (§6.4 and the §8 external-state direction):
// several Gadget workload traces replayed concurrently against ONE store
// instance, one thread per instance, per-instance measurements. The dataflow
// model's single-writer-per-key guarantee is preserved by giving each
// instance a disjoint key namespace (ReplayConcurrently) or by partitioning
// one trace so each key's accesses all land on the same thread
// (ReplaySharded).
#ifndef GADGET_GADGET_MULTI_H_
#define GADGET_GADGET_MULTI_H_

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "src/gadget/evaluator.h"

namespace gadget {

struct ConcurrentReplayResult {
  // One entry per instance. per_instance[i] is meaningful only when
  // statuses[i].ok(); failed instances leave a default-constructed result.
  std::vector<ReplayResult> per_instance;
  std::vector<Status> statuses;
  double combined_throughput_ops_per_sec = 0;  // sum over ok instances
  uint64_t total_ops = 0;                      // sum over ok instances

  bool all_ok() const;
  // Ok() when every instance succeeded; otherwise the first failure.
  Status FirstError() const;
  // Bucket-wise merge of all ok instances' measurements (cheap: no
  // per-sample work).
  ReplayResult Merged() const;
};

// Replays every trace in `traces` concurrently against `store`. Each
// instance i has its key.hi space offset by i * namespace_stride so writers
// never collide (pass 0 to keep keys as-is). The offset is applied on the
// fly inside the replay loop — traces are never copied. Blocks until all
// instances finish and reports every instance's status (a failing instance
// does not mask the others' results).
StatusOr<ConcurrentReplayResult> ReplayConcurrently(
    const std::vector<std::vector<StateAccess>>& traces, KVStore* store,
    const ReplayOptions& options = {}, uint64_t namespace_stride = 1ull << 32);

// Splits trace[0, limit) into `n` partitions by key: an access goes to
// partition Hash64(EncodeStateKey(key)) % n. Every access to a key lands in
// one partition, in trace order, so replaying the partitions concurrently
// preserves per-key order. This is the one split both replay paths use:
// ReplaySharded in process and RunLoadgen over the wire. `on_key`, when set,
// sees each access's encoded key, so a caller that needs it too (loadgen's
// router histogram) encodes each key once. `limit` must not exceed
// trace.size(); `n` must be >= 1.
std::vector<std::vector<StateAccess>> PartitionTrace(
    const std::vector<StateAccess>& trace, uint64_t limit, unsigned n,
    const std::function<void(std::string_view encoded_key)>& on_key = nullptr);

// Partitions ONE trace across `num_threads` workers with PartitionTrace and
// replays the partitions concurrently against `store`. All accesses to a
// given key stay on one thread in their original order, so the
// single-writer-per-key invariant holds and the final store state equals a
// sequential replay.
// This is the Fig. 14 thread-sweep mode: one workload, one store, 1..N
// threads. options.max_ops bounds the TOTAL op count across shards.
StatusOr<ConcurrentReplayResult> ReplaySharded(const std::vector<StateAccess>& trace,
                                               KVStore* store, unsigned num_threads,
                                               const ReplayOptions& options = {});

}  // namespace gadget

#endif  // GADGET_GADGET_MULTI_H_
