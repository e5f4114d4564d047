// The benchmark's workloads (README.md gives the reasons for each) and the
// helpers they share. Each workload builds its inputs from the seed,
// measures, checks every output against a MemStore oracle, and fills a
// RunResult with either the end-to-end metrics (untraced) or the per-layer
// metrics (traced).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"
#include "spans.h"
#include "src/common/config.h"
#include "src/common/status.h"
#include "src/stores/kvstore.h"
#include "src/streams/state_access.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;   // measured time budget of one run
  bool trace = false;    // per-layer (traced) run instead of end-to-end
  std::string workdir;   // work directory for stores, spans and results
  std::string gadget;    // the `gadget` CLI, spawned as the wire server
};

// Runs one workload. A non-OK status is a harness failure (the run prints no
// result); output mismatches are recorded in *result instead.
gadget::Status RunWorkload(const RunOptions& options, RunResult* result);

// The wire workloads (wire_workload.cc); RunWorkload dispatches to them.
gadget::Status RunIncrWireClosed(const RunOptions& options, RunResult* result);
gadget::Status RunIncrWireOpen(const RunOptions& options, RunResult* result);

// --- shared helpers -----------------------------------------------------------

// Every end-to-end metric name with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

// Every per-layer metric name with its unit. A workload that does not reach
// a layer reports that layer's counts as 0.
std::vector<std::pair<std::string, std::string>> PerLayerMetrics();

// Set-ups per run; their median is reported as setup_s.
inline constexpr int kSetupReps = 3;

// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Seconds between two NowNs() readings.
inline double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB.
double PeakRssMib(int pid);

// Every distinct key of trace[0, limit), encoded.
std::vector<std::string> DistinctKeys(const std::vector<gadget::StateAccess>& trace,
                                      uint64_t limit);

// The oracle: trace[0, limit) replayed into a fresh MemStore. `not_found`,
// when set, receives how many of the replay's gets found no value.
gadget::StatusOr<std::unique_ptr<gadget::KVStore>> BuildOracle(
    const std::vector<gadget::StateAccess>& trace, uint64_t limit, uint64_t* not_found = nullptr);

// Compares `store` (a KVStore, or a wire::Client reading the server's state)
// against `oracle` on every key, in MultiGet chunks; returns the number of
// keys whose result (found/not-found and value) differs.
template <typename Store>
gadget::StatusOr<uint64_t> CountMismatches(gadget::KVStore* oracle, Store* store,
                                           const std::vector<std::string>& keys) {
  constexpr size_t kChunk = 256;
  uint64_t mismatches = 0;
  std::vector<std::string> chunk, want, got;
  std::vector<gadget::Status> want_st, got_st;
  for (size_t i = 0; i < keys.size(); i += kChunk) {
    chunk.assign(keys.begin() + static_cast<ptrdiff_t>(i),
                 keys.begin() + static_cast<ptrdiff_t>(std::min(keys.size(), i + kChunk)));
    GADGET_RETURN_IF_ERROR(oracle->MultiGet(chunk, &want, &want_st));
    GADGET_RETURN_IF_ERROR(store->MultiGet(chunk, &got, &got_st));
    for (size_t j = 0; j < chunk.size(); ++j) {
      const bool match = want_st[j].IsNotFound() ? got_st[j].IsNotFound()
                                                 : (got_st[j].ok() && got[j] == want[j]);
      mismatches += match ? 0 : 1;
    }
  }
  return mismatches;
}

// Evicts the page cache of every regular file under `dir` (fsyncs first so
// the pages are clean), so a following read comes from the device.
gadget::Status DropPageCache(const std::string& dir);

// Writes back every dirty page of the file system holding `dir` (syncfs),
// so earlier writes do not flush inside a later measurement.
gadget::Status SyncFileSystem(const std::string& dir);

// Recursively removes `dir` if present and creates it empty.
gadget::Status FreshDir(const std::string& dir);

// One checkpoint/restore cycle: checkpoints every store of `stores` into
// `dir` (one image each, times summed), drops the images' page cache, and
// restores each image with RestoreStore into a cold pool of its own. Dirty
// pages left by earlier writes are synced before the checkpoint is timed.
struct CheckpointCycle {
  double checkpoint_s = 0;
  double recover_s = 0;
  gadget::CheckpointInfo info;  // summed over stores
  std::vector<std::unique_ptr<gadget::KVStore>> restored;
};
gadget::StatusOr<CheckpointCycle> CheckpointAndRestore(const std::vector<gadget::KVStore*>& stores,
                                                       const gadget::StoreOptions& base,
                                                       const gadget::BufferPoolOptions& pool,
                                                       const std::string& dir, SpanLog* spans);

// Sets the btree.* (engine "btree") or lsm.* per-layer metrics that come
// from StoreStats.
void SetStoreStatsLayers(const gadget::StoreStats& stats, const std::string& engine,
                         RunResult* result);

// (device bytes written + WAL bytes) / user bytes written.
double WriteAmp(const gadget::StoreStats& stats);

// Reports the self time of each span name as extra `self_s.<name>` figures
// and writes the spans to <workdir>/spans-<workload>-seed<n>.tsv.
gadget::Status WriteSpans(const RunOptions& options, const SpanLog& log, RunResult* result);

// Fills the metadata every result carries: seed, nproc, kernel, git
// describe, build type, sync_writes.
void FillRunMeta(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
