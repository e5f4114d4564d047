#include "workloads.h"

#include <fcntl.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "counting_store.h"
#include "src/common/file_util.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/harness.h"
#include "src/gadget/report.h"

namespace perfbench {

using gadget::Status;
using gadget::StatusOr;

namespace {

// An in-process replay workload: the trace it generates and the store it
// replays into.
struct InProcSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> trace_keys;  // harness config keys
  std::string engine;
  uint64_t pool_bytes = 0;  // 0 keeps the BufferPoolOptions default
  uint64_t batch_size = 1;
};

gadget::Config TraceConfig(const InProcSpec& spec, uint64_t seed) {
  gadget::Config c;
  for (const auto& [k, v] : spec.trace_keys) {
    c.Set(k, v);
  }
  c.Set("seed", std::to_string(seed));
  return c;
}

// The per-layer figures a replay produced, for the traced run.
struct LayerSample {
  double replay_s = 0;
  uint64_t ops = 0;
  double throughput = 0;
  int64_t store_busy_ns = 0;
  uint64_t store_calls = 0;
  std::array<OpTally, kStoreOpCount> tallies{};
  gadget::StoreStats stats;  // delta over the replay
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0, pool_pins = 0;
  uint64_t io_waves = 0, io_reads = 0, io_in_flight_max = 0;
  bool io_uring = false;
  int64_t evaluator_self_ns = 0;
};

void SetOpMetrics(RunResult* r, const std::string& layer, const std::vector<StoreOp>& ops,
                  const std::array<OpTally, kStoreOpCount>& tallies) {
  for (StoreOp op : ops) {
    const OpTally& t = tallies[static_cast<size_t>(op)];
    const std::string base = layer + "." + StoreOpName(op);
    r->Set(base + ".calls", static_cast<double>(t.calls), "count");
    r->Set(base + ".busy_s", static_cast<double>(t.busy_ns) / 1e9, "s");
    r->Set(base + ".ns_per_call",
           t.calls == 0 ? 0 : static_cast<double>(t.busy_ns) / static_cast<double>(t.calls), "ns");
  }
}

}  // namespace

// --- metric catalogue ----------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},       {"throughput_ops_s", "ops/s"}, {"lat_p50_us", "us"},
      {"peak_rss_mb", "MiB"}, {"write_amp", "ratio"},
  };
  return m;
}

std::vector<std::pair<std::string, std::string>> PerLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"tracegen.s", "s"},
      {"tracegen.accesses_per_s", "1/s"},
      {"replay.s", "s"},
      {"replay.lat_p999_us", "us"},
      {"evaluator.self_s", "s"},
      {"evaluator.self_ns_per_op", "ns"},
      {"evaluator.ops_per_store_call", "ratio"},
      {"store.self_s", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  auto ops = [&](const std::string& layer, const std::vector<StoreOp>& list) {
    for (StoreOp op : list) {
      const std::string base = layer + "." + StoreOpName(op);
      m.push_back({base + ".calls", "count"});
      m.push_back({base + ".busy_s", "s"});
      m.push_back({base + ".ns_per_call", "ns"});
    }
  };
  ops("btree", {StoreOp::kGet, StoreOp::kRmw, StoreOp::kDelete});
  m.insert(m.end(), {{"btree.page_bytes_written", "B"},
                     {"btree.page_bytes_read", "B"},
                     {"btree.flushes", "count"},
                     {"btree.evictions", "count"}});
  ops("lsm", {StoreOp::kGet, StoreOp::kMerge, StoreOp::kDelete, StoreOp::kWrite,
              StoreOp::kMultiGet});
  m.insert(m.end(), {{"lsm.flushes", "count"},
                     {"lsm.flush_s", "s"},
                     {"lsm.compactions", "count"},
                     {"lsm.compaction_s", "s"},
                     {"lsm.stall_s", "s"},
                     {"lsm.slowdown_s", "s"},
                     {"lsm.wal_bytes", "B"},
                     {"lsm.io_bytes_written", "B"},
                     {"lsm.io_bytes_read", "B"},
                     {"lsm.read_bytes_per_get", "B"},
                     {"lsm.l0_files", "count"},
                     {"lsm.level_files_total", "count"},
                     {"pool.hit_ratio", "ratio"},
                     {"pool.hits", "count"},
                     {"pool.misses", "count"},
                     {"pool.evictions", "count"},
                     {"pool.pins", "count"},
                     {"io.waves", "count"},
                     {"io.reads_per_wave", "ratio"},
                     {"io.in_flight_max", "count"},
                     {"io.uring_active", "bool"},
                     {"checkpoint.s", "s"},
                     {"restore.s", "s"},
                     {"checkpoint.bytes", "B"},
                     {"checkpoint.files", "count"},
                     {"checkpoint.hard_links", "count"},
                     {"restore.verified_keys", "count"},
                     {"shard.skew", "ratio"},
                     {"shard.max_ops", "count"},
                     {"shard.ops_per_store_call", "ratio"},
                     {"net.bytes_in", "B"},
                     {"net.bytes_out", "B"},
                     {"net.writev_calls", "count"},
                     {"net.frames_per_writev", "ratio"},
                     {"net.outq_stall_s", "s"},
                     {"net.outq_bytes_max", "B"},
                     {"net.reactor_frames", "count"},
                     {"wire.rtt_p50_us", "us"},
                     {"wire.rtt_p99_us", "us"}});
  return m;
}

// --- shared helpers ------------------------------------------------------------

double PeakRssMib(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::vector<std::string> DistinctKeys(const std::vector<gadget::StateAccess>& trace,
                                      uint64_t limit) {
  std::unordered_set<gadget::StateKey, gadget::StateKeyHash> seen;
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < limit && i < trace.size(); ++i) {
    if (seen.insert(trace[i].key).second) {
      keys.push_back(gadget::EncodeStateKey(trace[i].key));
    }
  }
  return keys;
}

StatusOr<std::unique_ptr<gadget::KVStore>> BuildOracle(
    const std::vector<gadget::StateAccess>& trace, uint64_t limit, uint64_t* not_found) {
  gadget::StoreOptions opts;
  opts.engine = "mem";
  auto oracle = gadget::OpenStore(opts);
  if (!oracle.ok()) {
    return oracle.status();
  }
  gadget::ReplayOptions ropts;
  ropts.max_ops = limit;
  auto replay = gadget::ReplayTrace(trace, oracle->get(), ropts);
  if (!replay.ok()) {
    return replay.status();
  }
  if (not_found != nullptr) {
    *not_found = replay->not_found;
  }
  return std::move(*oracle);
}

Status DropPageCache(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IoError("open " + entry.path().string());
    }
    (void)::fdatasync(fd);  // clean pages are the only ones the kernel drops
    (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
  return ec ? Status::IoError("walk " + dir + ": " + ec.message()) : Status::Ok();
}

Status SyncFileSystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open " + dir);
  }
  const int rc = ::syncfs(fd);
  ::close(fd);
  return rc == 0 ? Status::Ok() : Status::IoError("syncfs " + dir);
}

Status FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!ec) {
    std::filesystem::create_directories(dir, ec);
  }
  return ec ? Status::IoError("cannot recreate " + dir + ": " + ec.message()) : Status::Ok();
}

void FillRunMeta(const RunOptions& options, RunResult* r) {
  r->meta["workload"] = options.workload;
  r->meta["seed"] = std::to_string(options.seed);
  r->meta["seconds"] = std::to_string(options.seconds);
  r->meta["traced"] = options.trace ? "1" : "0";
  r->meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  utsname u{};
  if (::uname(&u) == 0) {
    r->meta["kernel"] = std::string(u.sysname) + " " + u.release + " " + u.machine;
  }
  const std::string git = gadget::GitDescribe();
  r->meta["git"] = git.empty() ? "unknown" : git;
  r->meta["build_type"] = PERFBENCH_BUILD_TYPE;
  r->meta["sync_writes"] = "0";
  r->meta["flush_policy"] =
      "sync_writes=0: WAL appended without per-commit fsync, memtables flushed in the "
      "background";
}

Status WriteSpans(const RunOptions& o, const SpanLog& log, RunResult* r) {
  for (const auto& [name, ns] : SelfTimeByName(log)) {
    r->Extra("self_s." + name, static_cast<double>(ns) / 1e9, "s");
  }
  const std::string span_path =
      o.workdir + "/spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".tsv";
  GADGET_RETURN_IF_ERROR(log.WriteTsv(span_path));
  r->meta["spans"] = span_path;
  return Status::Ok();
}

void SetStoreStatsLayers(const gadget::StoreStats& s, const std::string& engine, RunResult* r) {
  if (engine == "btree") {
    r->Set("btree.page_bytes_written", static_cast<double>(s.io_bytes_written), "B");
    r->Set("btree.page_bytes_read", static_cast<double>(s.io_bytes_read), "B");
    r->Set("btree.flushes", static_cast<double>(s.flushes), "count");
    r->Set("btree.evictions", static_cast<double>(s.cache_evictions), "count");
    return;
  }
  r->Set("lsm.flushes", static_cast<double>(s.flushes), "count");
  r->Set("lsm.flush_s", static_cast<double>(s.flush_micros) / 1e6, "s");
  r->Set("lsm.compactions", static_cast<double>(s.compactions), "count");
  r->Set("lsm.compaction_s", static_cast<double>(s.compaction_micros) / 1e6, "s");
  r->Set("lsm.stall_s", static_cast<double>(s.stall_micros) / 1e6, "s");
  r->Set("lsm.slowdown_s", static_cast<double>(s.slowdown_micros) / 1e6, "s");
  r->Set("lsm.wal_bytes", static_cast<double>(s.wal_bytes), "B");
  r->Set("lsm.io_bytes_written", static_cast<double>(s.io_bytes_written), "B");
  r->Set("lsm.io_bytes_read", static_cast<double>(s.io_bytes_read), "B");
  r->Set("lsm.read_bytes_per_get",
         Ratio(static_cast<double>(s.io_bytes_read), static_cast<double>(s.gets)), "B");
  uint64_t total = 0;
  for (uint64_t n : s.level_files) {
    total += n;
  }
  r->Set("lsm.l0_files", s.level_files.empty() ? 0 : static_cast<double>(s.level_files[0]),
         "count");
  r->Set("lsm.level_files_total", static_cast<double>(total), "count");
}

double WriteAmp(const gadget::StoreStats& s) {
  return Ratio(static_cast<double>(s.io_bytes_written + s.wal_bytes),
               static_cast<double>(s.bytes_written));
}

// --- in-process replay workloads -----------------------------------------------

namespace {

gadget::StoreOptions StoreOptionsFor(const InProcSpec& spec, const std::string& dir,
                                     std::shared_ptr<gadget::BufferPool> pool) {
  gadget::StoreOptions opts;
  opts.engine = spec.engine;
  opts.dir = dir;
  opts.shared_pool = std::move(pool);
  opts.sync_writes = false;
  opts.batch_size = spec.batch_size;
  return opts;
}

gadget::BufferPoolOptions PoolOptionsFor(const InProcSpec& spec) {
  gadget::BufferPoolOptions p;
  if (spec.pool_bytes != 0) {
    p.capacity_bytes = spec.pool_bytes;
  }
  return p;
}

// One measured replay into a freshly opened store.
struct Replayed {
  std::shared_ptr<gadget::BufferPool> pool;
  std::unique_ptr<gadget::KVStore> store;
  gadget::ReplayResult result;
  LayerSample layers;
};

StatusOr<Replayed> ReplayFresh(const InProcSpec& spec, const std::vector<gadget::StateAccess>& trace,
                               const std::string& dir, std::shared_ptr<gadget::BufferPool> pool,
                               std::unique_ptr<gadget::KVStore> store, SpanLog* spans) {
  Replayed out;
  out.pool = pool != nullptr ? std::move(pool)
                             : std::make_shared<gadget::BufferPool>(PoolOptionsFor(spec));
  if (store == nullptr) {
    GADGET_RETURN_IF_ERROR(FreshDir(dir));
    auto opened = gadget::OpenStore(StoreOptionsFor(spec, dir, out.pool));
    if (!opened.ok()) {
      return opened.status();
    }
    store = std::move(*opened);
  }
  out.store = std::move(store);
  gadget::ReplayOptions ropts;
  ropts.batch_size = spec.batch_size;
  const gadget::StoreStats before = out.store->stats();
  std::unique_ptr<CountingStore> counted;
  gadget::KVStore* target = out.store.get();
  uint32_t replay_span = kNoParent;
  const int64_t t0 = NowNs();
  if (spans != nullptr) {
    counted = std::make_unique<CountingStore>(out.store.get(), spans);
    replay_span = spans->Open(spans->NameId("replay"), kNoParent, t0);
    counted->set_parent(replay_span);
    target = counted.get();
  }
  auto result = gadget::ReplayTrace(trace, target, ropts);
  const int64_t t1 = NowNs();
  if (!result.ok()) {
    return result.status();
  }
  out.result = std::move(*result);
  LayerSample& l = out.layers;
  l.replay_s = Seconds(t0, t1);
  l.ops = out.result.ops;
  l.throughput = out.result.throughput_ops_per_sec;
  l.stats = out.store->stats().DeltaSince(before);
  l.pool_hits = out.pool->hits();
  l.pool_misses = out.pool->misses();
  l.pool_evictions = out.pool->evictions();
  l.pool_pins = out.pool->pins();
  l.io_waves = out.pool->io().batches();
  l.io_reads = out.pool->io().reads();
  l.io_in_flight_max = out.pool->io().in_flight_max();
  l.io_uring = out.pool->io().using_io_uring();
  if (counted != nullptr) {
    spans->Close(replay_span, t1);
    l.store_busy_ns = counted->busy_ns();
    l.store_calls = counted->calls();
    for (size_t i = 0; i < kStoreOpCount; ++i) {
      l.tallies[i] = counted->tally(static_cast<StoreOp>(i));
    }
    l.evaluator_self_ns = (t1 - t0) - l.store_busy_ns;
  }
  return out;
}

void SetPoolLayers(const LayerSample& l, RunResult* r) {
  const double hits = static_cast<double>(l.pool_hits);
  const double misses = static_cast<double>(l.pool_misses);
  r->Set("pool.hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Set("pool.hits", hits, "count");
  r->Set("pool.misses", misses, "count");
  r->Set("pool.evictions", static_cast<double>(l.pool_evictions), "count");
  r->Set("pool.pins", static_cast<double>(l.pool_pins), "count");
  r->Set("io.waves", static_cast<double>(l.io_waves), "count");
  r->Set("io.reads_per_wave",
         Ratio(static_cast<double>(l.io_reads), static_cast<double>(l.io_waves)), "ratio");
  r->Set("io.in_flight_max", static_cast<double>(l.io_in_flight_max), "count");
  r->Set("io.uring_active", l.io_uring ? 1 : 0, "bool");
}

}  // namespace

StatusOr<CheckpointCycle> CheckpointAndRestore(const std::vector<gadget::KVStore*>& stores,
                                               const gadget::StoreOptions& base,
                                               const gadget::BufferPoolOptions& pool,
                                               const std::string& dir, SpanLog* spans) {
  CheckpointCycle out;
  GADGET_RETURN_IF_ERROR(FreshDir(dir));
  // The replay left gigabytes of dirty pages in the page cache (btree page
  // writes, SSTables); their writeback must not land inside the timed fsyncs.
  GADGET_RETURN_IF_ERROR(SyncFileSystem(dir));
  std::vector<std::string> images;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < stores.size(); ++i) {
    images.push_back(dir + "/image-" + std::to_string(i));
    auto info = stores[i]->Checkpoint(images.back());
    if (!info.ok()) {
      return info.status();
    }
    out.info.bytes += info->bytes;
    out.info.files += info->files;
    out.info.hard_links += info->hard_links;
  }
  const int64_t t1 = NowNs();
  GADGET_RETURN_IF_ERROR(DropPageCache(dir));
  const int64_t t2 = NowNs();
  for (size_t i = 0; i < stores.size(); ++i) {
    gadget::StoreOptions opts = base;
    opts.dir = dir + "/restored-" + std::to_string(i);
    opts.shared_pool = std::make_shared<gadget::BufferPool>(pool);  // cold, this restore's own
    auto restored = gadget::RestoreStore(opts, images[i]);
    if (!restored.ok()) {
      return restored.status();
    }
    out.restored.push_back(std::move(*restored));
  }
  const int64_t t3 = NowNs();
  out.checkpoint_s = Seconds(t0, t1);
  out.recover_s = Seconds(t2, t3);
  if (spans != nullptr) {
    spans->Add(spans->NameId("checkpoint"), kNoParent, t0, t1);
    spans->Add(spans->NameId("restore"), kNoParent, t2, t3);
  }
  return out;
}

namespace {

Status RunInProcess(const InProcSpec& spec, const RunOptions& o, RunResult* r) {
  const std::string root = o.workdir + "/" + spec.name;
  SpanLog log;
  SpanLog* spans = o.trace ? &log : nullptr;
  const gadget::Config cfg = TraceConfig(spec, o.seed);

  // Set-up, repeated: trace build plus store open. The last repetition's
  // trace and store are the ones replayed.
  std::vector<double> setup_s, tracegen_s;
  std::vector<gadget::StateAccess> trace;
  std::shared_ptr<gadget::BufferPool> pool;
  std::unique_ptr<gadget::KVStore> store;
  std::string store_dir;
  for (int i = 0; i < kSetupReps; ++i) {
    if (store != nullptr) {
      GADGET_RETURN_IF_ERROR(store->Close());
      store.reset();
      std::filesystem::remove_all(store_dir);
    }
    trace.clear();
    trace.shrink_to_fit();
    store_dir = root + "/store-setup-" + std::to_string(i);
    GADGET_RETURN_IF_ERROR(FreshDir(store_dir));
    const int64_t t0 = NowNs();
    auto built = gadget::BuildAccessTrace(cfg);
    if (!built.ok()) {
      return built.status();
    }
    const int64_t t1 = NowNs();
    pool = std::make_shared<gadget::BufferPool>(PoolOptionsFor(spec));
    auto opened = gadget::OpenStore(StoreOptionsFor(spec, store_dir, pool));
    if (!opened.ok()) {
      return opened.status();
    }
    const int64_t t2 = NowNs();
    trace = std::move(*built);
    store = std::move(*opened);
    setup_s.push_back(Seconds(t0, t2));
    tracegen_s.push_back(Seconds(t0, t1));
    if (spans != nullptr) {
      const uint32_t s = log.Add(log.NameId("setup"), kNoParent, t0, t2);
      log.Add(log.NameId("tracegen"), s, t0, t1);
      log.Add(log.NameId("store.open"), s, t1, t2);
    }
  }
  r->meta["trace_accesses"] = std::to_string(trace.size());
  r->meta["engine"] = spec.engine;
  r->meta["batch_size"] = std::to_string(spec.batch_size);
  r->meta["buffer_pool_bytes"] = std::to_string(pool->capacity_bytes());
  r->meta["io_backend"] = pool->io().using_io_uring() ? "io_uring" : "pread";

  // Replays. Untraced: fresh-store replays until the time budget is spent
  // (at least one; the last may run past it). Traced: one untraced replay
  // (the overhead baseline) and one through the counting decorator with spans.
  // Each replayed store is checkpointed and restored cold right after its
  // replay, so every checkpoint writes back what that replay left dirty.
  std::vector<double> tputs, p50s, p99s, p999s, write_amps, checkpoint_s, recover_s;
  uint64_t lat_samples = 0;
  uint64_t attempted = 0;
  double peak_rss = 0;
  Replayed last;
  LayerSample untraced_sample;
  CheckpointCycle cycle;
  std::string cycle_dir;
  const int64_t budget_t0 = NowNs();
  for (int rep = 0;; ++rep) {
    const bool traced_rep = o.trace && rep == 1;
    if (rep > 0) {
      GADGET_RETURN_IF_ERROR(last.store->Close());
      last.store.reset();
      for (auto& s : cycle.restored) {
        GADGET_RETURN_IF_ERROR(s->Close());
      }
      cycle.restored.clear();
      // Reclaim the previous replay's disk.
      std::filesystem::remove_all(store_dir);
      std::filesystem::remove_all(cycle_dir);
      store_dir = root + "/store-rep-" + std::to_string(rep);
    }
    // Start each replay with no writeback pending from the previous one.
    GADGET_RETURN_IF_ERROR(SyncFileSystem(root));
    auto replayed = ReplayFresh(spec, trace, store_dir, std::move(pool), std::move(store),
                                traced_rep ? spans : nullptr);
    if (!replayed.ok()) {
      return replayed.status();
    }
    last = std::move(*replayed);
    attempted += last.result.ops;
    if (rep == 0) {
      // After one replay: later repetitions only add allocator churn.
      peak_rss = PeakRssMib(0);
    }
    cycle_dir = root + "/cp-" + std::to_string(rep);
    auto cycled = CheckpointAndRestore({last.store.get()}, StoreOptionsFor(spec, "", nullptr),
                                       PoolOptionsFor(spec), cycle_dir,
                                       traced_rep ? spans : nullptr);
    if (!cycled.ok()) {
      return cycled.status();
    }
    cycle = std::move(*cycled);
    if (!traced_rep) {
      const gadget::LatencyHistogram& h = last.result.latency_ns;
      tputs.push_back(last.result.throughput_ops_per_sec);
      p50s.push_back(static_cast<double>(h.Percentile(50)) / 1e3);
      p99s.push_back(static_cast<double>(h.Percentile(99)) / 1e3);
      p999s.push_back(static_cast<double>(h.Percentile(99.9)) / 1e3);
      lat_samples += h.count();
      untraced_sample = last.layers;
      write_amps.push_back(WriteAmp(last.layers.stats));
      checkpoint_s.push_back(cycle.checkpoint_s);
      recover_s.push_back(cycle.recover_s);
    }
    if (o.trace ? rep == 1 : Seconds(budget_t0, NowNs()) >= o.seconds) {
      break;
    }
  }
  r->attempted = attempted;
  r->Extra("replay_reps", static_cast<double>(tputs.size()), "count");

  // Oracle: the same trace into a MemStore; the final store and its
  // cold-restored checkpoint must both match it.
  const int64_t v0 = NowNs();
  auto oracle = BuildOracle(trace, trace.size());
  if (!oracle.ok()) {
    return oracle.status();
  }
  const std::vector<std::string> keys = DistinctKeys(trace, trace.size());
  auto final_mismatch = CountMismatches(oracle->get(), last.store.get(), keys);
  if (!final_mismatch.ok()) {
    return final_mismatch.status();
  }
  auto restored_mismatch = CountMismatches(oracle->get(), cycle.restored[0].get(), keys);
  if (!restored_mismatch.ok()) {
    return restored_mismatch.status();
  }
  const int64_t v1 = NowNs();
  if (*final_mismatch != 0) {
    r->Fail(std::to_string(*final_mismatch) + " keys of the final " + spec.engine +
            " store differ from the oracle");
  }
  if (*restored_mismatch != 0) {
    r->Fail(std::to_string(*restored_mismatch) + " keys of the restored " + spec.engine +
            " store differ from the oracle");
  }
  r->failed = *final_mismatch + *restored_mismatch;
  r->Extra("verified_keys", static_cast<double>(keys.size()), "count");
  r->Extra("fail_frac", Ratio(static_cast<double>(r->failed), static_cast<double>(attempted)),
           "ratio");
  if (spans != nullptr) {
    log.Add(log.NameId("verify"), kNoParent, v0, v1);
  }
  for (auto& s : cycle.restored) {
    GADGET_RETURN_IF_ERROR(s->Close());
  }
  GADGET_RETURN_IF_ERROR(last.store->Close());
  GADGET_RETURN_IF_ERROR((*oracle)->Close());

  if (!o.trace) {
    r->Set("setup_s", Median(setup_s), "s");
    r->Set("throughput_ops_s", Median(tputs), "ops/s");
    // Percentiles per replay, median over the replays: one replay that
    // caught more host stalls than the others does not set the figure.
    r->Set("lat_p50_us", Median(p50s), "us");
    // Reported, not gated: see "lat_p99_us" and "lat_p999_us" in README.md.
    r->Extra("lat_p99_us", Median(p99s), "us");
    r->Extra("lat_p999_us", Median(p999s), "us");
    const uint64_t per_replay = lat_samples / std::max<size_t>(tputs.size(), 1);
    r->Extra("lat_samples_per_replay", static_cast<double>(per_replay), "count");
    r->Extra("lat_tail_percentile", HighestTailPercentile(per_replay), "%");
    r->Set("peak_rss_mb", peak_rss, "MiB");
    // Which files an LSM compaction picks depends on how its thread and the
    // writers interleave, so one replay's figure can land on either of two
    // values; the median over the replays.
    r->Set("write_amp", Median(write_amps), "ratio");
    // Not gated: see README.md.
    r->Extra("checkpoint_s", Median(checkpoint_s), "s");
    r->Extra("recover_s", Median(recover_s), "s");
    return Status::Ok();
  }

  // Per-layer metrics from the traced replay. Layers this workload does not
  // reach (the wire, the other engine) read 0.
  for (const auto& [name, unit] : PerLayerMetrics()) {
    r->Set(name, 0, unit);
  }
  const LayerSample& l = last.layers;
  r->Set("tracegen.s", Median(tracegen_s), "s");
  r->Set("tracegen.accesses_per_s", Ratio(static_cast<double>(trace.size()), Median(tracegen_s)),
         "1/s");
  r->Set("replay.s", l.replay_s, "s");
  r->Set("replay.lat_p999_us", Median(p999s), "us");  // of the untraced replay
  r->Set("evaluator.self_s", static_cast<double>(l.evaluator_self_ns) / 1e9, "s");
  r->Set("evaluator.self_ns_per_op",
         Ratio(static_cast<double>(l.evaluator_self_ns), static_cast<double>(l.ops)), "ns");
  r->Set("evaluator.ops_per_store_call",
         Ratio(static_cast<double>(l.ops), static_cast<double>(l.store_calls)), "ratio");
  r->Set("store.self_s", static_cast<double>(l.store_busy_ns) / 1e9, "s");
  r->Set("trace.overhead_frac", 1.0 - Ratio(l.throughput, untraced_sample.throughput), "ratio");
  SetOpMetrics(r, spec.engine, spec.engine == "btree"
                                   ? std::vector<StoreOp>{StoreOp::kGet, StoreOp::kRmw,
                                                          StoreOp::kDelete}
                                   : std::vector<StoreOp>{StoreOp::kGet, StoreOp::kMerge,
                                                          StoreOp::kDelete, StoreOp::kWrite,
                                                          StoreOp::kMultiGet},
               l.tallies);
  SetStoreStatsLayers(l.stats, spec.engine, r);
  SetPoolLayers(l, r);
  r->Set("checkpoint.s", cycle.checkpoint_s, "s");
  r->Set("restore.s", cycle.recover_s, "s");
  r->Set("checkpoint.bytes", static_cast<double>(cycle.info.bytes), "B");
  r->Set("checkpoint.files", static_cast<double>(cycle.info.files), "count");
  r->Set("checkpoint.hard_links", static_cast<double>(cycle.info.hard_links), "count");
  r->Set("restore.verified_keys", static_cast<double>(keys.size()), "count");

  // The replay span's self time is the evaluator's, and evaluator + store
  // self times add back up to the replay span.
  return WriteSpans(o, log, r);
}

Status RunHolBtree(const RunOptions& o, RunResult* r) {
  InProcSpec spec;
  spec.name = "hol-btree";
  spec.trace_keys = {{"operator", "sliding_hol"},   {"source", "borg"},
                     {"events", "400000"},          {"window_length_ms", "5000"},
                     {"window_slide_ms", "1000"}};
  spec.engine = "btree";
  spec.batch_size = 1;
  return RunInProcess(spec, o, r);
}

Status RunHolBigstateLsm(const RunOptions& o, RunResult* r) {
  InProcSpec spec;
  spec.name = "hol-bigstate-lsm";
  spec.trace_keys = {{"operator", "tumbling_hol"},   {"source", "synthetic"},
                     {"key_distribution", "zipfian"}, {"keys", "1000000"},
                     {"events", "1000000"},          {"window_length_ms", "600000"},
                     {"value_size", "256"}};
  spec.engine = "lsm";
  spec.pool_bytes = 4ull << 20;
  spec.batch_size = 64;
  return RunInProcess(spec, o, r);
}

}  // namespace

Status RunWorkload(const RunOptions& o, RunResult* r) {
  FillRunMeta(o, r);
  Status (*run)(const RunOptions&, RunResult*) = nullptr;
  if (o.workload == "hol-btree") {
    run = RunHolBtree;
  } else if (o.workload == "hol-bigstate-lsm") {
    run = RunHolBigstateLsm;
  } else if (o.workload == "incr-wire-closed") {
    run = RunIncrWireClosed;
  } else if (o.workload == "incr-wire-open") {
    run = RunIncrWireOpen;
  } else {
    return Status::InvalidArgument("unknown workload '" + o.workload + "'");
  }
  // Start from an empty, clean work directory and leave one behind: stores
  // and images are removed and their writeback finished on both sides.
  const std::string root = o.workdir + "/" + o.workload;
  GADGET_RETURN_IF_ERROR(FreshDir(root));
  GADGET_RETURN_IF_ERROR(SyncFileSystem(o.workdir));
  GADGET_RETURN_IF_ERROR(run(o, r));
  std::filesystem::remove_all(root);
  return SyncFileSystem(o.workdir);
}

}  // namespace perfbench
