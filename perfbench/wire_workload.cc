// The wire workloads: the Borg tumbling_incr trace sent over loopback TCP to
// a separate `gadget serve` process.
//
//   incr-wire-closed  closed loop through the repository's wire load
//                     generator (RunLoadgen): pipelined, batched frames on
//                     four connections, over consecutive trace segments.
//   incr-wire-open    open loop on a fixed ladder of offered rates, one
//                     request per trace op (open_loop.h); not gated.
//
// Both share the set-up (trace build plus server boot) and what follows the
// load: the server's STATS, the oracle checks, and checkpoint/restore of the
// served shards.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "open_loop.h"
#include "src/common/file_util.h"
#include "src/common/json.h"
#include "src/gadget/harness.h"
#include "src/server/loadgen.h"
#include "src/server/router.h"
#include "workloads.h"

namespace perfbench {

using gadget::Status;
using gadget::StatusOr;

namespace {

constexpr int kShards = 4;
constexpr const char* kServerShape =
    "gadget serve shards=4 store=lsm io_threads=1 use_io_uring=0 sync_writes=0";
// Checkpoint/restore cycles of the served shards, each from a fresh copy of
// the served directory; their medians are reported.
constexpr int kServedCheckpointReps = 15;
// Borg tumbling_incr yields about 2.6 accesses per event; traces are sized
// with this many events per needed access.
constexpr double kEventsPerAccess = 0.45;

// --- incr-wire-closed ---
// Ops per RunLoadgen call. Throughput and percentiles are taken per segment
// and reported as the median over the segments.
constexpr uint64_t kSegmentOps = 200'000;
// The load is a fixed number of segments, `--seconds` worth at this rate
// (somewhat below the closed loop's rate on the reference box), so every run
// of a given --seconds leaves the server the same amount of state.
constexpr double kNominalClosedRate = 100'000;
// The generator's shape: 4 client threads (one per core of the 4-vCPU
// reference box), each with one connection, frames of up to 32 ops and up to
// 4 frames in flight per connection.
constexpr int kClosedClients = 4;
constexpr uint64_t kClosedBatch = 32;
constexpr uint64_t kClosedDepth = 4;

// --- incr-wire-open ---
// The open-loop ladder of offered rates (ops/s), ascending, and the
// reference rate among them at which its latencies are reported.
const std::vector<double> kLadder = {20000, 40000, 60000, 80000, 100000, 160000};
constexpr double kReferenceRate = 40000;
// The latency limit a ladder step must meet: p99 from due time.
constexpr double kLatencyLimitUs = 1000;
// One connection with a sending and a receiving thread.
constexpr int kOpenConnections = 1;
// Each step of the ladder lasts this long, and the ladder is climbed as many
// times as the run's time budget allows; every rung is reported as the median
// over its steps.
constexpr double kStepS = 0.5;
// Latency percentiles are taken per window of this much offered time and
// reported as the median window. The 4-vCPU VM this benchmark was tuned on
// stalls a running thread for 2-13 ms some 3-15 times a second even when
// idle; in an open loop one stall delays every request due during it, so a
// percentile pooled over a whole step mostly measures the host. Most 50 ms
// windows hold no such stall. The pooled percentiles are reported beside.
constexpr double kWindowS = 0.05;
// An unreported first step at the reference rate: connection buffers,
// server threads and memtables warm up before the ladder is measured.
constexpr double kWarmupS = 0.5;
// How long past its last due time a step may take before the server is
// declared stuck and killed.
constexpr double kStepDeadlineS = 20;

// A `gadget serve` child process. Dies with the benchmark (PDEATHSIG) and
// is always reaped: Stop() in the destructor.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { (void)Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Start(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::IoError("fork failed");
    }
    if (pid == 0) {
      // Only async-signal-safe calls between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) {
        ::_exit(127);
      }
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    pid_ = pid;
    return Status::Ok();
  }

  // Polls for the port file the server writes once its socket is live.
  StatusOr<uint16_t> WaitForPort(const std::string& port_file, double timeout_s) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
    while (NowNs() < deadline) {
      std::string text;
      if (gadget::ReadFileToString(port_file, &text).ok() && !text.empty() &&
          text.back() == '\n') {
        return static_cast<uint16_t>(std::stoul(text));
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::IoError("gadget serve exited during boot");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return Status::IoError("gadget serve did not publish its port in time");
  }

  int pid() const { return pid_; }

  // Hard stop for a stuck step: drops every connection at once.
  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
    }
  }

  // SIGTERM (the server closes its stores), then SIGKILL after 15 s.
  // Reaps the child; an unclean exit is an error.
  Status Stop() {
    if (pid_ <= 0) {
      return Status::Ok();
    }
    ::kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 15'000'000'000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return Status::IoError("gadget serve ignored SIGTERM");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::IoError("gadget serve exited uncleanly");
    }
    return Status::Ok();
  }

 private:
  pid_t pid_ = -1;
};

gadget::StoreStats StoreStatsFromJson(const gadget::JsonValue& j) {
  gadget::StoreStats s;
  s.gets = j.GetUint("gets");
  s.puts = j.GetUint("puts");
  s.merges = j.GetUint("merges");
  s.deletes = j.GetUint("deletes");
  s.rmws = j.GetUint("rmws");
  s.bytes_written = j.GetUint("bytes_written");
  s.io_bytes_written = j.GetUint("io_bytes_written");
  s.io_bytes_read = j.GetUint("io_bytes_read");
  s.flushes = j.GetUint("flushes");
  s.compactions = j.GetUint("compactions");
  s.cache_hits = j.GetUint("cache_hits");
  s.cache_misses = j.GetUint("cache_misses");
  s.batches = j.GetUint("batches");
  s.batched_ops = j.GetUint("batched_ops");
  s.wal_bytes = j.GetUint("wal_bytes");
  s.flush_micros = j.GetUint("flush_micros");
  s.stall_micros = j.GetUint("stall_micros");
  s.slowdown_micros = j.GetUint("slowdown_micros");
  s.compaction_micros = j.GetUint("compaction_micros");
  s.cache_evictions = j.GetUint("cache_evictions");
  s.cache_pins = j.GetUint("cache_pins");
  s.io_batches = j.GetUint("io_batches");
  s.io_in_flight_max = j.GetUint("io_in_flight_max");
  if (const gadget::JsonValue* levels = j.Get("level_files")) {
    for (const gadget::JsonValue& v : levels->items()) {
      s.level_files.push_back(v.AsUint64());
    }
  }
  return s;
}

uint64_t LogicalOps(const gadget::StoreStats& s) {
  return s.gets + s.puts + s.merges + s.deletes + s.rmws;
}

// Compares sharded stores against the oracle, routing each key as the
// server does.
StatusOr<uint64_t> CountShardedMismatches(gadget::KVStore* oracle,
                                          const std::vector<gadget::KVStore*>& shards,
                                          const std::vector<std::string>& keys) {
  gadget::wire::ConsistentHashRouter router(static_cast<int>(shards.size()));
  std::vector<std::vector<std::string>> per_shard(shards.size());
  for (const std::string& k : keys) {
    per_shard[static_cast<size_t>(router.Route(k))].push_back(k);
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < shards.size(); ++i) {
    auto m = CountMismatches(oracle, shards[i], per_shard[i]);
    if (!m.ok()) {
      return m.status();
    }
    mismatches += *m;
  }
  return mismatches;
}

// The set-up both wire workloads share, repeated kSetupReps times: trace
// build plus server boot until its port is live and answers PING. The last
// repetition's trace and server are the ones measured.
struct WireSetup {
  std::string root;  // this workload's work directory
  std::string store_dir;
  std::vector<double> setup_s, tracegen_s;
  std::vector<gadget::StateAccess> trace;
  ServerProcess server;
  uint16_t port = 0;
  std::unique_ptr<gadget::wire::Client> client;  // `connections` pooled connections
};

Status SetUp(const RunOptions& o, const gadget::Config& cfg, int connections, WireSetup* w,
             SpanLog* spans) {
  w->store_dir = w->root + "/serve-db";
  const std::string port_file = w->root + "/port";
  for (int i = 0; i < kSetupReps; ++i) {
    w->client.reset();
    GADGET_RETURN_IF_ERROR(w->server.Stop());
    GADGET_RETURN_IF_ERROR(FreshDir(w->store_dir));
    std::filesystem::remove(port_file);
    w->trace.clear();
    w->trace.shrink_to_fit();
    const int64_t t0 = NowNs();
    auto built = gadget::BuildAccessTrace(cfg);
    if (!built.ok()) {
      return built.status();
    }
    const int64_t t1 = NowNs();
    GADGET_RETURN_IF_ERROR(w->server.Start(
        o.gadget,
        {"serve", "-", "port=0", "port_file=" + port_file, "shards=" + std::to_string(kShards),
         "store=lsm", "io_threads=1", "use_io_uring=0", "sync_writes=0",
         "store_dir=" + w->store_dir},
        w->root + "/serve.log"));
    auto port = w->server.WaitForPort(port_file, 30);
    if (!port.ok()) {
      return port.status();
    }
    auto connected = gadget::wire::Client::Connect(*port, connections, 2000);
    if (!connected.ok()) {
      return connected.status();
    }
    w->client = std::move(*connected);
    GADGET_RETURN_IF_ERROR(w->client->Ping());
    const int64_t t2 = NowNs();
    w->port = *port;
    w->trace = std::move(*built);
    w->setup_s.push_back(Seconds(t0, t2));
    w->tracegen_s.push_back(Seconds(t0, t1));
    if (spans != nullptr) {
      const uint32_t s = spans->Add(spans->NameId("setup"), kNoParent, t0, t2);
      spans->Add(spans->NameId("tracegen"), s, t0, t1);
      spans->Add(spans->NameId("server.boot"), s, t1, t2);
    }
  }
  return Status::Ok();
}

// What both wire workloads take from the server once the load is done.
struct Served {
  gadget::JsonValue stats;    // the server's STATS document
  gadget::StoreStats merged;  // its merged StoreStats
  bool server_uring = false;  // the server's io_uring_active (socket backend)
  bool pool_uring = false;    // the IoBackend of a bench-owned BufferPool
  double rss_mib = 0;         // the server's VmHWM
  double checkpoint_s = 0;    // medians over the served shards' cycles
  double recover_s = 0;
  gadget::CheckpointInfo info;  // of the last cycle
  uint64_t verified_keys = 0;
  uint64_t mismatches = 0;  // over every oracle check below
};

// Fetches STATS and stops the server, checking the served state against the
// oracle, trace[0, sent) replayed into a MemStore:
//  * the gets' not-found count (per-key order holds on the wire, so gets see
//    the same state in both) and every key read back over the wire — both
//    skipped when `failed` requests already put the state off the oracle's;
//  * every key of the shards reopened in-process after shutdown (the
//    server's restart recovery), then of their cold-restored checkpoints.
StatusOr<Served> CheckServed(const RunOptions& o, WireSetup* w, uint64_t sent,
                             uint64_t not_found, uint64_t failed, RunResult* r, SpanLog* spans) {
  Served out;
  auto stats_text = w->client->StatsJson();
  if (!stats_text.ok()) {
    return stats_text.status();
  }
  auto stats_doc = gadget::ParseJson(*stats_text);
  if (!stats_doc.ok()) {
    return stats_doc.status();
  }
  out.stats = std::move(*stats_doc);
  if (const gadget::JsonValue* merged = out.stats.Get("merged")) {
    out.merged = StoreStatsFromJson(*merged);
  }
  const gadget::JsonValue* net = out.stats.Get("net");
  out.server_uring = net != nullptr && net->Get("io_uring_active") != nullptr &&
                     net->Get("io_uring_active")->AsBool();
  out.pool_uring = gadget::BufferPool().io().using_io_uring();

  const int64_t v0 = NowNs();
  uint64_t oracle_not_found = 0;
  auto oracle = BuildOracle(w->trace, sent, &oracle_not_found);
  if (!oracle.ok()) {
    return oracle.status();
  }
  const std::vector<std::string> keys = DistinctKeys(w->trace, sent);
  out.verified_keys = keys.size();
  if (failed == 0 && oracle_not_found != not_found) {
    r->Fail("wire gets found " + std::to_string(not_found) + " keys missing, the oracle " +
            std::to_string(oracle_not_found));
    ++out.mismatches;
  }
  if (failed == 0 && out.mismatches == 0) {
    auto m = CountMismatches(oracle->get(), w->client.get(), keys);
    if (!m.ok()) {
      return m.status();
    }
    if (*m != 0) {
      r->Fail(std::to_string(*m) + " keys read back over the wire differ from the oracle");
    }
    out.mismatches += *m;
  }
  const int64_t v1 = NowNs();
  if (spans != nullptr) {
    spans->Add(spans->NameId("verify"), kNoParent, v0, v1);
  }

  out.rss_mib = PeakRssMib(w->server.pid());
  w->client.reset();
  GADGET_RETURN_IF_ERROR(w->server.Stop());

  // Checkpoint/restore cycles, each from the same state: a fresh copy of the
  // served directory, reopened in-process (the server's restart recovery),
  // checkpointed and restored cold. The first reopen and the last restore are
  // verified against the oracle.
  gadget::StoreOptions shard_opts;
  shard_opts.engine = "lsm";
  shard_opts.sync_writes = false;
  std::vector<double> checkpoint_s, recover_s;
  uint64_t reopen_mismatch = 0, restore_mismatch = 0;
  for (int rep = 0; rep < kServedCheckpointReps; ++rep) {
    const std::string cycle_root = w->root + "/cycle-" + std::to_string(rep);
    GADGET_RETURN_IF_ERROR(FreshDir(cycle_root));
    std::error_code ec;
    std::filesystem::copy(w->store_dir, cycle_root + "/served",
                          std::filesystem::copy_options::recursive, ec);
    if (ec) {
      return Status::IoError("cannot copy " + w->store_dir + ": " + ec.message());
    }
    std::vector<std::unique_ptr<gadget::KVStore>> reopened;
    std::vector<gadget::KVStore*> shards;
    const int64_t ro0 = NowNs();
    for (int i = 0; i < kShards; ++i) {
      gadget::StoreOptions opts = shard_opts;
      opts.dir = cycle_root + "/served/shard-" + std::to_string(i);
      auto s = gadget::OpenStore(opts);
      if (!s.ok()) {
        return s.status();
      }
      shards.push_back(s->get());
      reopened.push_back(std::move(*s));
    }
    const int64_t ro1 = NowNs();
    if (rep == 0) {
      r->Extra("reopen_s", Seconds(ro0, ro1), "s");
      auto m = CountShardedMismatches(oracle->get(), shards, keys);
      if (!m.ok()) {
        return m.status();
      }
      reopen_mismatch = *m;
    }
    auto cycle = CheckpointAndRestore(shards, shard_opts, gadget::BufferPoolOptions(),
                                      cycle_root + "/cp", spans);
    if (!cycle.ok()) {
      return cycle.status();
    }
    checkpoint_s.push_back(cycle->checkpoint_s);
    recover_s.push_back(cycle->recover_s);
    if (rep + 1 == kServedCheckpointReps) {
      out.info = cycle->info;
      std::vector<gadget::KVStore*> restored;
      for (auto& s : cycle->restored) {
        restored.push_back(s.get());
      }
      auto m = CountShardedMismatches(oracle->get(), restored, keys);
      if (!m.ok()) {
        return m.status();
      }
      restore_mismatch = *m;
    }
    for (auto& s : cycle->restored) {
      GADGET_RETURN_IF_ERROR(s->Close());
    }
    for (auto& s : reopened) {
      GADGET_RETURN_IF_ERROR(s->Close());
    }
    std::filesystem::remove_all(cycle_root);
  }
  out.checkpoint_s = Median(checkpoint_s);
  out.recover_s = Median(recover_s);
  if (reopen_mismatch != 0 || restore_mismatch != 0) {
    r->Fail(std::to_string(reopen_mismatch) + " keys of the reopened and " +
            std::to_string(restore_mismatch) + " of the restored shards differ from the oracle");
  }
  out.mismatches += reopen_mismatch + restore_mismatch;
  return out;
}

// Counts, run metadata and the failure tally both wire workloads report.
void SetServedResult(const Served& s, uint64_t attempted, uint64_t failed, RunResult* r) {
  r->attempted = attempted;
  r->failed = failed + s.mismatches;
  r->Extra("fail_frac", Ratio(static_cast<double>(r->failed), static_cast<double>(attempted)),
           "ratio");
  r->Extra("verified_keys", static_cast<double>(s.verified_keys), "count");
  r->meta["engine"] = "lsm";
  r->meta["server"] = kServerShape;
  r->meta["io_backend"] = s.pool_uring ? "io_uring" : "pread";
  r->meta["server_io_uring_active"] = s.server_uring ? "1" : "0";
}

// The end-to-end metrics that come from the server.
void SetServedEndToEnd(const Served& s, RunResult* r) {
  r->Set("peak_rss_mb", s.rss_mib, "MiB");
  r->Set("write_amp", WriteAmp(s.merged), "ratio");
  // Not gated: see README.md.
  r->Extra("checkpoint_s", s.checkpoint_s, "s");
  r->Extra("recover_s", s.recover_s, "s");
}

// Every per-layer metric, with the layers the wire reaches filled from the
// server's STATS: the merged LSM counters, the pool, the shards and the
// reactor. The in-process layers (evaluator, decorator, btree) read 0.
void SetServedLayers(const Served& s, const WireSetup& w, RunResult* r) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    r->Set(name, 0, unit);
  }
  const double tracegen_s = Median(w.tracegen_s);
  r->Set("tracegen.s", tracegen_s, "s");
  r->Set("tracegen.accesses_per_s", Ratio(static_cast<double>(w.trace.size()), tracegen_s),
         "1/s");
  SetStoreStatsLayers(s.merged, "lsm", r);
  const double hits = static_cast<double>(s.merged.cache_hits);
  const double misses = static_cast<double>(s.merged.cache_misses);
  r->Set("pool.hit_ratio", Ratio(hits, hits + misses), "ratio");
  r->Set("pool.hits", hits, "count");
  r->Set("pool.misses", misses, "count");
  r->Set("pool.evictions", static_cast<double>(s.merged.cache_evictions), "count");
  r->Set("pool.pins", static_cast<double>(s.merged.cache_pins), "count");
  r->Set("io.waves", static_cast<double>(s.merged.io_batches), "count");
  r->Set("io.in_flight_max", static_cast<double>(s.merged.io_in_flight_max), "count");
  r->Set("io.uring_active", s.pool_uring ? 1 : 0, "bool");
  r->Set("checkpoint.s", s.checkpoint_s, "s");
  r->Set("restore.s", s.recover_s, "s");
  r->Set("checkpoint.bytes", static_cast<double>(s.info.bytes), "B");
  r->Set("checkpoint.files", static_cast<double>(s.info.files), "count");
  r->Set("checkpoint.hard_links", static_cast<double>(s.info.hard_links), "count");
  r->Set("restore.verified_keys", static_cast<double>(s.verified_keys), "count");

  // Shards: skew of logical ops across shards, and how many ops each store
  // call carried (the workers coalesce queued requests into batches).
  if (const gadget::JsonValue* per_shard = s.stats.Get("per_shard")) {
    double max_ops = 0, total_ops = 0;
    for (const gadget::JsonValue& sj : per_shard->items()) {
      const double ops = static_cast<double>(LogicalOps(StoreStatsFromJson(sj)));
      max_ops = std::max(max_ops, ops);
      total_ops += ops;
    }
    const double mean = total_ops / static_cast<double>(std::max<size_t>(per_shard->size(), 1));
    r->Set("shard.skew", Ratio(max_ops, mean), "ratio");
    r->Set("shard.max_ops", max_ops, "count");
  }
  const double ops = static_cast<double>(LogicalOps(s.merged));
  r->Set("shard.ops_per_store_call",
         Ratio(ops, static_cast<double>(s.merged.batches) + ops -
                        static_cast<double>(s.merged.batched_ops)),
         "ratio");
  if (const gadget::JsonValue* net = s.stats.Get("net")) {
    double frames = 0;
    if (const gadget::JsonValue* thread_ops = net->Get("thread_ops")) {
      for (const gadget::JsonValue& v : thread_ops->items()) {
        frames += v.AsDouble();
      }
    }
    r->Set("net.bytes_in", net->GetDouble("bytes_in"), "B");
    r->Set("net.bytes_out", net->GetDouble("bytes_out"), "B");
    r->Set("net.writev_calls", net->GetDouble("writev_calls"), "count");
    // Every decoded request frame is answered by one response frame.
    r->Set("net.frames_per_writev", Ratio(frames, net->GetDouble("writev_calls")), "ratio");
    r->Set("net.outq_stall_s", net->GetDouble("output_queue_stall_micros") / 1e6, "s");
    r->Set("net.outq_bytes_max", net->GetDouble("output_queue_bytes_max"), "B");
    r->Set("net.reactor_frames", frames, "count");
  }
}

}  // namespace

Status RunIncrWireClosed(const RunOptions& o, RunResult* r) {
  WireSetup w;
  w.root = o.workdir + "/" + o.workload;
  SpanLog log;
  SpanLog* spans = o.trace ? &log : nullptr;
  gadget::Config cfg;
  cfg.Set("operator", "tumbling_incr");
  cfg.Set("source", "borg");
  cfg.Set("seed", std::to_string(o.seed));
  const uint64_t segments =
      std::max<uint64_t>(1, static_cast<uint64_t>(o.seconds * kNominalClosedRate / kSegmentOps));
  const uint64_t needed = segments * kSegmentOps;
  cfg.Set("events", std::to_string(static_cast<uint64_t>(needed * kEventsPerAccess) + 1000));
  GADGET_RETURN_IF_ERROR(SetUp(o, cfg, 1, &w, spans));
  if (needed > w.trace.size()) {
    return Status::Internal("the load needs " + std::to_string(needed) +
                            " ops but the trace has " + std::to_string(w.trace.size()));
  }

  // The load: consecutive segments of the trace, each one RunLoadgen call
  // (connect, replay, drain). The server's state keeps growing across
  // segments.
  gadget::wire::LoadgenOptions lo;
  lo.port = w.port;
  lo.clients = kClosedClients;
  lo.shards = kShards;
  lo.batch_size = kClosedBatch;
  lo.pipeline_depth = kClosedDepth;
  std::vector<double> tputs, p50s, p99s, p999s;
  gadget::LatencyHistogram pooled;
  uint64_t acked = 0, not_found = 0;
  double load_s = 0;
  size_t pos = 0;
  std::vector<gadget::StateAccess> segment;
  while (pos < needed) {
    segment.assign(w.trace.begin() + static_cast<ptrdiff_t>(pos),
                   w.trace.begin() + static_cast<ptrdiff_t>(pos + kSegmentOps));
    const int64_t s0 = NowNs();
    auto res = gadget::wire::RunLoadgen(segment, lo);
    const int64_t s1 = NowNs();
    if (!res.ok()) {
      return res.status();
    }
    const gadget::LatencyHistogram& h = res->replay.latency_ns;
    tputs.push_back(res->replay.throughput_ops_per_sec);
    p50s.push_back(static_cast<double>(h.Percentile(50)) / 1e3);
    p99s.push_back(static_cast<double>(h.Percentile(99)) / 1e3);
    p999s.push_back(static_cast<double>(h.Percentile(99.9)) / 1e3);
    pooled.Merge(h);
    acked += res->ops_acked;
    not_found += res->replay.not_found;
    load_s += res->replay.elapsed_seconds;
    pos += kSegmentOps;
    if (spans != nullptr) {
      log.Add(log.NameId("segment"), kNoParent, s0, s1);
    }
  }
  // Every op of a segment is sent; one not acknowledged was refused or lost.
  const uint64_t failed = pos - acked;
  if (failed != 0) {
    r->Fail(std::to_string(failed) + " wire ops failed or went unacknowledged");
  }

  auto served = CheckServed(o, &w, pos, not_found, failed, r, spans);
  if (!served.ok()) {
    return served.status();
  }
  SetServedResult(*served, pos, failed, r);
  r->meta["trace_accesses"] = std::to_string(w.trace.size());
  r->meta["generator"] = "closed loop (RunLoadgen): " + std::to_string(kClosedClients) +
                         " client threads x 1 connection, frames of <= " +
                         std::to_string(kClosedBatch) + " ops, " +
                         std::to_string(kClosedDepth) + " frames in flight per connection";
  r->meta["segment_ops"] = std::to_string(kSegmentOps);
  r->meta["segments"] = std::to_string(segments);

  if (!o.trace) {
    r->Set("setup_s", Median(w.setup_s), "s");
    r->Set("throughput_ops_s", Median(tputs), "ops/s");
    // Per frame round trip, per segment, median over the segments.
    r->Set("lat_p50_us", Median(p50s), "us");
    // Reported, not gated: see "lat_p99_us" in README.md.
    r->Extra("lat_p99_us", Median(p99s), "us");
    r->Extra("lat_p999_us", Median(p999s), "us");
    const uint64_t per_segment = pooled.count() / std::max<size_t>(tputs.size(), 1);
    r->Extra("lat_samples_per_segment", static_cast<double>(per_segment), "count");
    r->Extra("lat_tail_percentile", HighestTailPercentile(per_segment), "%");
    SetServedEndToEnd(*served, r);
    return Status::Ok();
  }

  SetServedLayers(*served, w, r);
  r->Set("replay.s", load_s, "s");
  r->Set("replay.lat_p999_us", Median(p999s), "us");
  r->Set("wire.rtt_p50_us", static_cast<double>(pooled.Percentile(50)) / 1e3, "us");
  r->Set("wire.rtt_p99_us", static_cast<double>(pooled.Percentile(99)) / 1e3, "us");
  return WriteSpans(o, log, r);
}

Status RunIncrWireOpen(const RunOptions& o, RunResult* r) {
  WireSetup w;
  w.root = o.workdir + "/" + o.workload;
  SpanLog log;
  SpanLog* spans = o.trace ? &log : nullptr;

  double ladder_rate_sum = 0;
  for (double rate : kLadder) {
    ladder_rate_sum += rate;
  }
  const int passes = std::max(1, static_cast<int>(o.seconds / (kStepS * kLadder.size())));
  const uint64_t needed = static_cast<uint64_t>(kReferenceRate * kWarmupS) +
                          static_cast<uint64_t>(passes * ladder_rate_sum * kStepS);
  gadget::Config cfg;
  cfg.Set("operator", "tumbling_incr");
  cfg.Set("source", "borg");
  cfg.Set("seed", std::to_string(o.seed));
  cfg.Set("events", std::to_string(static_cast<uint64_t>(needed * kEventsPerAccess) + 1000));
  GADGET_RETURN_IF_ERROR(SetUp(o, cfg, kOpenConnections, &w, spans));
  if (needed > w.trace.size()) {
    return Status::Internal("the ladder needs " + std::to_string(needed) +
                            " ops but the trace has " + std::to_string(w.trace.size()));
  }

  // The ladder, climbed `passes` times: consecutive trace segments, one per
  // step, so the server's state keeps growing across the whole run.
  std::vector<StepRun> runs;
  uint64_t not_found = 0;
  uint64_t failed = 0;
  size_t pos = 0;
  {
    OpenLoopGenerator gen(w.client.get(), kOpenConnections, [&w] { w.server.Kill(); });
    const size_t warm = static_cast<size_t>(kReferenceRate * kWarmupS);
    const StepRun warmup = gen.RunStep(w.trace, 0, warm, kReferenceRate, warm, kStepDeadlineS);
    failed += warmup.result.failed;
    not_found += warmup.not_found;
    pos = warm;
    for (int pass = 0; pass < passes; ++pass) {
      for (double rate : kLadder) {
        const size_t n = static_cast<size_t>(rate * kStepS);
        runs.push_back(gen.RunStep(w.trace, pos, pos + n, rate,
                                   static_cast<size_t>(rate * kWindowS), kStepDeadlineS));
        not_found += runs.back().not_found;
        failed += runs.back().result.failed;
        pos += n;
      }
    }
  }
  std::vector<StepResult> rungs;
  for (double rate : kLadder) {
    std::vector<StepResult> of_rate;
    for (const StepRun& run : runs) {
      if (run.result.rate == rate) {
        of_rate.push_back(run.result);
      }
    }
    rungs.push_back(MedianStep(of_rate));
    Judge(SustainRule{.p99_limit_us = kLatencyLimitUs}, &rungs.back());
  }
  if (failed != 0) {
    r->Fail(std::to_string(failed) + " wire requests failed or went unanswered");
  }

  auto served = CheckServed(o, &w, pos, not_found, failed, r, spans);
  if (!served.ok()) {
    return served.status();
  }
  SetServedResult(*served, pos, failed, r);
  r->meta["trace_accesses"] = std::to_string(w.trace.size());
  r->meta["generator"] = "open loop, " + std::to_string(kOpenConnections) +
                         " connection x (sender + receiver thread)";
  std::string ladder_text;
  for (const StepResult& s : rungs) {
    ladder_text += (ladder_text.empty() ? "" : ",") +
                   std::to_string(static_cast<uint64_t>(s.rate)) +
                   (s.sustained ? ":sustained" : ":not-sustained");
  }
  r->meta["ladder"] = ladder_text;
  r->meta["step_s"] = std::to_string(kStepS);
  r->meta["passes"] = std::to_string(passes);
  r->meta["latency_limit"] = "p99 <= 1000 us from due time";

  const StepResult& ref_step =
      *std::find_if(rungs.begin(), rungs.end(),
                    [](const StepResult& s) { return s.rate == kReferenceRate; });
  // The ladder and the generator's own figures: reported beside the metric
  // set of either run, never gated.
  for (const StepResult& s : rungs) {
    const std::string base = "ladder." + std::to_string(static_cast<uint64_t>(s.rate));
    r->Extra(base + ".lat_p50_us", s.lat_p50_us, "us");
    r->Extra(base + ".lat_p99_us", s.lat_p99_us, "us");
    r->Extra(base + ".pooled_p99_us", s.pooled_p99_us, "us");
    r->Extra(base + ".pooled_p999_us", s.pooled_p999_us, "us");
    r->Extra(base + ".lag_p99_us", s.lag_p99_us, "us");
    r->Extra(base + ".achieved_ops_s", s.achieved_ops_s, "ops/s");
    r->Extra(base + ".backlog_at_end", static_cast<double>(s.backlog_at_end), "count");
    r->Extra(base + ".completed_frac",
             Ratio(static_cast<double>(s.completed), static_cast<double>(s.offered)), "ratio");
  }
  r->Extra("gen.send_lag_p99_us", ref_step.lag_p99_us, "us");
  const int best = MaxSustainedStep(rungs);
  const StepResult* best_step = best < 0 ? nullptr : &rungs[static_cast<size_t>(best)];

  if (!o.trace) {
    r->Set("setup_s", Median(w.setup_s), "s");
    r->Set("throughput_ops_s", ref_step.achieved_ops_s, "ops/s");
    r->Set("lat_p50_us", ref_step.lat_p50_us, "us");
    r->Extra("lat_p99_us", ref_step.lat_p99_us, "us");
    r->Extra("lat_p999_us", ref_step.lat_p999_us, "us");
    r->Extra("lat_samples", static_cast<double>(ref_step.offered), "count");
    r->Extra("lat_tail_percentile", HighestTailPercentile(ref_step.offered), "%");
    // Not gated: incr-wire-open is not in BENCHMARK.json.
    r->Extra("max_rate_ops_s", best_step == nullptr ? 0 : best_step->achieved_ops_s, "ops/s");
    r->Extra("max_rate_rung_ops_s", best_step == nullptr ? 0 : best_step->rate, "ops/s");
    SetServedEndToEnd(*served, r);
    return Status::Ok();
  }

  SetServedLayers(*served, w, r);
  r->Set("replay.lat_p999_us", ref_step.lat_p999_us, "us");
  r->Set("wire.rtt_p50_us", ref_step.rtt_p50_us, "us");
  r->Set("wire.rtt_p99_us", ref_step.rtt_p99_us, "us");

  // Spans: one `request` span per request from due time to response, with a
  // child `send` span from the actual send to the response; both carry the
  // request's number as their group. The request span's self time is the
  // wait in the generator, the send span's the server plus loopback.
  const uint32_t n_req = log.NameId("request");
  const uint32_t n_send = log.NameId("send");
  uint64_t group = 0, answered_requests = 0;
  for (const StepRun& run : runs) {
    for (const RequestRecord& rec : run.records) {
      ++group;
      const bool answered =
          rec.outcome == RequestRecord::kOk || rec.outcome == RequestRecord::kNotFound;
      if (answered) {
        ++answered_requests;
        const uint32_t req = log.Add(n_req, kNoParent, rec.due_ns, rec.done_ns, group);
        log.Add(n_send, req, rec.send_ns, rec.done_ns, group);
      }
    }
  }
  const std::vector<int64_t> self = SelfTimes(log.spans());
  int64_t wait_ns = 0, send_ns = 0;
  for (size_t i = 0; i < self.size(); ++i) {
    if (log.spans()[i].name == n_req) {
      wait_ns += self[i];
    } else if (log.spans()[i].name == n_send) {
      send_ns += self[i];
    }
  }
  const double requests = static_cast<double>(answered_requests);
  r->Extra("wire.client_wait_mean_us", Ratio(static_cast<double>(wait_ns) / 1e3, requests), "us");
  r->Extra("wire.send_mean_us", Ratio(static_cast<double>(send_ns) / 1e3, requests), "us");
  return WriteSpans(o, log, r);
}

}  // namespace perfbench
