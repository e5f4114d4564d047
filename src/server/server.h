// The store service (DESIGN.md §6): N IO (reactor) threads feeding per-shard
// worker threads over bounded queues.
//
// Threading model:
//   * `io_threads` REACTOR threads, each owning a private epoll set plus the
//     receive buffers of the connections assigned to it. Accepted connections
//     are sharded round-robin across reactors (thread 0 also owns the listen
//     socket). Each reactor decodes frames, answers PING/STATS inline, and
//     groups a pipelined read-burst into at most one task per shard before
//     dispatching.
//   * ONE worker thread per shard drains that shard's task queue. A task is
//     a burst of requests from one connection; the worker coalesces it into
//     stripe-friendly WriteBatch / MultiGet calls through the BatchCoalescer
//     the evaluator's batched replay also uses (src/stores/batch_coalescer.h:
//     same-key conflict rules, at most BatchCoalescer::kMaxPending ops per
//     call), so a deep client pipeline becomes few store crossings per shard
//     per burst.
//   * Responses never block the reactors: each connection has a bounded
//     OUTPUT QUEUE of response bursts, drained by non-blocking writev with
//     EPOLLOUT re-arming on partial progress. Pipelined bursts queued behind
//     a slow socket coalesce into a single writev (iovec gather list), and
//     the per-connection mutex keeps frames whole and in enqueue order even
//     though bursts from different shards may interleave — which is why the
//     protocol matches by id, not order.
//
// Backpressure (two stages, no drops):
//   1. A slow READER fills its connection's output queue; workers sending to
//      it block (accounted as output_queue_stall_micros) until the drain
//      makes room — that parks the shard, so
//   2. the shard's bounded task queue fills and the reactor BLOCKS in
//      dispatch — it stops reading, socket buffers fill, and TCP flow
//      control pushes the stall back into the clients. The service degrades
//      to the slowest consumer's pace.
//
// Fan-out: a MULTI_GET or WRITE_BATCH whose keys span shards is split into
// per-shard sub-requests joined by a completion count; the last shard to
// finish sends the one response. Cross-shard WRITE_BATCH is NOT atomic
// across shards (each shard applies its slice in its own epoch) — same
// contract a client gets by splitting the batch itself.
#ifndef GADGET_SERVER_SERVER_H_
#define GADGET_SERVER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/server/shard_set.h"
#include "src/stores/kvstore.h"

namespace gadget {
namespace wire {

struct ServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned; read back with Server::port()
  int shards = 4;
  StoreOptions store;  // per-shard template; see ShardSet::Open
  // Reactor count. 0 = min(4, hardware threads). Connections are assigned
  // round-robin at accept and never migrate.
  int io_threads = 0;
  // Max queued tasks per shard before dispatch blocks (the backpressure
  // knob; a task is one connection's burst for one shard).
  size_t shard_queue_limit = 128;
  // Max bytes of queued responses per connection before workers sending to
  // that connection block (the slow-reader backpressure knob). Reactor-
  // inline responses (PONG/STATS) may overshoot briefly — reactors never
  // block on a send.
  size_t conn_outq_limit = 4 << 20;
  // Test hook: shrink each accepted socket's kernel send buffer so a stalled
  // reader makes writev hit EAGAIN with small payloads. 0 = kernel default.
  int so_sndbuf = 0;
  // Test hook: delay every task on this shard by test_delay_ms before
  // execution, making out-of-order completion deterministic in tests.
  int test_delay_shard = -1;
  int test_delay_ms = 0;
};

// Snapshot of the network layer's counters; surfaced in STATS responses (the
// "net" object) and threaded into loadgen reports as `server.net`.
struct NetStats {
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t writev_calls = 0;
  // Most response frames ever submitted in one writev gather list — >1 means
  // pipelined bursts actually coalesced.
  uint64_t frames_per_writev_max = 0;
  uint64_t output_queue_stall_micros = 0;
  uint64_t output_queue_bytes_max = 0;
  uint64_t conns_accepted = 0;
  std::vector<uint64_t> thread_ops;  // frames decoded, per IO thread
};

class Server {
 public:
  // Opens the shards, binds the port, and starts the IO + worker threads.
  static StatusOr<std::unique_ptr<Server>> Start(const ServerOptions& options);

  ~Server();  // implies Stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }
  ShardSet* shard_set() { return shards_.get(); }

  // Resolved reactor count (options.io_threads after the 0 = auto default).
  int io_threads() const;
  // Point-in-time snapshot of the net-layer counters.
  NetStats net_stats() const;

  // Stops accepting, drains in-flight tasks, joins all threads, and closes
  // every shard. Idempotent.
  void Stop();

 private:
  struct Impl;
  Server() = default;

  uint16_t port_ = 0;
  std::unique_ptr<ShardSet> shards_;
  std::unique_ptr<Impl> impl_;
  std::vector<std::thread> io_threads_;
  std::vector<std::thread> workers_;
  bool stopped_ = false;
};

}  // namespace wire
}  // namespace gadget

#endif  // GADGET_SERVER_SERVER_H_
