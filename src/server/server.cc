#include "src/server/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/mutex.h"
#include "src/server/net/socket.h"
#include "src/server/wire.h"
#include "src/stores/batch_coalescer.h"

namespace gadget {
namespace wire {
namespace {

constexpr size_t kRecvChunk = 64 << 10;
// Gather-list cap per writev: a deep pipeline coalesces up to this many
// queued response bursts into one syscall. Far below IOV_MAX (1024); past a
// few dozen entries the syscall itself stops being the cost.
constexpr int kMaxIov = 64;

void UpdateMax(std::atomic<uint64_t>& gauge, uint64_t v) {
  uint64_t cur = gauge.load(std::memory_order_relaxed);
  while (cur < v &&
         !gauge.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Process-wide net-layer counters (NetStats minus the per-thread gauges).
struct NetCounters {
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> writev_calls{0};
  std::atomic<uint64_t> frames_per_writev_max{0};
  std::atomic<uint64_t> outq_stall_micros{0};
  std::atomic<uint64_t> outq_bytes_max{0};
  std::atomic<uint64_t> accepted{0};
};

// One enqueued response burst: pre-encoded frames plus how many, so the
// drain can report frames-per-writev.
struct OutChunk {
  std::string data;
  uint64_t frames = 0;
};

// One live client connection. The owning IO thread is the only reader of the
// receive state; the send side is a bounded output queue shared by workers
// and the owner under `mu`, so response bursts never tear or reorder.
struct Conn {
  Conn(int conn_fd, int epfd) : fd(conn_fd), owner_epfd(epfd) {}
  ~Conn() { net::CloseFd(fd); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  const int fd;
  const int owner_epfd;  // for EPOLLOUT (re)arming from any thread
  std::string in;        // owner-IO-thread-only: received bytes not yet framed
  size_t off = 0;        // owner-IO-thread-only: consumed prefix of `in`

  Mutex mu;
  bool closed GUARDED_BY(mu) = false;
  std::deque<OutChunk> outq GUARDED_BY(mu);
  size_t outq_bytes GUARDED_BY(mu) = 0;
  size_t head_off GUARDED_BY(mu) = 0;  // written prefix of outq.front()
  bool write_armed GUARDED_BY(mu) = false;
  CondVar drained{&mu};  // signaled whenever the drain frees queue bytes

  // Enqueues one response burst. Workers pass may_block=true: when the queue
  // is over `outq_limit` they wait — periodically attempting the drain
  // themselves, because the owner reactor may itself be parked in dispatch
  // backpressure and unable to service EPOLLOUT. Reactors pass
  // may_block=false: a reactor must never sleep on one connection.
  void Send(std::string_view frames, uint64_t nframes, bool may_block, size_t outq_limit,
            NetCounters* nc) {
    if (frames.empty()) {
      return;
    }
    MutexLock lock(&mu);
    if (closed) {
      return;
    }
    // A burst bigger than the limit on its own still goes out (it just waits
    // for an empty queue): `outq_bytes != 0` keeps the wait satisfiable.
    if (may_block && outq_bytes != 0 && outq_bytes + frames.size() > outq_limit) {
      const auto t0 = std::chrono::steady_clock::now();
      while (!closed && outq_bytes != 0 && outq_bytes + frames.size() > outq_limit) {
        if (!DrainLocked(nc)) {
          break;  // connection died mid-drain
        }
        if (closed || outq_bytes == 0 || outq_bytes + frames.size() <= outq_limit) {
          break;
        }
        // gadget:blocking-ok: only workers pass may_block=true; the reactor's
        // Send(may_block=false) never enters this loop.
        drained.WaitFor(std::chrono::milliseconds(2));
      }
      nc->outq_stall_micros.fetch_add(
          static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count()),
          std::memory_order_relaxed);
      if (closed) {
        return;
      }
    }
    outq.push_back(OutChunk{std::string(frames), nframes});
    outq_bytes += frames.size();
    UpdateMax(nc->outq_bytes_max, outq_bytes);
    if (!write_armed) {
      if (!DrainLocked(nc)) {
        return;
      }
      if (!outq.empty()) {
        SetWriteInterestLocked(true);  // finish via EPOLLOUT on the owner
      }
    }
  }

  // Writes as much of the output queue as the socket accepts, coalescing up
  // to kMaxIov queued bursts per writev. Returns false when the connection
  // died (closed is then set); true otherwise — a true return with a
  // non-empty queue means EAGAIN.
  bool DrainLocked(NetCounters* nc) REQUIRES(mu) {
    while (!outq.empty()) {
      iovec iov[kMaxIov];
      int cnt = 0;
      uint64_t batch_frames = 0;
      size_t first_off = head_off;
      for (auto it = outq.begin(); it != outq.end() && cnt < kMaxIov; ++it) {
        iov[cnt].iov_base = const_cast<char*>(it->data.data()) + first_off;
        iov[cnt].iov_len = it->data.size() - first_off;
        first_off = 0;
        batch_frames += it->frames;
        ++cnt;
      }
      std::string error;
      const ssize_t n = net::WritevNonBlocking(fd, iov, cnt, &error);
      if (n == -1) {
        return true;  // socket buffer full; caller arms EPOLLOUT
      }
      if (n == -2) {
        closed = true;  // peer is gone; epoll surfaces it to the owner
        drained.SignalAll();
        return false;
      }
      nc->writev_calls.fetch_add(1, std::memory_order_relaxed);
      nc->bytes_out.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      UpdateMax(nc->frames_per_writev_max, batch_frames);
      size_t written = static_cast<size_t>(n);
      outq_bytes -= written;
      while (written > 0) {
        OutChunk& front = outq.front();
        const size_t avail = front.data.size() - head_off;
        if (written >= avail) {
          written -= avail;
          head_off = 0;
          outq.pop_front();
        } else {
          head_off += written;
          written = 0;
        }
      }
      drained.SignalAll();
    }
    if (write_armed) {
      SetWriteInterestLocked(false);
    }
    return true;
  }

  // Flips EPOLLOUT interest on the owning reactor's epoll set. epoll_ctl is
  // thread-safe, so workers arm directly; ENOENT/EBADF (the owner already
  // dropped or closed the fd) are harmless.
  void SetWriteInterestLocked(bool want) REQUIRES(mu) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    ::epoll_ctl(owner_epfd, EPOLL_CTL_MOD, fd, &ev);
    write_armed = want;
  }

  void MarkClosed() {
    MutexLock lock(&mu);
    closed = true;
    drained.SignalAll();  // unblock workers stalled on this queue
  }
};

// Join state for a MULTI_GET whose keys span shards: each shard's worker
// fills its positions; the last one to finish encodes and sends the single
// MULTI response.
struct MultiJoin {
  std::shared_ptr<Conn> conn;
  uint32_t id = 0;
  Mutex mu;
  std::vector<Status> statuses GUARDED_BY(mu);
  std::vector<std::string> values GUARDED_BY(mu);
  size_t remaining GUARDED_BY(mu) = 0;
};

// Join state for a cross-shard WRITE_BATCH: one OK once every shard has
// applied its slice, or the first error.
struct BatchJoin {
  std::shared_ptr<Conn> conn;
  uint32_t id = 0;
  Mutex mu;
  Status error GUARDED_BY(mu);
  size_t remaining GUARDED_BY(mu) = 0;
};

// One decoded request (or per-shard slice of a fan-out request) bound for a
// shard worker.
struct WorkItem {
  MsgType type = MsgType::kPing;
  uint32_t id = 0;
  std::string key;    // get / put / merge / delete
  std::string value;  // put / merge operand

  std::vector<std::string> keys;   // multi-get slice
  std::vector<size_t> positions;   // original index of each key in the request
  std::shared_ptr<MultiJoin> mjoin;

  WriteBatch batch;  // write-batch slice
  std::shared_ptr<BatchJoin> bjoin;
};

// A burst of requests from one connection for one shard.
struct ShardTask {
  std::shared_ptr<Conn> conn;
  std::vector<WorkItem> items;
};

struct ShardQueue {
  Mutex mu;
  CondVar not_empty{&mu};
  CondVar not_full{&mu};
  std::deque<ShardTask> tasks GUARDED_BY(mu);
  bool stop GUARDED_BY(mu) = false;
};

// One reactor: a private epoll set, its connections, a wake eventfd doubling
// as the accepted-fd handoff doorbell.
struct IoThread {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;  // owner thread only
  Mutex in_mu;
  std::vector<int> incoming GUARDED_BY(in_mu);  // accepted fds awaiting adoption
  std::atomic<uint64_t> ops{0};  // frames decoded by this reactor

  ~IoThread() {
    for (int fd : incoming) {
      net::CloseFd(fd);  // accepted but never adopted
    }
    net::CloseFd(wake_fd);
    if (epoll_fd >= 0) {
      ::close(epoll_fd);
    }
  }
};

}  // namespace

struct Server::Impl {
  ServerOptions options;
  ShardSet* shards = nullptr;
  int listen_fd = -1;
  std::atomic<bool> stopping{false};
  std::vector<std::unique_ptr<IoThread>> io;
  size_t next_io = 0;  // round-robin accept cursor; thread 0 only
  std::vector<std::unique_ptr<ShardQueue>> queues;
  NetCounters net;

  ~Impl() { net::CloseFd(listen_fd); }

  void IoLoop(size_t tid);
  void AcceptAll(IoThread& t0);
  void AdoptConn(IoThread& t, int fd);
  void AdoptIncoming(IoThread& t);
  // Receives everything currently buffered on each readable connection.
  // dead[i] is set on EOF / receive error.
  void ReadBatch(const std::vector<std::shared_ptr<Conn>>& ready, std::vector<char>* dead);
  // Drains the output queue on EPOLLOUT; drops the connection on write error.
  void HandleWritable(IoThread& t, const std::shared_ptr<Conn>& conn);
  // Decodes every complete frame buffered on `conn` and dispatches the
  // resulting shard tasks. Returns false when the connection must close
  // (protocol error — the fatal ERROR frame has already been queued).
  bool DecodeBurst(IoThread& t, const std::shared_ptr<Conn>& conn);
  void Dispatch(int shard, ShardTask task);
  void DropConn(IoThread& t, int fd);

  void WorkerLoop(int shard);
  void ExecuteTask(int shard, ShardTask& task);

  NetStats SnapshotNet() const;
  JsonValue NetJson() const;
  std::string StatsText() const;
};

void Server::Impl::AcceptAll(IoThread& t0) {
  for (;;) {
    StatusOr<int> fd = net::TcpAccept(listen_fd);
    if (!fd.ok()) {
      GADGET_LOG(Warning) << "accept failed: " << fd.status().ToString();
      return;
    }
    if (*fd < 0) {
      return;  // listen queue drained
    }
    if (!net::SetNonBlocking(*fd).ok()) {
      net::CloseFd(*fd);
      continue;
    }
    if (options.so_sndbuf > 0) {
      // status intentionally ignored: slow-reader test hook; failure just
      // means the test sees more buffering before EAGAIN.
      (void)net::SetSocketBufferSizes(*fd, options.so_sndbuf, 0);
    }
    net.accepted.fetch_add(1, std::memory_order_relaxed);
    IoThread& target = *io[next_io];
    next_io = (next_io + 1) % io.size();
    if (&target == &t0) {
      AdoptConn(t0, *fd);
    } else {
      {
        MutexLock lock(&target.in_mu);
        target.incoming.push_back(*fd);
      }
      const uint64_t one = 1;
      const ssize_t ignored = ::write(target.wake_fd, &one, sizeof(one));
      (void)ignored;
    }
  }
}

void Server::Impl::AdoptConn(IoThread& t, int fd) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(t.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    net::CloseFd(fd);
    return;
  }
  t.conns.emplace(fd, std::make_shared<Conn>(fd, t.epoll_fd));
}

void Server::Impl::AdoptIncoming(IoThread& t) {
  std::vector<int> fds;
  {
    MutexLock lock(&t.in_mu);
    fds.swap(t.incoming);
  }
  for (int fd : fds) {
    AdoptConn(t, fd);
  }
}

void Server::Impl::DropConn(IoThread& t, int fd) {
  auto it = t.conns.find(fd);
  if (it == t.conns.end()) {
    return;
  }
  it->second->MarkClosed();
  ::epoll_ctl(t.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  // The fd itself closes when the last in-flight task drops its Conn ref.
  t.conns.erase(it);
}

// gadget:reactor-context
void Server::Impl::IoLoop(size_t tid) {
  IoThread& t = *io[tid];
  epoll_event events[64];
  std::vector<std::shared_ptr<Conn>> readable;
  std::vector<char> dead;
  while (!stopping.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(t.epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;  // signals are not events
      }
      GADGET_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    readable.clear();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == t.wake_fd) {
        uint64_t tick = 0;
        const ssize_t ignored = ::read(t.wake_fd, &tick, sizeof(tick));
        (void)ignored;
        AdoptIncoming(t);
        continue;
      }
      if (tid == 0 && fd == listen_fd) {
        AcceptAll(t);
        continue;
      }
      auto it = t.conns.find(fd);
      if (it == t.conns.end()) {
        continue;  // already dropped earlier in this wake
      }
      const uint32_t ev = events[i].events;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
        DropConn(t, fd);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) {
        HandleWritable(t, it->second);
        if (t.conns.find(fd) == t.conns.end()) {
          continue;  // dropped on write error
        }
      }
      if ((ev & EPOLLIN) != 0) {
        readable.push_back(it->second);
      }
    }
    if (!readable.empty()) {
      dead.assign(readable.size(), 0);
      ReadBatch(readable, &dead);
      for (size_t i = 0; i < readable.size(); ++i) {
        if (!DecodeBurst(t, readable[i]) || dead[i] != 0) {
          DropConn(t, readable[i]->fd);
        }
      }
    }
  }
  // Teardown: no new frames will be read; in-flight tasks finish via their
  // own Conn refs, and MarkClosed (inside DropConn) unblocks any worker
  // stalled on an output queue.
  std::vector<int> fds;
  fds.reserve(t.conns.size());
  for (const auto& [fd, conn] : t.conns) {
    fds.push_back(fd);
  }
  for (int fd : fds) {
    DropConn(t, fd);
  }
  AdoptIncoming(t);  // adopt-and-drop stragglers so their fds close
  fds.clear();
  for (const auto& [fd, conn] : t.conns) {
    fds.push_back(fd);
  }
  for (int fd : fds) {
    DropConn(t, fd);
  }
}

void Server::Impl::HandleWritable(IoThread& t, const std::shared_ptr<Conn>& conn) {
  bool dead_conn;
  {
    MutexLock lock(&conn->mu);
    dead_conn = conn->closed || !conn->DrainLocked(&net);
  }
  if (dead_conn) {
    DropConn(t, conn->fd);
  }
}

void Server::Impl::ReadBatch(const std::vector<std::shared_ptr<Conn>>& ready,
                             std::vector<char>* dead) {
  for (size_t i = 0; i < ready.size(); ++i) {
    for (;;) {
      std::string error;
      const int n = net::RecvChunk(ready[i]->fd, &ready[i]->in, kRecvChunk, &error);
      if (n > 0) {
        net.bytes_in.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
        continue;  // drain until EAGAIN so level-triggered epoll stays quiet
      }
      if (n == -1) {
        break;  // no more buffered bytes
      }
      (*dead)[i] = 1;  // orderly EOF or hard error: process what we have
      break;
    }
  }
}

bool Server::Impl::DecodeBurst(IoThread& t, const std::shared_ptr<Conn>& conn) {
  // Responses the reactor can produce itself (PONG, STATS_TEXT, trivial
  // empty-request replies) accumulate here and go out as one queued burst.
  std::string inline_out;
  uint64_t inline_frames = 0;
  std::vector<std::vector<WorkItem>> per_shard(queues.size());
  bool ok = true;

  for (;;) {
    FrameView frame;
    size_t consumed = 0;
    std::string error;
    const FrameStatus fs =
        ExtractFrame(std::string_view(conn->in).substr(conn->off), &frame, &consumed, &error);
    if (fs == FrameStatus::kNeedMore) {
      break;
    }
    if (fs == FrameStatus::kError) {
      AppendErrorResponse(&inline_out, 0, error);  // id 0: connection-fatal
      ++inline_frames;
      ok = false;
      break;
    }
    Request req;
    const Status ps = ParseRequest(frame, &req);
    if (!ps.ok()) {
      AppendErrorResponse(&inline_out, 0, ps.ToString());
      ++inline_frames;
      ok = false;
      break;
    }
    conn->off += consumed;
    t.ops.fetch_add(1, std::memory_order_relaxed);
    switch (req.type) {
      case MsgType::kPing:
        AppendPongResponse(&inline_out, req.id);
        ++inline_frames;
        break;
      case MsgType::kStats:
        AppendStatsTextResponse(&inline_out, req.id, StatsText());
        ++inline_frames;
        break;
      case MsgType::kGet:
      case MsgType::kPut:
      case MsgType::kMerge:
      case MsgType::kDelete: {
        WorkItem item;
        item.type = req.type;
        item.id = req.id;
        item.key = std::move(req.key);
        item.value = std::move(req.value);
        const int shard = shards->Route(item.key);
        per_shard[static_cast<size_t>(shard)].push_back(std::move(item));
        break;
      }
      case MsgType::kMultiGet: {
        if (req.keys.empty()) {
          AppendMultiResponse(&inline_out, req.id, {}, {});
          ++inline_frames;
          break;
        }
        auto join = std::make_shared<MultiJoin>();
        join->conn = conn;
        join->id = req.id;
        std::unordered_map<int, size_t> slice;  // shard -> index in per-shard items
        {
          MutexLock lock(&join->mu);
          join->statuses.assign(req.keys.size(), Status::NotFound());
          join->values.assign(req.keys.size(), std::string());
          for (size_t i = 0; i < req.keys.size(); ++i) {
            const int shard = shards->Route(req.keys[i]);
            auto [it, inserted] = slice.emplace(shard, 0);
            if (inserted) {
              WorkItem item;
              item.type = MsgType::kMultiGet;
              item.id = req.id;
              item.mjoin = join;
              per_shard[static_cast<size_t>(shard)].push_back(std::move(item));
              it->second = per_shard[static_cast<size_t>(shard)].size() - 1;
            }
            WorkItem& part = per_shard[static_cast<size_t>(shard)][it->second];
            part.keys.push_back(std::move(req.keys[i]));
            part.positions.push_back(i);
          }
          join->remaining = slice.size();
        }
        break;
      }
      case MsgType::kWriteBatch: {
        if (req.batch.empty()) {
          AppendOkResponse(&inline_out, req.id);
          ++inline_frames;
          break;
        }
        auto join = std::make_shared<BatchJoin>();
        join->conn = conn;
        join->id = req.id;
        std::unordered_map<int, size_t> slice;
        size_t parts = 0;
        for (size_t i = 0; i < req.batch.size(); ++i) {
          const WriteBatch::Entry& e = req.batch.entry(i);
          const int shard = shards->Route(e.key);
          auto [it, inserted] = slice.emplace(shard, 0);
          if (inserted) {
            WorkItem item;
            item.type = MsgType::kWriteBatch;
            item.id = req.id;
            item.bjoin = join;
            per_shard[static_cast<size_t>(shard)].push_back(std::move(item));
            it->second = per_shard[static_cast<size_t>(shard)].size() - 1;
            ++parts;
          }
          per_shard[static_cast<size_t>(shard)][it->second].batch.Append(e.op, e.key, e.value);
        }
        {
          MutexLock lock(&join->mu);
          join->remaining = parts;
        }
        break;
      }
      default:
        AppendErrorResponse(&inline_out, 0, "unhandled request type");
        ++inline_frames;
        ok = false;
        break;
    }
    if (!ok) {
      break;
    }
  }

  // Reclaim consumed bytes once they dominate the buffer.
  if (conn->off > 4096 && conn->off * 2 > conn->in.size()) {
    conn->in.erase(0, conn->off);
    conn->off = 0;
  }
  conn->Send(inline_out, inline_frames, /*may_block=*/false,
             options.conn_outq_limit, &net);
  for (size_t shard = 0; shard < per_shard.size(); ++shard) {
    if (!per_shard[shard].empty()) {
      ShardTask task;
      task.conn = conn;
      task.items = std::move(per_shard[shard]);
      Dispatch(static_cast<int>(shard), std::move(task));
    }
  }
  return ok;
}

void Server::Impl::Dispatch(int shard, ShardTask task) {
  ShardQueue& q = *queues[static_cast<size_t>(shard)];
  MutexLock lock(&q.mu);
  // Blocking here IS the backpressure: this reactor stops reading every
  // connection it owns until the stalled shard drains, and TCP pushes the
  // wait back to the clients.
  while (q.tasks.size() >= options.shard_queue_limit && !q.stop) {
    // gadget:blocking-ok: deliberate — a full shard queue must stall this
    // reactor (see the backpressure comment above).
    q.not_full.Wait();
  }
  if (q.stop) {
    return;  // shutting down; the connection is about to drop anyway
  }
  q.tasks.push_back(std::move(task));
  q.not_empty.Signal();
}

void Server::Impl::WorkerLoop(int shard) {
  ShardQueue& q = *queues[static_cast<size_t>(shard)];
  for (;;) {
    ShardTask task;
    {
      MutexLock lock(&q.mu);
      while (q.tasks.empty() && !q.stop) {
        q.not_empty.Wait();
      }
      if (q.tasks.empty()) {
        return;  // stopped and drained
      }
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
      q.not_full.Signal();
    }
    if (shard == options.test_delay_shard && options.test_delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options.test_delay_ms));
    }
    ExecuteTask(shard, task);
  }
}

void Server::Impl::ExecuteTask(int shard, ShardTask& task) {
  KVStore* store = shards->shard(shard);
  std::string out;  // responses for this burst, queued once at the end
  uint64_t out_frames = 0;

  // Single ops coalesce into one WriteBatch / MultiGet through the shared
  // BatchCoalescer, which owns the same-key conflict rules; the flush actions
  // here only answer each coalesced request. Store errors become ERROR
  // frames, so neither action fails. Each id is queued before its op joins
  // the coalescer, because joining can flush that op's own side.
  std::vector<uint32_t> wids;
  std::vector<uint32_t> gids;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  BatchCoalescer batch(
      BatchCoalescer::kMaxPending,
      [&](const WriteBatch& wb) {
        const Status s = store->Write(wb);
        for (uint32_t id : wids) {
          if (s.ok()) {
            AppendOkResponse(&out, id);
          } else {
            AppendErrorResponse(&out, id, s.ToString());
          }
        }
        out_frames += wids.size();
        wids.clear();
        return Status::Ok();
      },
      [&](const std::vector<std::string>& keys) {
        // Per-key statuses carry the outcome; the aggregate return repeats the
        // first non-NotFound error. status intentionally ignored: per-key below.
        (void)store->MultiGet(keys, &values, &statuses);
        for (size_t i = 0; i < gids.size(); ++i) {
          if (statuses[i].ok()) {
            AppendValueResponse(&out, gids[i], values[i]);
          } else if (statuses[i].IsNotFound()) {
            AppendNotFoundResponse(&out, gids[i]);
          } else {
            AppendErrorResponse(&out, gids[i], statuses[i].ToString());
          }
        }
        out_frames += gids.size();
        gids.clear();
        return Status::Ok();
      });

  auto run = [&]() -> Status {
    for (WorkItem& item : task.items) {
      switch (item.type) {
        case MsgType::kPut:
          wids.push_back(item.id);
          GADGET_RETURN_IF_ERROR(batch.AddWrite(WriteBatch::Op::kPut, item.key, item.value));
          break;
        case MsgType::kMerge:
          wids.push_back(item.id);
          GADGET_RETURN_IF_ERROR(batch.AddWrite(WriteBatch::Op::kMerge, item.key, item.value));
          break;
        case MsgType::kDelete:
          wids.push_back(item.id);
          GADGET_RETURN_IF_ERROR(batch.AddWrite(WriteBatch::Op::kDelete, item.key, {}));
          break;
        case MsgType::kGet:
          gids.push_back(item.id);
          GADGET_RETURN_IF_ERROR(batch.AddGet(item.key));
          break;
        case MsgType::kMultiGet: {
          GADGET_RETURN_IF_ERROR(batch.BeforeMultiGet(item.keys));
          // status intentionally ignored: per-key statuses are authoritative.
          (void)store->MultiGet(item.keys, &values, &statuses);
          bool done = false;
          std::string join_out;
          {
            MutexLock lock(&item.mjoin->mu);
            for (size_t i = 0; i < item.positions.size(); ++i) {
              item.mjoin->statuses[item.positions[i]] = statuses[i];
              item.mjoin->values[item.positions[i]] = std::move(values[i]);
            }
            done = (--item.mjoin->remaining == 0);
            if (done) {
              AppendMultiResponse(&join_out, item.mjoin->id, item.mjoin->statuses,
                                  item.mjoin->values);
            }
          }
          if (done) {
            item.mjoin->conn->Send(join_out, 1, /*may_block=*/true,
                                   options.conn_outq_limit, &net);
          }
          break;
        }
        case MsgType::kWriteBatch: {
          GADGET_RETURN_IF_ERROR(batch.BeforeWrite(item.batch));
          const Status s = store->Write(item.batch);
          bool done = false;
          std::string join_out;
          {
            MutexLock lock(&item.bjoin->mu);
            if (!s.ok() && item.bjoin->error.ok()) {
              item.bjoin->error = s;
            }
            done = (--item.bjoin->remaining == 0);
            if (done) {
              if (item.bjoin->error.ok()) {
                AppendOkResponse(&join_out, item.bjoin->id);
              } else {
                AppendErrorResponse(&join_out, item.bjoin->id, item.bjoin->error.ToString());
              }
            }
          }
          if (done) {
            item.bjoin->conn->Send(join_out, 1, /*may_block=*/true,
                                   options.conn_outq_limit, &net);
          }
          break;
        }
        default:
          AppendErrorResponse(&out, item.id, "unroutable request type");
          ++out_frames;
          break;
      }
    }
    return batch.Flush();
  };
  // status intentionally ignored: both flush actions return Ok (store errors
  // went out as ERROR frames), so the coalescer cannot fail.
  (void)run();
  task.conn->Send(out, out_frames, /*may_block=*/true,
                  options.conn_outq_limit, &net);
}

NetStats Server::Impl::SnapshotNet() const {
  NetStats s;
  s.bytes_in = net.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = net.bytes_out.load(std::memory_order_relaxed);
  s.writev_calls = net.writev_calls.load(std::memory_order_relaxed);
  s.frames_per_writev_max = net.frames_per_writev_max.load(std::memory_order_relaxed);
  s.output_queue_stall_micros = net.outq_stall_micros.load(std::memory_order_relaxed);
  s.output_queue_bytes_max = net.outq_bytes_max.load(std::memory_order_relaxed);
  s.conns_accepted = net.accepted.load(std::memory_order_relaxed);
  s.thread_ops.reserve(io.size());
  for (const auto& t : io) {
    s.thread_ops.push_back(t->ops.load(std::memory_order_relaxed));
  }
  return s;
}

JsonValue Server::Impl::NetJson() const {
  const NetStats s = SnapshotNet();
  JsonValue net_doc = JsonValue::MakeObject();
  net_doc.Set("io_threads", static_cast<uint64_t>(io.size()));
  net_doc.Set("bytes_in", s.bytes_in);
  net_doc.Set("bytes_out", s.bytes_out);
  net_doc.Set("writev_calls", s.writev_calls);
  net_doc.Set("frames_per_writev_max", s.frames_per_writev_max);
  net_doc.Set("output_queue_stall_micros", s.output_queue_stall_micros);
  net_doc.Set("output_queue_bytes_max", s.output_queue_bytes_max);
  net_doc.Set("conns_accepted", s.conns_accepted);
  JsonValue thread_ops = JsonValue::MakeArray();
  for (uint64_t v : s.thread_ops) {
    thread_ops.Append(v);
  }
  net_doc.Set("thread_ops", std::move(thread_ops));
  return net_doc;
}

std::string Server::Impl::StatsText() const {
  JsonValue doc = shards->StatsDoc();
  doc.Set("net", NetJson());
  return doc.Write();
}

StatusOr<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  auto shards = ShardSet::Open(options.store, options.shards);
  if (!shards.ok()) {
    return shards.status();
  }
  StatusOr<int> listen = net::TcpListen(options.port);
  if (!listen.ok()) {
    // status intentionally ignored: the open itself already failed.
    (void)(*shards)->Close();
    return listen.status();
  }
  auto impl = std::make_unique<Server::Impl>();
  impl->options = options;
  impl->listen_fd = *listen;
  const StatusOr<uint16_t> port = net::TcpLocalPort(impl->listen_fd);
  if (!port.ok()) {
    // status intentionally ignored: the open itself already failed.
    (void)(*shards)->Close();
    return port.status();
  }
  GADGET_RETURN_IF_ERROR(net::SetNonBlocking(impl->listen_fd));

  int nio = options.io_threads;
  if (nio <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    nio = static_cast<int>(std::min<unsigned>(4, hw == 0 ? 1 : hw));
  }
  impl->io.reserve(static_cast<size_t>(nio));
  for (int i = 0; i < nio; ++i) {
    auto t = std::make_unique<IoThread>();
    t->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    t->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (t->epoll_fd < 0 || t->wake_fd < 0) {
      // status intentionally ignored: the open itself already failed.
      (void)(*shards)->Close();
      return Status::IoError("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = t->wake_fd;
    if (::epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, t->wake_fd, &ev) < 0) {
      // status intentionally ignored: the open itself already failed.
      (void)(*shards)->Close();
      return Status::IoError("epoll_ctl(wake)");
    }
    if (i == 0) {
      ev.data.fd = impl->listen_fd;
      if (::epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, impl->listen_fd, &ev) < 0) {
        // status intentionally ignored: the open itself already failed.
        (void)(*shards)->Close();
        return Status::IoError("epoll_ctl(listen)");
      }
    }
    impl->io.push_back(std::move(t));
  }

  std::unique_ptr<Server> server(new Server());
  server->shards_ = std::move(*shards);
  server->port_ = *port;
  impl->shards = server->shards_.get();
  impl->queues.reserve(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    impl->queues.push_back(std::make_unique<ShardQueue>());
  }
  server->impl_ = std::move(impl);
  Server::Impl* raw = server->impl_.get();
  server->io_threads_.reserve(static_cast<size_t>(nio));
  for (int i = 0; i < nio; ++i) {
    server->io_threads_.emplace_back([raw, i] { raw->IoLoop(static_cast<size_t>(i)); });
  }
  server->workers_.reserve(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    server->workers_.emplace_back([raw, i] { raw->WorkerLoop(i); });
  }
  GADGET_LOG(Info) << "gadget serve: " << options.shards << " shard(s) of "
                   << options.store.engine << " on 127.0.0.1:" << server->port_ << ", " << nio
                   << " IO thread(s)";
  return server;
}

int Server::io_threads() const { return static_cast<int>(impl_->io.size()); }

NetStats Server::net_stats() const { return impl_->SnapshotNet(); }

void Server::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  impl_->stopping.store(true, std::memory_order_relaxed);
  // Unwedge reactors first: one blocked in Dispatch (backpressure) cannot see
  // `stopping` until its queue wait ends, so release the queues before the
  // joins. Workers still drain everything already queued before exiting.
  for (auto& q : impl_->queues) {
    MutexLock lock(&q->mu);
    q->stop = true;
    q->not_empty.SignalAll();
    q->not_full.SignalAll();
  }
  for (auto& t : impl_->io) {
    const uint64_t one = 1;
    const ssize_t ignored = ::write(t->wake_fd, &one, sizeof(one));
    (void)ignored;
  }
  for (std::thread& th : io_threads_) {
    th.join();
  }
  for (std::thread& w : workers_) {
    w.join();
  }
  const Status close_status = shards_->Close();
  if (!close_status.ok()) {
    GADGET_LOG(Warning) << "shard close: " << close_status.ToString();
  }
}

Server::~Server() {
  if (impl_ != nullptr) {
    Stop();
  }
}

}  // namespace wire
}  // namespace gadget
