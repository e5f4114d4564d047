#include "src/stores/bufferpool/io_backend.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

namespace gadget {
namespace {

// Full positional read with short-read detection; block reads always know
// their exact length, so a short read is corruption, not EOF handling.
Status PreadFully(IoRead* r) {
  r->out.resize(r->length);
  char* p = r->out.data();
  size_t left = r->length;
  uint64_t off = r->offset;
  while (left > 0) {
    ssize_t n = ::pread(r->fd, p, left, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::IoError(std::string("pread: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IoError("short read");
    }
    p += n;
    left -= static_cast<size_t>(n);
    off += static_cast<uint64_t>(n);
  }
  return Status::Ok();
}

}  // namespace

IoBackend::IoBackend() : work_cv_(&mu_), done_cv_(&mu_) {}

IoBackend::~IoBackend() {
  std::vector<std::thread> workers;
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  work_cv_.SignalAll();
  for (std::thread& t : workers) {
    t.join();
  }
}

void IoBackend::NoteBatch(size_t n) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  reads_.fetch_add(n, std::memory_order_relaxed);
  uint64_t cur = in_flight_max_.load(std::memory_order_relaxed);
  while (n > cur &&
         !in_flight_max_.compare_exchange_weak(cur, n, std::memory_order_relaxed)) {
  }
}

void IoBackend::ReadBatch(const std::vector<IoRead*>& reads) {
  if (reads.empty()) {
    return;
  }
  NoteBatch(reads.size());
  if (reads.size() == 1) {
    // A one-read wave gains nothing from the worker hand-off.
    reads[0]->status = PreadFully(reads[0]);
    return;
  }
  Batch batch;
  batch.remaining = reads.size();
  {
    MutexLock lock(&mu_);
    // Workers start with the first multi-read wave, so a process that never
    // issues one stays single-threaded: libstdc++ then keeps shared_ptr
    // refcounts non-atomic, which the buffer pool's hit path leans on.
    if (workers_.empty()) {
      for (int i = 0; i < kWorkers; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    }
    for (IoRead* r : reads) {
      queue_.push_back({r, &batch});
    }
  }
  work_cv_.SignalAll();
  MutexLock lock(&mu_);
  while (batch.remaining > 0) {
    done_cv_.Wait();
  }
}

void IoBackend::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      MutexLock lock(&mu_);
      while (queue_.empty() && !shutdown_) {
        work_cv_.Wait();
      }
      if (queue_.empty()) {
        return;  // shutdown with the queue drained
      }
      item = queue_.front();
      queue_.pop_front();
    }
    item.read->status = PreadFully(item.read);
    {
      MutexLock lock(&mu_);
      --item.batch->remaining;
    }
    done_cv_.SignalAll();
  }
}

}  // namespace gadget
