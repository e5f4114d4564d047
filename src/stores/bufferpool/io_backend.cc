#include "src/stores/bufferpool/io_backend.h"

#include "src/common/file_util.h"

namespace gadget {
namespace {

// Block reads always know their exact length, so a short read is
// corruption, not EOF handling.
Status ReadBlock(IoRead* r) {
  r->out.resize(r->length);
  return PreadFully(r->fd, r->out.data(), r->length, r->offset);
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
    reads[0]->status = ReadBlock(reads[0]);
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
    item.read->status = ReadBlock(item.read);
    {
      MutexLock lock(&mu_);
      --item.batch->remaining;
    }
    done_cv_.SignalAll();
  }
}

}  // namespace gadget
