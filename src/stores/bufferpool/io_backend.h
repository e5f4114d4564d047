// Batched block-read backend for the buffer pool: callers hand over a set of
// (fd, offset, length) reads and block until every one has completed, turning
// N cache misses into one I/O wave instead of N serial preads.
//
// A one-read wave is served inline with pread; larger waves fan out over a
// small persistent pool of pread workers, started by the first such wave.
//
// The backend is intentionally synchronous at the batch level (submit, wait,
// return): the read path needs all blocks of a wave before it can resolve
// lookups, and a blocking batch keeps the pool free of completion callbacks.
#ifndef GADGET_STORES_BUFFERPOOL_IO_BACKEND_H_
#define GADGET_STORES_BUFFERPOOL_IO_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace gadget {

// One positional read. `out` is sized to `length` by the backend; `status`
// carries the per-read outcome (short reads fail — block reads know their
// exact size).
struct IoRead {
  int fd = -1;
  uint64_t offset = 0;
  uint32_t length = 0;
  std::string out;
  Status status;
};

class IoBackend {
 public:
  // Width of the pread worker pool.
  static constexpr int kWorkers = 2;

  IoBackend();
  ~IoBackend();
  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  // Issues every read and blocks until all have completed. Per-read results
  // land in each IoRead::status/out. Reads may complete in any order.
  void ReadBatch(const std::vector<IoRead*>& reads);

  // Always false: every wave goes through pread. Kept for callers that
  // record which backend served a run.
  bool using_io_uring() const { return false; }

  // Counters surfaced through StoreStats: batches issued, reads completed,
  // and the largest number of reads ever in flight at once.
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t in_flight_max() const { return in_flight_max_.load(std::memory_order_relaxed); }

 private:
  struct Batch {
    size_t remaining = 0;
  };
  struct WorkItem {
    IoRead* read = nullptr;
    Batch* batch = nullptr;
  };

  void WorkerLoop();
  void NoteBatch(size_t n);

  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::deque<WorkItem> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> in_flight_max_{0};
};

}  // namespace gadget

#endif  // GADGET_STORES_BUFFERPOOL_IO_BACKEND_H_
