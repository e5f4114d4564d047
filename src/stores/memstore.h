// In-memory reference store: a lock-striped hash map. Used as the oracle in
// differential tests, as a zero-I/O baseline in examples, and as the target
// of the concurrent-replay scalability benchmarks (Fig. 14 thread sweep).
//
// Keys are sharded across `num_stripes` independent maps by hash; each stripe
// has its own reader-writer mutex, so gets on different keys never serialize
// and gets on the same stripe proceed concurrently under the shared lock.
// Counters are relaxed atomics so readers holding only the shared lock can
// still account their work.
#ifndef GADGET_STORES_MEMSTORE_H_
#define GADGET_STORES_MEMSTORE_H_

#include <atomic>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/stores/kvstore.h"

namespace gadget {

class MemStore : public KVStore {
 public:
  // `num_stripes` is rounded up to a power of two. 1 stripe degenerates to a
  // single-lock store (the pre-striping behaviour, kept for baselines).
  explicit MemStore(size_t num_stripes = kDefaultStripes);

  using KVStore::Get;
  using KVStore::MultiGet;

  Status Put(std::string_view key, std::string_view value) override;
  // ReadOptions are accepted but ignored: there is no cache or I/O to tune.
  Status Get(std::string_view key, std::string* value, const ReadOptions& options) override;
  Status Merge(std::string_view key, std::string_view operand) override;
  Status Delete(std::string_view key) override;
  Status ReadModifyWrite(std::string_view key, std::string_view operand) override;

  // Batched paths: entries are grouped by stripe (stable, so same-key order
  // is preserved — equal keys always hash to the same stripe) and each
  // stripe's lock is taken once per batch instead of once per operation;
  // per-stripe counters are updated once per group.
  Status Write(const WriteBatch& batch) override;
  Status MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses, const ReadOptions& options) override;

  bool supports_merge() const override { return true; }
  StoreStats stats() const override;
  std::string name() const override { return "mem"; }

  // Serializes every stripe into `dir`/memstore.snap (one length-prefixed
  // key/value record per entry). Each stripe is captured under its shared
  // lock, so per-key atomicity holds; callers wanting a cross-stripe-atomic
  // image quiesce writers first (the harness checkpoints between replay ops).
  StatusOr<CheckpointInfo> Checkpoint(const std::string& dir,
                                      const CheckpointOptions& options) override;
  // Loads a Checkpoint() image into this (empty, fresh) store. Entries are
  // inserted directly: operation counters stay at zero, matching a
  // freshly-recovered disk engine. Used by RestoreStore.
  Status LoadCheckpoint(const std::string& dir);

  size_t num_stripes() const { return stripes_.size(); }

  static constexpr size_t kDefaultStripes = 64;

 private:
  // Padded to a cache line so stripes do not false-share. StringKeyHash is
  // transparent, so gets probe with a string_view (no allocation); the same
  // value picks the stripe (low bits) and the map bucket (libstdc++ reduces
  // modulo a prime, so reusing one hash is safe).
  struct alignas(64) Stripe {
    mutable SharedMutex mu;
    std::unordered_map<std::string, std::string, StringKeyHash, std::equal_to<>> map
        GUARDED_BY(mu);
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> puts{0};
    std::atomic<uint64_t> merges{0};
    std::atomic<uint64_t> deletes{0};
    std::atomic<uint64_t> rmws{0};
    std::atomic<uint64_t> bytes_written{0};
    std::atomic<uint64_t> bytes_read{0};
  };

  Stripe& StripeFor(std::string_view key);

  std::vector<Stripe> stripes_;
  size_t stripe_mask_;  // stripes_.size() - 1 (power of two)
};

}  // namespace gadget

#endif  // GADGET_STORES_MEMSTORE_H_
