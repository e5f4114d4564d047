// Batch coalescing: turns a stream of single operations into
// Write(WriteBatch) and MultiGet calls without reordering any same-key pair.
//
// Every caller that batches one op stream uses this one class: the
// evaluator's batched replay (src/gadget/evaluator.cc) and the server's shard
// workers (src/server/server.cc). The owner supplies the two flush actions
// (the store call and what it does with the result); the coalescer owns the
// pending WriteBatch, the pending get keys, and both conflict rules:
//   * a get whose key is a pending write flushes the writes first
//     (read-your-writes);
//   * a write whose key is a pending get flushes the gets first (no
//     write-after-read reordering).
// The two pending key sets therefore stay disjoint, so the order in which
// they flush is unobservable: ops on unrelated keys may commit out of stream
// order, but no reordering crosses a same-key dependency.
//
// Membership checks make no heap allocation: each side keeps a 4096-bit
// never-false-negative filter over its encoded keys, and only a filter hit
// pays an exact scan of that side. A cleared side keeps its storage, so a
// reused coalescer allocates nothing per op in steady state.
#ifndef GADGET_STORES_BATCH_COALESCER_H_
#define GADGET_STORES_BATCH_COALESCER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/stores/kvstore.h"

namespace gadget {

class BatchCoalescer {
 public:
  // Upper bound on either pending side, whatever batch size is asked for.
  // It bounds the exact scan behind a filter hit (a full side keeps its
  // filter ~6% occupied), so an unbounded server burst costs O(1) per op
  // instead of a scan that grows with the burst.
  static constexpr size_t kMaxPending = 256;

  // Flush actions. Each issues the store call for one pending side; the
  // coalescer clears that side afterwards. A non-Ok return is handed back
  // unchanged from the call that triggered the flush.
  using FlushWrites = std::function<Status(const WriteBatch& batch)>;
  using FlushGets = std::function<Status(const std::vector<std::string>& keys)>;

  // A side flushes as soon as it holds min(batch_size, kMaxPending) ops
  // (0 counts as 1).
  BatchCoalescer(size_t batch_size, FlushWrites flush_writes, FlushGets flush_gets);

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  Status AddGet(std::string_view key);
  Status AddWrite(WriteBatch::Op op, std::string_view key, std::string_view value);

  // Orders an operation the owner issues itself, outside the pending sides,
  // after every pending op it depends on. A direct MultiGet of `keys` flushes
  // the writes if any key is a pending write. A direct Write of `batch`
  // flushes the writes if any key is a pending write, and the gets if any key
  // is a pending get.
  Status BeforeMultiGet(const std::vector<std::string>& keys);
  Status BeforeWrite(const WriteBatch& batch);

  // Flushes the pending writes, then the pending gets.
  Status Flush();

 private:
  // Never-false-negative membership filter over one side's keys. Clearing is
  // a 512-byte fill per flush, noise next to one store call.
  struct KeyFilter {
    uint64_t bits[64] = {};

    void Add(uint64_t h) { bits[(h >> 6) & 63] |= 1ull << (h & 63); }
    bool MayContain(uint64_t h) const { return ((bits[(h >> 6) & 63] >> (h & 63)) & 1) != 0; }
    void Clear();
  };

  bool WritePending(std::string_view key, uint64_t h) const;
  bool GetPending(std::string_view key, uint64_t h) const;
  Status FlushWritesNow();
  Status FlushGetsNow();

  const size_t cap_;
  const FlushWrites flush_writes_;
  const FlushGets flush_gets_;

  WriteBatch batch_;
  KeyFilter write_filter_;
  // Pending get keys, reused via the n_gets_ watermark so each slot's key
  // buffer survives across flushes (a 16-byte state key exceeds SSO).
  std::vector<std::string> get_keys_;
  size_t n_gets_ = 0;
  KeyFilter get_filter_;
};

}  // namespace gadget

#endif  // GADGET_STORES_BATCH_COALESCER_H_
