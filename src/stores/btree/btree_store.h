// Persistent B+tree key-value store (the project's BerkeleyDB stand-in).
//
// Fixed-size pages in a single file, in-place value updates when the new
// value fits, leaf splits on overflow, and overflow-page chains for values
// larger than a quarter page (holistic window buckets grow far beyond a
// page). Deletes remove entries without rebalancing; the pages of a
// released overflow chain return to a free list threaded through them,
// which matches BerkeleyDB's lazy reclamation behaviour closely enough for
// benchmarking.
//
// Every page but the meta page — tree node, overflow chunk or free-list
// link — is cached the same way, as BerkeleyDB's memory pool caches every
// page: parsed, in the SHARED BufferPool (one page of charge each), and
// mutated only in a dirty side table (unevictable — the pool may drop its
// frame, the page object survives). The dirty table is written back when it
// grows past a threshold, on Flush() and on Close(). FetchPage consults the
// dirty table before the pool, so an evicted-then-refetched dirty page can
// never resurrect its stale on-disk bytes. The only raw page I/O is the
// meta page, a pool miss and the write-back.
// Crash-consistency (journaling) is out of scope — the paper benchmarks the
// storage engine data path, not transactional recovery (DESIGN.md §2).
#ifndef GADGET_STORES_BTREE_BTREE_STORE_H_
#define GADGET_STORES_BTREE_BTREE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/stores/bufferpool/buffer_pool.h"
#include "src/stores/kvstore.h"

namespace gadget {

struct BTreeOptions {
  uint32_t page_size = 4096;
  // Page residency is bounded by the BufferPool passed to Open (sized by
  // StoreOptions::buffer_pool), not per-store.
  bool sync_writes = false;
};

class BTreeStore : public KVStore {
 public:
  // `pool` bounds page residency; nullptr makes the store create a private
  // default-sized pool (standalone tests/tools).
  static StatusOr<std::unique_ptr<KVStore>> Open(const std::string& dir,
                                                 const BTreeOptions& opts,
                                                 std::shared_ptr<BufferPool> pool = nullptr);
  ~BTreeStore() override;

  using KVStore::Get;
  using KVStore::MultiGet;

  Status Put(std::string_view key, std::string_view value) override;
  // Honors options.fill_cache (a miss read with fill_cache=false is not
  // admitted to the pool); readahead/checksums do not apply to the page file.
  Status Get(std::string_view key, std::string* value, const ReadOptions& options) override;
  Status Delete(std::string_view key) override;
  Status ReadModifyWrite(std::string_view key, std::string_view operand) override;

  // Batched paths: one mu_ acquisition and one write-back sweep per batch
  // instead of one per operation (page granularity — consecutive entries
  // hitting the same leaf reuse the cached page without re-locking).
  Status Write(const WriteBatch& batch) override;
  Status MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                  std::vector<Status>* statuses, const ReadOptions& options) override;

  Status Flush() override;
  Status Close() override;
  // Flushes dirty pages + meta under mu_, then byte-copies the page file
  // into `dir`. The copy happens with mu_ held after the flush, so it is a
  // point-in-time image; the file mutates in place, so there is nothing to
  // reuse incrementally (options.base_dir is ignored).
  StatusOr<CheckpointInfo> Checkpoint(const std::string& dir,
                                      const CheckpointOptions& options) override;
  StoreStats stats() const override;
  std::string name() const override { return "btree"; }

  // Introspection for tests.
  uint32_t height() const;
  uint64_t num_pages() const;
  // Walks the whole tree, every overflow chain and the free list, checking
  // ordering + structure invariants.
  Status CheckInvariants();

 private:
  // In-memory (parsed) page representation. Every page but the meta page is
  // a tree node (reached from the root) or a chain page (reached from a
  // leaf's ValueRef or from free_head_); `chain` tells the two apart so a
  // cached page fetched as the wrong kind is Corruption, not a bad cast.
  struct Page {
    explicit Page(bool is_chain) : chain(is_chain) {}
    bool chain;
  };
  struct ValueRef {
    std::string inline_data;     // used when overflow_head == 0
    uint32_t overflow_head = 0;  // first overflow page, 0 = inline
    uint32_t total_len = 0;      // full value length when overflowed
  };
  struct Node : Page {
    Node() : Page(false) {}
    bool leaf = true;
    std::vector<std::string> keys;
    std::vector<ValueRef> values;     // leaf: parallel to keys
    std::vector<uint32_t> children;   // internal: keys.size() + 1 entries
    uint32_t next_leaf = 0;
    size_t SerializedSize() const;
  };
  // One chunk of an overflowed value, or a free-list link (empty chunk).
  // On disk: u32 next | u32 chunk_len | chunk.
  struct ChainPage : Page {
    ChainPage() : Page(true) {}
    uint32_t next = 0;
    std::string chunk;
  };

  BTreeStore(std::string dir, const BTreeOptions& opts, std::shared_ptr<BufferPool> pool);

  Status Recover();

  // --- page cache (mu_ held) ---
  // Dirty table first (pool eviction must never resurrect stale disk bytes),
  // then the pool, then disk. `fill_cache` = false skips pool admission on a
  // miss. A page of the other kind, or an id outside [1, next_page_), is
  // Corruption.
  StatusOr<std::shared_ptr<Page>> FetchPage(uint32_t page_id, bool chain, bool fill_cache)
      REQUIRES(mu_);
  StatusOr<std::shared_ptr<Node>> FetchNode(uint32_t page_id, bool fill_cache = true)
      REQUIRES(mu_);
  StatusOr<std::shared_ptr<ChainPage>> FetchChainPage(uint32_t page_id, bool fill_cache)
      REQUIRES(mu_);
  // Registers a mutated page in the dirty table (idempotent). Pages are
  // mutated in place: the pool frame, if any, shares the object.
  void MarkDirty(uint32_t page_id, std::shared_ptr<Page> page) REQUIRES(mu_);
  // Admits a page object new to its id (a split's node, a chunk on a new
  // page) to pool + dirty table, dropping any frame of the id's old object.
  void InstallPage(uint32_t page_id, std::shared_ptr<Page> page) REQUIRES(mu_);
  // Writes every dirty page to the page file and clears the table (no sync).
  Status WriteBackDirtyLocked() REQUIRES(mu_);
  // Bounds the dirty table: full write-back once it passes kMaxDirtyPages
  // (the pool bounds CLEAN residency; dirty pages live outside its budget).
  Status MaybeWriteBackLocked() REQUIRES(mu_);
  // Pops the free list, or extends the file when it is empty. A popped page
  // is returned in `link` (may be null) for a chain page to reuse in place;
  // `link` stays null for a new page.
  StatusOr<uint32_t> AllocPage(std::shared_ptr<ChainPage>* link = nullptr) REQUIRES(mu_);
  // Turns chain page `page` into the free-list head, in place.
  void FreePage(uint32_t page_id, const std::shared_ptr<ChainPage>& page) REQUIRES(mu_);
  Status PersistMeta() REQUIRES(mu_);
  // Flush body shared by Flush() and Checkpoint(): write-back every dirty
  // page, persist the meta page, fdatasync the file.
  Status FlushLocked() REQUIRES(mu_);

  // --- tree ops (mu_ held) ---
  // Descends to the leaf for `key`, recording the path (page ids + child
  // indices) for split propagation, and finds the key's slot in the leaf.
  struct PathEntry {
    uint32_t page_id;
    size_t child_index;
  };
  struct LeafSlot {
    std::vector<PathEntry> path;
    uint32_t leaf_id = 0;
    std::shared_ptr<Node> leaf;
    size_t idx = 0;      // lower_bound of the key in leaf->keys
    bool found = false;  // leaf->keys[idx] == key
  };
  StatusOr<LeafSlot> FindSlot(std::string_view key, bool fill_cache = true) REQUIRES(mu_);
  // Stores `value` under `key` at `slot` (replacing and releasing any old
  // value), then splits the leaf if it no longer fits a page.
  Status StoreAt(LeafSlot slot, std::string_view key, std::string_view value) REQUIRES(mu_);
  Status GetLocked(std::string_view key, std::string* value, bool fill_cache = true)
      REQUIRES(mu_);
  Status PutLocked(std::string_view key, std::string_view value) REQUIRES(mu_);
  Status DeleteLocked(std::string_view key) REQUIRES(mu_);
  // One descent: load, append and store in place (an eager RMW that
  // rewrites the whole value, as BerkeleyDB does without a merge operator).
  Status RmwLocked(std::string_view key, std::string_view operand) REQUIRES(mu_);
  Status SplitAndInsert(uint32_t leaf_id, std::vector<PathEntry> path) REQUIRES(mu_);

  // --- overflow values (mu_ held) ---
  StatusOr<ValueRef> StoreValue(std::string_view value) REQUIRES(mu_);
  Status LoadValue(const ValueRef& ref, std::string* out, bool fill_cache = true)
      REQUIRES(mu_);
  Status ReleaseValue(const ValueRef& ref) REQUIRES(mu_);
  // Walks an overflow chain in order, appending its chunks to `out` and its
  // pages to `pages` (either may be null). A chain longer than
  // ceil(total_len / chunk capacity) pages (a cycle), or whose chunks do not
  // add up to total_len, is Corruption.
  using ChainRef = std::pair<uint32_t, std::shared_ptr<ChainPage>>;
  Status WalkChain(const ValueRef& ref, bool fill_cache, std::string* out,
                   std::vector<ChainRef>* pages) REQUIRES(mu_);

  // --- raw page I/O (mu_ held: they use fd_) ---
  Status ReadPageRaw(uint32_t page_id, std::string* out) REQUIRES(mu_);
  Status WritePageRaw(uint32_t page_id, std::string_view data) REQUIRES(mu_);

  std::string SerializePage(const Page& page) const;
  StatusOr<Node> DeserializeNode(std::string_view data) const;

  const std::string dir_;
  const BTreeOptions opts_;
  // Shared (or private when Open got nullptr) page residency: parsed pages
  // are cached as decoded objects, one page of charge each. Never null.
  const std::shared_ptr<BufferPool> pool_;
  uint64_t pool_file_id_ = 0;  // this store's namespace within the pool

  // Write-back ceiling for the dirty table.
  static constexpr size_t kMaxDirtyPages = 1024;

  mutable Mutex mu_;
  int fd_ GUARDED_BY(mu_) = -1;
  uint32_t root_ GUARDED_BY(mu_) = 0;
  uint32_t next_page_ GUARDED_BY(mu_) = 1;  // page 0 is the meta page
  // Singly-linked free list threaded through chain pages.
  uint32_t free_head_ GUARDED_BY(mu_) = 0;
  uint32_t height_ GUARDED_BY(mu_) = 1;

  // Mutated pages not yet written back. Keeps the page object alive (and
  // authoritative) even if the pool evicts its frame.
  std::unordered_map<uint32_t, std::shared_ptr<Page>> dirty_ GUARDED_BY(mu_);

  StoreStats stats_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace gadget

#endif  // GADGET_STORES_BTREE_BTREE_STORE_H_
