// In-memory write buffer: a hash index over one flat record per key, sorted
// only when a sealed memtable is flushed.
//
// Entries collapse eagerly where legal: Put and Delete supersede everything
// older *within this memtable*, so each key holds exactly the record it will
// flush as. A key with operands but no base stays lazy (kMergeStack, its
// operands already in EncodeMergeStack's encoding) so older levels supply the
// base; a merge onto a base or a tombstone appends to a full value.
#ifndef GADGET_STORES_LSM_MEMTABLE_H_
#define GADGET_STORES_LSM_MEMTABLE_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/hash.h"
#include "src/stores/lsm/format.h"

namespace gadget {

class MemTable {
 public:
  MemTable() = default;

  void Put(std::string_view key, std::string_view value);
  void Merge(std::string_view key, std::string_view operand);
  void Delete(std::string_view key);

  // Point lookup. On kFound, *value is the fully assembled value from this
  // memtable. On kMergePartial, *operands receives this memtable's operands
  // (oldest-first) and the caller must continue searching older data.
  LookupState Get(std::string_view key, std::string* value,
                  std::vector<std::string>* operands) const;

  // Approximate memory footprint in bytes: per key, its size plus a fixed
  // node overhead plus its record's size.
  uint64_t ApproximateBytes() const { return bytes_; }
  bool empty() const { return table_.empty(); }

  // Flush support: emits (key, type, serialized value) in key order. The
  // views point into the memtable, which must not change during the walk; a
  // sealed memtable is immutable, so the flusher needs no lock.
  struct FlushRecord {
    std::string_view key;
    RecType type;
    std::string_view value;
  };
  template <typename Fn>
  void ForEachFlushRecord(Fn&& fn) const {
    std::vector<const Table::value_type*> sorted;
    sorted.reserve(table_.size());
    for (const auto& kv : table_) {
      sorted.push_back(&kv);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const Table::value_type* a, const Table::value_type* b) {
                return a->first < b->first;
              });
    for (const Table::value_type* kv : sorted) {
      fn(FlushRecord{kv->first, kv->second.type, kv->second.data});
    }
  }

 private:
  // `data` is the key's flush record: a full value (kValue), nothing
  // (kTombstone), or the encoded operand stack (kMergeStack). A new key
  // starts as an empty stack.
  struct Entry {
    RecType type = RecType::kMergeStack;
    std::string data;
  };
  using Table = std::unordered_map<std::string, Entry, StringKeyHash, std::equal_to<>>;

  // The key's entry, created (and charged for) on first touch.
  Entry& Slot(std::string_view key);
  // Put and Delete: the key's record becomes `data` of `type`.
  void Replace(std::string_view key, RecType type, std::string_view data);

  Table table_;
  uint64_t bytes_ = 0;
};

}  // namespace gadget

#endif  // GADGET_STORES_LSM_MEMTABLE_H_
