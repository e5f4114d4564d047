#include "src/stores/lsm/memtable.h"

namespace gadget {

MemTable::Entry& MemTable::Slot(std::string_view key) {
  auto it = table_.find(key);
  if (it == table_.end()) {
    it = table_.emplace(std::string(key), Entry{}).first;
    bytes_ += key.size() + 32;
  }
  return it->second;
}

void MemTable::Replace(std::string_view key, RecType type, std::string_view data) {
  Entry& e = Slot(key);
  bytes_ = bytes_ - e.data.size() + data.size();
  e.type = type;
  // A fresh buffer, so a superseded merged value's capacity is freed rather
  // than kept behind a small value or a tombstone.
  e.data = std::string(data);
}

void MemTable::Put(std::string_view key, std::string_view value) {
  Replace(key, RecType::kValue, value);
}

void MemTable::Delete(std::string_view key) { Replace(key, RecType::kTombstone, {}); }

void MemTable::Merge(std::string_view key, std::string_view operand) {
  Entry& e = Slot(key);
  const size_t before = e.data.size();
  if (e.type == RecType::kMergeStack) {
    PutLengthPrefixed(&e.data, operand);
  } else {
    // Onto a base (a deleted key's base is empty): the result is a full value.
    e.type = RecType::kValue;
    e.data.append(operand);
  }
  bytes_ += e.data.size() - before;
}

LookupState MemTable::Get(std::string_view key, std::string* value,
                          std::vector<std::string>* operands) const {
  auto it = table_.find(key);
  if (it == table_.end()) {
    return LookupState::kNotFound;
  }
  const Entry& e = it->second;
  switch (e.type) {
    case RecType::kValue:
      *value = e.data;
      return LookupState::kFound;
    case RecType::kTombstone:
      return LookupState::kDeleted;
    case RecType::kMergeStack:
      break;
  }
  // result intentionally ignored: Merge built this stack with
  // PutLengthPrefixed, so it always decodes.
  (void)DecodeMergeStack(e.data, operands);
  return LookupState::kMergePartial;
}

}  // namespace gadget
