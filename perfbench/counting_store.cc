#include "counting_store.h"

#include <utility>

namespace perfbench {

const char* StoreOpName(StoreOp op) {
  switch (op) {
    case StoreOp::kGet:
      return "get";
    case StoreOp::kPut:
      return "put";
    case StoreOp::kMerge:
      return "merge";
    case StoreOp::kRmw:
      return "rmw";
    case StoreOp::kDelete:
      return "delete";
    case StoreOp::kWrite:
      return "write";
    case StoreOp::kMultiGet:
      return "multiget";
    case StoreOp::kCheckpoint:
      return "checkpoint";
  }
  return "?";
}

CountingStore::CountingStore(gadget::KVStore* inner, SpanLog* spans)
    : inner_(inner), spans_(spans) {
  if (spans_ != nullptr) {
    for (size_t i = 0; i < kStoreOpCount; ++i) {
      span_names_[i] =
          spans_->NameId(std::string("store.") + StoreOpName(static_cast<StoreOp>(i)));
    }
  }
}

int64_t CountingStore::busy_ns() const {
  int64_t total = 0;
  for (const OpTally& t : tallies_) {
    total += t.busy_ns;
  }
  return total;
}

uint64_t CountingStore::calls() const {
  uint64_t total = 0;
  for (const OpTally& t : tallies_) {
    total += t.calls;
  }
  return total;
}

template <typename F>
auto CountingStore::Timed(StoreOp op, uint64_t ops, F&& call) {
  const int64_t t0 = NowNs();
  auto result = std::forward<F>(call)();
  const int64_t t1 = NowNs();
  OpTally& t = tallies_[static_cast<size_t>(op)];
  ++t.calls;
  t.ops += ops;
  t.busy_ns += t1 - t0;
  if (spans_ != nullptr) {
    spans_->Add(span_names_[static_cast<size_t>(op)], parent_, t0, t1);
  }
  return result;
}

gadget::Status CountingStore::Put(std::string_view key, std::string_view value) {
  return Timed(StoreOp::kPut, 1, [&] { return inner_->Put(key, value); });
}

gadget::Status CountingStore::Get(std::string_view key, std::string* value,
                                  const gadget::ReadOptions& options) {
  return Timed(StoreOp::kGet, 1, [&] { return inner_->Get(key, value, options); });
}

gadget::Status CountingStore::Merge(std::string_view key, std::string_view operand) {
  return Timed(StoreOp::kMerge, 1, [&] { return inner_->Merge(key, operand); });
}

gadget::Status CountingStore::Delete(std::string_view key) {
  return Timed(StoreOp::kDelete, 1, [&] { return inner_->Delete(key); });
}

gadget::Status CountingStore::ReadModifyWrite(std::string_view key, std::string_view operand) {
  return Timed(StoreOp::kRmw, 1, [&] { return inner_->ReadModifyWrite(key, operand); });
}

gadget::Status CountingStore::Write(const gadget::WriteBatch& batch) {
  return Timed(StoreOp::kWrite, batch.size(), [&] { return inner_->Write(batch); });
}

gadget::Status CountingStore::MultiGet(const std::vector<std::string>& keys,
                                       std::vector<std::string>* values,
                                       std::vector<gadget::Status>* statuses,
                                       const gadget::ReadOptions& options) {
  return Timed(StoreOp::kMultiGet, keys.size(),
               [&] { return inner_->MultiGet(keys, values, statuses, options); });
}

gadget::StatusOr<gadget::CheckpointInfo> CountingStore::Checkpoint(
    const std::string& dir, const gadget::CheckpointOptions& options) {
  return Timed(StoreOp::kCheckpoint, 1, [&] { return inner_->Checkpoint(dir, options); });
}

}  // namespace perfbench
