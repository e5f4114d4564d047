// A forwarding KVStore decorator that counts and times every call into the
// store it wraps, and optionally records one span per call. This is how the
// traced run measures the store layer from outside: the engine itself is not
// modified, and supports_merge / stats / name are forwarded unchanged, so a
// replay through the decorator drives the engine exactly as one without it.
//
// Use from one thread (the evaluator replays on one): tallies and spans are
// plain fields.
#ifndef PERFBENCH_COUNTING_STORE_H_
#define PERFBENCH_COUNTING_STORE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "src/stores/kvstore.h"

namespace perfbench {

enum class StoreOp { kGet, kPut, kMerge, kRmw, kDelete, kWrite, kMultiGet, kCheckpoint };
inline constexpr size_t kStoreOpCount = 8;
// Lower-case names used in metric and span names (store.<op>).
const char* StoreOpName(StoreOp op);

struct OpTally {
  uint64_t calls = 0;
  uint64_t ops = 0;      // logical operations carried (batch size for Write/MultiGet)
  int64_t busy_ns = 0;   // wall time inside the wrapped call
};

class CountingStore : public gadget::KVStore {
 public:
  // `inner` must outlive this object. `spans` may be null (counts only);
  // when set, every call is recorded as a span named store.<op> under
  // `parent` (see set_parent).
  CountingStore(gadget::KVStore* inner, SpanLog* spans);

  void set_parent(uint32_t parent) { parent_ = parent; }
  const OpTally& tally(StoreOp op) const { return tallies_[static_cast<size_t>(op)]; }
  // Sum of busy time over every op kind.
  int64_t busy_ns() const;
  uint64_t calls() const;

  using gadget::KVStore::Get;
  using gadget::KVStore::MultiGet;

  gadget::Status Put(std::string_view key, std::string_view value) override;
  gadget::Status Get(std::string_view key, std::string* value,
                     const gadget::ReadOptions& options) override;
  gadget::Status Merge(std::string_view key, std::string_view operand) override;
  gadget::Status Delete(std::string_view key) override;
  gadget::Status ReadModifyWrite(std::string_view key, std::string_view operand) override;
  gadget::Status Write(const gadget::WriteBatch& batch) override;
  gadget::Status MultiGet(const std::vector<std::string>& keys, std::vector<std::string>* values,
                          std::vector<gadget::Status>* statuses,
                          const gadget::ReadOptions& options) override;
  gadget::StatusOr<gadget::CheckpointInfo> Checkpoint(
      const std::string& dir, const gadget::CheckpointOptions& options) override;
  bool supports_merge() const override { return inner_->supports_merge(); }
  gadget::Status Flush() override { return inner_->Flush(); }
  gadget::Status Close() override { return inner_->Close(); }
  gadget::StoreStats stats() const override { return inner_->stats(); }
  std::string name() const override { return inner_->name(); }

 private:
  // Times `call`, tallies it under `op` with `ops` logical operations, and
  // records its span when tracing.
  template <typename F>
  auto Timed(StoreOp op, uint64_t ops, F&& call);

  gadget::KVStore* const inner_;
  SpanLog* const spans_;
  uint32_t parent_ = kNoParent;
  std::array<uint32_t, kStoreOpCount> span_names_{};
  std::array<OpTally, kStoreOpCount> tallies_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_STORE_H_
