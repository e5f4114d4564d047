#include "src/stores/batch_coalescer.h"

#include <algorithm>
#include <utility>

#include "src/common/hash.h"

namespace gadget {

void BatchCoalescer::KeyFilter::Clear() { std::fill(std::begin(bits), std::end(bits), 0); }

BatchCoalescer::BatchCoalescer(size_t batch_size, FlushWrites flush_writes, FlushGets flush_gets)
    : cap_(std::clamp<size_t>(batch_size, 1, kMaxPending)),
      flush_writes_(std::move(flush_writes)),
      flush_gets_(std::move(flush_gets)) {}

bool BatchCoalescer::WritePending(std::string_view key, uint64_t h) const {
  if (!write_filter_.MayContain(h)) {
    return false;
  }
  for (size_t i = 0; i < batch_.size(); ++i) {
    if (batch_.entry(i).key == key) {
      return true;
    }
  }
  return false;
}

bool BatchCoalescer::GetPending(std::string_view key, uint64_t h) const {
  if (!get_filter_.MayContain(h)) {
    return false;
  }
  return std::find(get_keys_.begin(), get_keys_.begin() + static_cast<ptrdiff_t>(n_gets_),
                   key) != get_keys_.begin() + static_cast<ptrdiff_t>(n_gets_);
}

Status BatchCoalescer::FlushWritesNow() {
  if (batch_.empty()) {
    return Status::Ok();
  }
  Status s = flush_writes_(batch_);
  batch_.Clear();
  write_filter_.Clear();
  return s;
}

Status BatchCoalescer::FlushGetsNow() {
  if (n_gets_ == 0) {
    return Status::Ok();
  }
  get_keys_.resize(n_gets_);  // shrink-only; kept slots keep their buffers
  Status s = flush_gets_(get_keys_);
  n_gets_ = 0;
  get_filter_.Clear();
  return s;
}

Status BatchCoalescer::AddGet(std::string_view key) {
  const uint64_t h = Hash64(key);
  if (WritePending(key, h)) {
    GADGET_RETURN_IF_ERROR(FlushWritesNow());  // read-your-writes
  }
  if (n_gets_ == get_keys_.size()) {
    get_keys_.emplace_back();
  }
  get_keys_[n_gets_++].assign(key.data(), key.size());
  get_filter_.Add(h);
  return n_gets_ >= cap_ ? FlushGetsNow() : Status::Ok();
}

Status BatchCoalescer::AddWrite(WriteBatch::Op op, std::string_view key, std::string_view value) {
  const uint64_t h = Hash64(key);
  if (GetPending(key, h)) {
    GADGET_RETURN_IF_ERROR(FlushGetsNow());  // a pending get precedes this write
  }
  batch_.Append(op, key, value);
  write_filter_.Add(h);
  return batch_.size() >= cap_ ? FlushWritesNow() : Status::Ok();
}

Status BatchCoalescer::BeforeMultiGet(const std::vector<std::string>& keys) {
  for (const std::string& k : keys) {
    if (WritePending(k, Hash64(k))) {
      return FlushWritesNow();
    }
  }
  return Status::Ok();
}

Status BatchCoalescer::BeforeWrite(const WriteBatch& batch) {
  bool flush_writes = false;
  bool flush_gets = false;
  for (size_t i = 0; i < batch.size() && !(flush_writes && flush_gets); ++i) {
    const std::string& k = batch.entry(i).key;
    const uint64_t h = Hash64(k);
    flush_writes = flush_writes || WritePending(k, h);
    flush_gets = flush_gets || GetPending(k, h);
  }
  if (flush_writes) {
    GADGET_RETURN_IF_ERROR(FlushWritesNow());  // earlier writes apply first
  }
  if (flush_gets) {
    GADGET_RETURN_IF_ERROR(FlushGetsNow());  // earlier gets see the pre-batch value
  }
  return Status::Ok();
}

Status BatchCoalescer::Flush() {
  GADGET_RETURN_IF_ERROR(FlushWritesNow());
  return FlushGetsNow();
}

}  // namespace gadget
