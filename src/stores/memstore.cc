#include "src/stores/memstore.h"

#include "src/common/coding.h"
#include "src/common/file_util.h"
#include "src/common/hash.h"
#include "src/common/mutex.h"

namespace gadget {
namespace {

constexpr std::string_view kSnapshotHeader = "gadget-memsnap 1\n";
constexpr const char* kSnapshotFile = "memstore.snap";

size_t RoundUpPow2(size_t n) {
  if (n < 2) {
    return 1;
  }
  size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// Stable counting sort of batch positions by stripe: equal keys share a
// stripe, so their insertion order survives. O(n + stripes) with no
// comparisons — std::stable_sort's n log n comparator (plus its temporary
// buffer) costs more than the lock amortization it enables at typical batch
// widths, which inverted the batch win.
void GroupByStripe(const std::vector<uint32_t>& stripe_of, size_t num_stripes,
                   std::vector<uint32_t>* counts, std::vector<uint32_t>* idx) {
  const size_t n = stripe_of.size();
  counts->assign(num_stripes + 1, 0);
  for (uint32_t s : stripe_of) {
    ++(*counts)[s + 1];
  }
  for (size_t s = 1; s <= num_stripes; ++s) {
    (*counts)[s] += (*counts)[s - 1];
  }
  idx->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*idx)[(*counts)[stripe_of[i]]++] = static_cast<uint32_t>(i);
  }
}

}  // namespace

MemStore::MemStore(size_t num_stripes)
    : stripes_(RoundUpPow2(num_stripes)), stripe_mask_(stripes_.size() - 1) {}

MemStore::Stripe& MemStore::StripeFor(std::string_view key) {
  return stripes_[StringKeyHash{}(key) & stripe_mask_];
}

Status MemStore::Put(std::string_view key, std::string_view value) {
  Stripe& s = StripeFor(key);
  {
    WriterMutexLock lock(&s.mu);
    // Transparent find + in-place assign: overwriting an existing key (the
    // common case in replay loops) allocates nothing.
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      s.map.emplace(key, value);
    } else {
      it->second.assign(value.data(), value.size());
    }
  }
  s.puts.fetch_add(1, std::memory_order_relaxed);
  s.bytes_written.fetch_add(key.size() + value.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status MemStore::Get(std::string_view key, std::string* value, const ReadOptions& /*options*/) {
  Stripe& s = StripeFor(key);
  s.gets.fetch_add(1, std::memory_order_relaxed);
  size_t read = 0;
  {
    ReaderMutexLock lock(&s.mu);
    // Const view of the map: under the shared lock only const access is
    // allowed (the analysis treats non-const member calls as writes).
    const auto& map = s.map;
    auto it = map.find(key);
    if (it == map.end()) {
      return Status::NotFound();
    }
    *value = it->second;
    read = value->size();
  }
  s.bytes_read.fetch_add(read, std::memory_order_relaxed);
  return Status::Ok();
}

Status MemStore::Merge(std::string_view key, std::string_view operand) {
  Stripe& s = StripeFor(key);
  {
    WriterMutexLock lock(&s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      s.map.emplace(key, operand);
    } else {
      it->second.append(operand.data(), operand.size());
    }
  }
  s.merges.fetch_add(1, std::memory_order_relaxed);
  s.bytes_written.fetch_add(key.size() + operand.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status MemStore::Delete(std::string_view key) {
  Stripe& s = StripeFor(key);
  {
    WriterMutexLock lock(&s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      s.map.erase(it);
    }
  }
  s.deletes.fetch_add(1, std::memory_order_relaxed);
  // Accounting contract (kvstore.h): a delete accepts its key bytes.
  s.bytes_written.fetch_add(key.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status MemStore::ReadModifyWrite(std::string_view key, std::string_view operand) {
  Stripe& s = StripeFor(key);
  {
    WriterMutexLock lock(&s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      s.map.emplace(key, operand);
    } else {
      it->second.append(operand.data(), operand.size());
    }
  }
  s.rmws.fetch_add(1, std::memory_order_relaxed);
  s.bytes_written.fetch_add(key.size() + operand.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status MemStore::Write(const WriteBatch& batch) {
  const size_t n = batch.size();
  if (n == 0) {
    NoteBatch(0);  // a batch call is a batch call, even when empty
    return Status::Ok();
  }
  // Single-stripe store: the whole batch commits under one lock acquisition
  // with no grouping work at all — the configuration where batching pays the
  // most, since every op otherwise takes the global lock.
  if (stripes_.size() == 1) {
    Stripe& s = stripes_[0];
    uint64_t puts = 0, merges = 0, deletes = 0, bytes = 0;
    {
      WriterMutexLock lock(&s.mu);
      for (size_t i = 0; i < n; ++i) {
        const WriteBatch::Entry& e = batch.entry(i);
        switch (e.op) {
          case WriteBatch::Op::kPut: {
            auto it = s.map.find(e.key);
            if (it == s.map.end()) {
              s.map.emplace(e.key, e.value);
            } else {
              it->second.assign(e.value);
            }
            ++puts;
            bytes += e.key.size() + e.value.size();
            break;
          }
          case WriteBatch::Op::kMerge: {
            auto it = s.map.find(e.key);
            if (it == s.map.end()) {
              s.map.emplace(e.key, e.value);
            } else {
              it->second.append(e.value);
            }
            ++merges;
            bytes += e.key.size() + e.value.size();
            break;
          }
          case WriteBatch::Op::kDelete: {
            auto it = s.map.find(e.key);
            if (it != s.map.end()) {
              s.map.erase(it);
            }
            ++deletes;
            bytes += e.key.size();
            break;
          }
        }
      }
    }
    if (puts != 0) {
      s.puts.fetch_add(puts, std::memory_order_relaxed);
    }
    if (merges != 0) {
      s.merges.fetch_add(merges, std::memory_order_relaxed);
    }
    if (deletes != 0) {
      s.deletes.fetch_add(deletes, std::memory_order_relaxed);
    }
    s.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
    NoteBatch(n);
    return Status::Ok();
  }
  // Stable order-by-stripe: same-key entries stay in insertion order (equal
  // keys share a stripe), cross-stripe reordering is unobservable. Each
  // stripe is then locked once per batch.
  std::vector<uint32_t> stripe_of(n);
  for (size_t i = 0; i < n; ++i) {
    stripe_of[i] = static_cast<uint32_t>(StringKeyHash{}(batch.entry(i).key) & stripe_mask_);
  }
  std::vector<uint32_t> counts;
  std::vector<uint32_t> idx;
  GroupByStripe(stripe_of, stripes_.size(), &counts, &idx);
  size_t run = 0;
  while (run < n) {
    const uint32_t stripe = stripe_of[idx[run]];
    size_t end = run;
    while (end < n && stripe_of[idx[end]] == stripe) {
      ++end;
    }
    Stripe& s = stripes_[stripe];
    uint64_t puts = 0, merges = 0, deletes = 0, bytes = 0;
    {
      WriterMutexLock lock(&s.mu);
      for (size_t i = run; i < end; ++i) {
        const WriteBatch::Entry& e = batch.entry(idx[i]);
        switch (e.op) {
          case WriteBatch::Op::kPut: {
            auto it = s.map.find(e.key);
            if (it == s.map.end()) {
              s.map.emplace(e.key, e.value);
            } else {
              it->second.assign(e.value);
            }
            ++puts;
            bytes += e.key.size() + e.value.size();
            break;
          }
          case WriteBatch::Op::kMerge: {
            auto it = s.map.find(e.key);
            if (it == s.map.end()) {
              s.map.emplace(e.key, e.value);
            } else {
              it->second.append(e.value);
            }
            ++merges;
            bytes += e.key.size() + e.value.size();
            break;
          }
          case WriteBatch::Op::kDelete: {
            auto it = s.map.find(e.key);
            if (it != s.map.end()) {
              s.map.erase(it);
            }
            ++deletes;
            bytes += e.key.size();
            break;
          }
        }
      }
    }
    // One relaxed update per (stripe, batch) instead of two per operation.
    if (puts != 0) {
      s.puts.fetch_add(puts, std::memory_order_relaxed);
    }
    if (merges != 0) {
      s.merges.fetch_add(merges, std::memory_order_relaxed);
    }
    if (deletes != 0) {
      s.deletes.fetch_add(deletes, std::memory_order_relaxed);
    }
    s.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
    run = end;
  }
  NoteBatch(n);
  return Status::Ok();
}

Status MemStore::MultiGet(const std::vector<std::string>& keys,
                          std::vector<std::string>* values, std::vector<Status>* statuses,
                          const ReadOptions& /*options*/) {
  const size_t n = keys.size();
  values->resize(n);
  statuses->assign(n, Status::Ok());
  if (n == 0) {
    NoteBatch(0);
    return Status::Ok();
  }
  // Single-stripe fast path: one shared-lock acquisition for the whole
  // vector lookup (see Write).
  if (stripes_.size() == 1) {
    Stripe& s = stripes_[0];
    uint64_t read = 0;
    {
      ReaderMutexLock lock(&s.mu);
      const auto& map = s.map;
      for (size_t i = 0; i < n; ++i) {
        auto it = map.find(std::string_view(keys[i]));
        if (it == map.end()) {
          (*statuses)[i] = Status::NotFound();
        } else {
          (*values)[i] = it->second;
          read += it->second.size();
        }
      }
    }
    s.gets.fetch_add(n, std::memory_order_relaxed);
    if (read != 0) {
      s.bytes_read.fetch_add(read, std::memory_order_relaxed);
    }
    NoteBatch(n);
    return Status::Ok();
  }
  std::vector<uint32_t> stripe_of(n);
  for (size_t i = 0; i < n; ++i) {
    stripe_of[i] = static_cast<uint32_t>(StringKeyHash{}(keys[i]) & stripe_mask_);
  }
  std::vector<uint32_t> counts;
  std::vector<uint32_t> idx;
  GroupByStripe(stripe_of, stripes_.size(), &counts, &idx);
  size_t run = 0;
  while (run < n) {
    const uint32_t stripe = stripe_of[idx[run]];
    size_t end = run;
    while (end < n && stripe_of[idx[end]] == stripe) {
      ++end;
    }
    Stripe& s = stripes_[stripe];
    uint64_t read = 0;
    {
      ReaderMutexLock lock(&s.mu);
      const auto& map = s.map;
      for (size_t i = run; i < end; ++i) {
        const uint32_t k = idx[i];
        auto it = map.find(std::string_view(keys[k]));
        if (it == map.end()) {
          (*statuses)[k] = Status::NotFound();
        } else {
          (*values)[k] = it->second;
          read += it->second.size();
        }
      }
    }
    s.gets.fetch_add(end - run, std::memory_order_relaxed);
    if (read != 0) {
      s.bytes_read.fetch_add(read, std::memory_order_relaxed);
    }
    run = end;
  }
  NoteBatch(n);
  return Status::Ok();
}

StatusOr<CheckpointInfo> MemStore::Checkpoint(const std::string& dir,
                                              const CheckpointOptions& options) {
  (void)options;  // no immutable files to reuse incrementally
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  auto names = ListDir(dir);
  if (!names.ok()) {
    return names.status();
  }
  if (!names->empty()) {
    return Status::InvalidArgument("checkpoint dir not empty: " + dir);
  }
  auto file = WritableFile::Create(dir + "/" + kSnapshotFile);
  if (!file.ok()) {
    return file.status();
  }
  GADGET_RETURN_IF_ERROR((*file)->Append(kSnapshotHeader));
  std::string lengths;
  for (const Stripe& s : stripes_) {
    ReaderMutexLock lock(&s.mu);
    const auto& map = s.map;
    for (const auto& [key, value] : map) {
      lengths.clear();
      PutFixed32(&lengths, static_cast<uint32_t>(key.size()));
      PutFixed32(&lengths, static_cast<uint32_t>(value.size()));
      GADGET_RETURN_IF_ERROR((*file)->Append(lengths));
      GADGET_RETURN_IF_ERROR((*file)->Append(key));
      GADGET_RETURN_IF_ERROR((*file)->Append(value));
    }
  }
  CheckpointInfo info;
  info.bytes = (*file)->size();
  info.files = 1;
  GADGET_RETURN_IF_ERROR((*file)->Sync());
  GADGET_RETURN_IF_ERROR((*file)->Close());
  GADGET_RETURN_IF_ERROR(SyncDir(dir));
  return info;
}

Status MemStore::LoadCheckpoint(const std::string& dir) {
  std::string data;
  GADGET_RETURN_IF_ERROR(ReadFileToString(dir + "/" + kSnapshotFile, &data));
  if (data.size() < kSnapshotHeader.size() ||
      std::string_view(data).substr(0, kSnapshotHeader.size()) != kSnapshotHeader) {
    return Status::Corruption("bad memstore snapshot header in " + dir);
  }
  size_t pos = kSnapshotHeader.size();
  while (pos < data.size()) {
    if (pos + 8 > data.size()) {
      return Status::Corruption("truncated memstore snapshot record");
    }
    const uint32_t klen = DecodeFixed32(data.data() + pos);
    const uint32_t vlen = DecodeFixed32(data.data() + pos + 4);
    pos += 8;
    if (pos + static_cast<size_t>(klen) + vlen > data.size()) {
      return Status::Corruption("truncated memstore snapshot record");
    }
    std::string_view key(data.data() + pos, klen);
    std::string_view value(data.data() + pos + klen, vlen);
    pos += static_cast<size_t>(klen) + vlen;
    Stripe& s = StripeFor(key);
    WriterMutexLock lock(&s.mu);
    s.map.emplace(key, value);  // direct load: operation counters stay zero
  }
  return Status::Ok();
}

StoreStats MemStore::stats() const {
  StoreStats out;
  for (const Stripe& s : stripes_) {
    out.gets += s.gets.load(std::memory_order_relaxed);
    out.puts += s.puts.load(std::memory_order_relaxed);
    out.merges += s.merges.load(std::memory_order_relaxed);
    out.deletes += s.deletes.load(std::memory_order_relaxed);
    out.rmws += s.rmws.load(std::memory_order_relaxed);
    out.bytes_written += s.bytes_written.load(std::memory_order_relaxed);
    out.bytes_read += s.bytes_read.load(std::memory_order_relaxed);
  }
  FoldBatchStats(&out);
  return out;
}

}  // namespace gadget
