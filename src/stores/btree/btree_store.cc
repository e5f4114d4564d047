#include "src/stores/btree/btree_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/coding.h"
#include "src/common/file_util.h"

namespace gadget {
namespace {

constexpr uint32_t kMetaMagic = 0x42545245;  // "BTRE"
constexpr uint8_t kLeafType = 1;
constexpr uint8_t kInternalType = 2;

std::string TreePath(const std::string& dir) { return dir + "/btree.db"; }

}  // namespace

size_t BTreeStore::Node::SerializedSize() const {
  size_t size = 1 + 2 + 4;  // type + nkeys + next_leaf
  if (leaf) {
    for (size_t i = 0; i < keys.size(); ++i) {
      size += 2 + keys[i].size() + 1;
      if (values[i].overflow_head == 0) {
        size += 4 + values[i].inline_data.size();
      } else {
        size += 8;
      }
    }
  } else {
    size += 4;  // child0
    for (const std::string& k : keys) {
      size += 2 + k.size() + 4;
    }
  }
  return size;
}

std::string BTreeStore::SerializePage(const Page& page) const {
  std::string out;
  out.reserve(opts_.page_size);
  if (page.chain) {
    const auto& chain = static_cast<const ChainPage&>(page);
    PutFixed32(&out, chain.next);
    PutFixed32(&out, static_cast<uint32_t>(chain.chunk.size()));
    out += chain.chunk;
    out.resize(opts_.page_size, '\0');
    return out;
  }
  const auto& node = static_cast<const Node&>(page);
  out.push_back(static_cast<char>(node.leaf ? kLeafType : kInternalType));
  uint16_t nkeys = static_cast<uint16_t>(node.keys.size());
  out.push_back(static_cast<char>(nkeys & 0xff));
  out.push_back(static_cast<char>(nkeys >> 8));
  PutFixed32(&out, node.next_leaf);
  if (node.leaf) {
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint16_t klen = static_cast<uint16_t>(node.keys[i].size());
      out.push_back(static_cast<char>(klen & 0xff));
      out.push_back(static_cast<char>(klen >> 8));
      out += node.keys[i];
      const ValueRef& v = node.values[i];
      if (v.overflow_head == 0) {
        out.push_back(0);
        PutFixed32(&out, static_cast<uint32_t>(v.inline_data.size()));
        out += v.inline_data;
      } else {
        out.push_back(1);
        PutFixed32(&out, v.overflow_head);
        PutFixed32(&out, v.total_len);
      }
    }
  } else {
    PutFixed32(&out, node.children[0]);
    for (size_t i = 0; i < node.keys.size(); ++i) {
      uint16_t klen = static_cast<uint16_t>(node.keys[i].size());
      out.push_back(static_cast<char>(klen & 0xff));
      out.push_back(static_cast<char>(klen >> 8));
      out += node.keys[i];
      PutFixed32(&out, node.children[i + 1]);
    }
  }
  out.resize(opts_.page_size, '\0');
  return out;
}

StatusOr<BTreeStore::Node> BTreeStore::DeserializeNode(std::string_view data) const {
  if (data.size() < 7) {
    return Status::Corruption("btree page too small");
  }
  Node node;
  const char* p = data.data();
  const char* end = p + data.size();
  uint8_t type = static_cast<uint8_t>(*p++);
  if (type != kLeafType && type != kInternalType) {
    return Status::Corruption("bad btree page type");
  }
  node.leaf = type == kLeafType;
  uint16_t nkeys = static_cast<uint8_t>(p[0]) | (static_cast<uint8_t>(p[1]) << 8);
  p += 2;
  node.next_leaf = DecodeFixed32(p);
  p += 4;
  auto need = [&](size_t n) { return static_cast<size_t>(end - p) >= n; };
  if (node.leaf) {
    node.keys.reserve(nkeys);
    node.values.reserve(nkeys);
    for (uint16_t i = 0; i < nkeys; ++i) {
      if (!need(2)) {
        return Status::Corruption("truncated leaf entry");
      }
      uint16_t klen = static_cast<uint8_t>(p[0]) | (static_cast<uint8_t>(p[1]) << 8);
      p += 2;
      if (!need(klen + 1)) {
        return Status::Corruption("truncated leaf key");
      }
      node.keys.emplace_back(p, klen);
      p += klen;
      uint8_t flag = static_cast<uint8_t>(*p++);
      ValueRef v;
      if (flag == 0) {
        if (!need(4)) {
          return Status::Corruption("truncated leaf value len");
        }
        uint32_t vlen = DecodeFixed32(p);
        p += 4;
        if (!need(vlen)) {
          return Status::Corruption("truncated leaf value");
        }
        v.inline_data.assign(p, vlen);
        p += vlen;
      } else {
        if (!need(8)) {
          return Status::Corruption("truncated overflow ref");
        }
        v.overflow_head = DecodeFixed32(p);
        v.total_len = DecodeFixed32(p + 4);
        p += 8;
      }
      node.values.push_back(std::move(v));
    }
  } else {
    if (!need(4)) {
      return Status::Corruption("truncated internal node");
    }
    node.children.push_back(DecodeFixed32(p));
    p += 4;
    node.keys.reserve(nkeys);
    for (uint16_t i = 0; i < nkeys; ++i) {
      if (!need(2)) {
        return Status::Corruption("truncated internal entry");
      }
      uint16_t klen = static_cast<uint8_t>(p[0]) | (static_cast<uint8_t>(p[1]) << 8);
      p += 2;
      if (!need(klen + 4)) {
        return Status::Corruption("truncated internal key");
      }
      node.keys.emplace_back(p, klen);
      p += klen;
      node.children.push_back(DecodeFixed32(p));
      p += 4;
    }
  }
  return node;
}

// -------------------------------------------------------------------- admin

BTreeStore::BTreeStore(std::string dir, const BTreeOptions& opts,
                       std::shared_ptr<BufferPool> pool)
    : dir_(std::move(dir)),
      opts_(opts),
      pool_(pool != nullptr ? std::move(pool) : std::make_shared<BufferPool>()) {
  pool_file_id_ = pool_->NewFileId();
}

// status intentionally ignored: destructors cannot propagate errors; callers
// that care about durability call Close() explicitly and check.
BTreeStore::~BTreeStore() { (void)Close(); }

StatusOr<std::unique_ptr<KVStore>> BTreeStore::Open(const std::string& dir,
                                                    const BTreeOptions& opts,
                                                    std::shared_ptr<BufferPool> pool) {
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<BTreeStore> store(new BTreeStore(dir, opts, std::move(pool)));
  GADGET_RETURN_IF_ERROR(store->Recover());
  return std::unique_ptr<KVStore>(std::move(store));
}

Status BTreeStore::Recover() {
  MutexLock lock(&mu_);
  const std::string path = TreePath(dir_);
  bool fresh = !FileExists(path);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  if (fresh) {
    root_ = 1;
    next_page_ = 2;
    free_head_ = 0;
    height_ = 1;
    Node empty_root;
    empty_root.leaf = true;
    GADGET_RETURN_IF_ERROR(WritePageRaw(root_, SerializePage(empty_root)));
    return PersistMeta();
  }
  std::string meta(opts_.page_size, '\0');
  GADGET_RETURN_IF_ERROR(PreadFully(fd_, meta.data(), meta.size(), 0));
  if (DecodeFixed32(meta.data()) != kMetaMagic) {
    return Status::Corruption("bad btree meta page");
  }
  root_ = DecodeFixed32(meta.data() + 4);
  next_page_ = DecodeFixed32(meta.data() + 8);
  free_head_ = DecodeFixed32(meta.data() + 12);
  height_ = DecodeFixed32(meta.data() + 16);
  return Status::Ok();
}

Status BTreeStore::PersistMeta() {
  std::string meta;
  PutFixed32(&meta, kMetaMagic);
  PutFixed32(&meta, root_);
  PutFixed32(&meta, next_page_);
  PutFixed32(&meta, free_head_);
  PutFixed32(&meta, height_);
  meta.resize(opts_.page_size, '\0');
  return PwriteFully(fd_, meta.data(), meta.size(), 0);
}

// --------------------------------------------------------------- page cache

Status BTreeStore::ReadPageRaw(uint32_t page_id, std::string* out) {
  out->resize(opts_.page_size);
  stats_.io_bytes_read += opts_.page_size;
  return PreadFully(fd_, out->data(), out->size(),
                  static_cast<uint64_t>(page_id) * opts_.page_size);
}

Status BTreeStore::WritePageRaw(uint32_t page_id, std::string_view data) {
  stats_.io_bytes_written += opts_.page_size;
  return PwriteFully(fd_, data.data(), data.size(),
                   static_cast<uint64_t>(page_id) * opts_.page_size);
}

StatusOr<std::shared_ptr<BTreeStore::Page>> BTreeStore::FetchPage(uint32_t page_id, bool chain,
                                                                  bool fill_cache) {
  if (page_id == 0 || page_id >= next_page_) {
    return Status::Corruption("btree page id " + std::to_string(page_id) + " out of range");
  }
  std::shared_ptr<Page> page;
  // Dirty table first: a dirty page is the page's only truth — the pool may
  // have evicted its frame, and the on-disk bytes are stale.
  if (auto dit = dirty_.find(page_id); dit != dirty_.end()) {
    page = dit->second;
  } else if (PinnedBlock cached = pool_->Lookup(pool_file_id_, page_id);
             cached && cached.object() != nullptr) {
    page = std::static_pointer_cast<Page>(cached.object());
  } else {
    std::string raw;
    GADGET_RETURN_IF_ERROR(ReadPageRaw(page_id, &raw));
    if (chain) {
      auto chain_page = std::make_shared<ChainPage>();
      chain_page->next = DecodeFixed32(raw.data());
      const uint32_t len = DecodeFixed32(raw.data() + 4);
      if (len > opts_.page_size - 8) {
        return Status::Corruption("bad overflow chunk length in page " + std::to_string(page_id));
      }
      chain_page->chunk.assign(raw.data() + 8, len);
      page = std::move(chain_page);
    } else {
      auto node = DeserializeNode(raw);
      if (!node.ok()) {
        return node.status();
      }
      page = std::make_shared<Node>(std::move(*node));
    }
    if (fill_cache) {
      pool_->Insert(pool_file_id_, page_id, nullptr, page, opts_.page_size);
    }
    return page;
  }
  if (page->chain != chain) {
    return Status::Corruption("btree page " + std::to_string(page_id) + " is not a " +
                              (chain ? "chain page" : "tree node"));
  }
  return page;
}

StatusOr<std::shared_ptr<BTreeStore::Node>> BTreeStore::FetchNode(uint32_t page_id,
                                                                  bool fill_cache) {
  auto page = FetchPage(page_id, /*chain=*/false, fill_cache);
  if (!page.ok()) {
    return page.status();
  }
  return std::static_pointer_cast<Node>(std::move(page).value());
}

StatusOr<std::shared_ptr<BTreeStore::ChainPage>> BTreeStore::FetchChainPage(uint32_t page_id,
                                                                            bool fill_cache) {
  auto page = FetchPage(page_id, /*chain=*/true, fill_cache);
  if (!page.ok()) {
    return page.status();
  }
  return std::static_pointer_cast<ChainPage>(std::move(page).value());
}

void BTreeStore::MarkDirty(uint32_t page_id, std::shared_ptr<Page> page) {
  dirty_[page_id] = std::move(page);
}

void BTreeStore::InstallPage(uint32_t page_id, std::shared_ptr<Page> page) {
  // A reused id may still have a frame holding its old object, which Insert
  // would keep.
  pool_->Erase(pool_file_id_, page_id);
  pool_->Insert(pool_file_id_, page_id, nullptr, page, opts_.page_size);
  dirty_[page_id] = std::move(page);
}

Status BTreeStore::WriteBackDirtyLocked() {
  for (auto& [page_id, page] : dirty_) {
    GADGET_RETURN_IF_ERROR(WritePageRaw(page_id, SerializePage(*page)));
    ++stats_.flushes;
  }
  dirty_.clear();
  return Status::Ok();
}

Status BTreeStore::MaybeWriteBackLocked() {
  if (dirty_.size() < kMaxDirtyPages) {
    return Status::Ok();
  }
  return WriteBackDirtyLocked();
}

StatusOr<uint32_t> BTreeStore::AllocPage(std::shared_ptr<ChainPage>* link) {
  if (free_head_ == 0) {
    return next_page_++;
  }
  const uint32_t page_id = free_head_;
  auto head = FetchChainPage(page_id, /*fill_cache=*/true);
  if (!head.ok()) {
    return head.status();
  }
  if (!(*head)->chunk.empty()) {
    return Status::Corruption("free-list page " + std::to_string(page_id) + " holds data");
  }
  free_head_ = (*head)->next;
  if (link != nullptr) {
    *link = std::move(head).value();
  }
  return page_id;
}

void BTreeStore::FreePage(uint32_t page_id, const std::shared_ptr<ChainPage>& page) {
  page->next = free_head_;
  page->chunk.clear();
  MarkDirty(page_id, page);
  free_head_ = page_id;
}

// ---------------------------------------------------------- overflow values

StatusOr<BTreeStore::ValueRef> BTreeStore::StoreValue(std::string_view value) {
  ValueRef ref;
  if (value.size() <= opts_.page_size / 4) {
    ref.inline_data.assign(value.data(), value.size());
    return ref;
  }
  // Chain of overflow pages. Every page is taken first, so each is written
  // once, with its final next pointer. A page popped off the free list is
  // overwritten in place; a new one is installed.
  ref.total_len = static_cast<uint32_t>(value.size());
  const size_t chunk_cap = opts_.page_size - 8;
  std::vector<ChainRef> chain((value.size() + chunk_cap - 1) / chunk_cap);
  for (auto& [page_id, page] : chain) {
    auto id = AllocPage(&page);
    if (!id.ok()) {
      return id.status();
    }
    page_id = *id;
  }
  for (size_t i = 0; i < chain.size(); ++i) {
    auto& [page_id, page] = chain[i];
    const bool fresh = page == nullptr;
    if (fresh) {
      page = std::make_shared<ChainPage>();
    }
    page->next = i + 1 < chain.size() ? chain[i + 1].first : 0;
    page->chunk.assign(value.substr(i * chunk_cap, chunk_cap));
    if (fresh) {
      InstallPage(page_id, page);
    } else {
      MarkDirty(page_id, page);
    }
  }
  ref.overflow_head = chain[0].first;
  return ref;
}

Status BTreeStore::WalkChain(const ValueRef& ref, bool fill_cache, std::string* out,
                             std::vector<ChainRef>* pages) {
  const size_t chunk_cap = opts_.page_size - 8;
  const size_t max_pages = (ref.total_len + chunk_cap - 1) / chunk_cap;
  size_t len = 0;
  size_t walked = 0;
  for (uint32_t page_id = ref.overflow_head; page_id != 0;) {
    if (++walked > max_pages) {
      return Status::Corruption("overflow chain longer than its value");
    }
    auto page = FetchChainPage(page_id, fill_cache);
    if (!page.ok()) {
      return page.status();
    }
    const ChainPage& chain = **page;
    len += chain.chunk.size();
    if (len > ref.total_len) {
      return Status::Corruption("overflow chain longer than its value");
    }
    if (out != nullptr) {
      out->append(chain.chunk);
    }
    const uint32_t next = chain.next;
    if (pages != nullptr) {
      pages->emplace_back(page_id, std::move(page).value());
    }
    page_id = next;
  }
  if (len != ref.total_len) {
    return Status::Corruption("overflow chain length mismatch");
  }
  return Status::Ok();
}

Status BTreeStore::LoadValue(const ValueRef& ref, std::string* out, bool fill_cache) {
  if (ref.overflow_head == 0) {
    *out = ref.inline_data;
    return Status::Ok();
  }
  out->clear();
  out->reserve(ref.total_len);
  return WalkChain(ref, fill_cache, out, nullptr);
}

Status BTreeStore::ReleaseValue(const ValueRef& ref) {
  if (ref.overflow_head == 0) {
    return Status::Ok();
  }
  // Walk the whole chain before freeing any of it: a corrupt chain is
  // reported with the free list untouched.
  std::vector<ChainRef> chain;
  GADGET_RETURN_IF_ERROR(WalkChain(ref, /*fill_cache=*/true, nullptr, &chain));
  for (const auto& [page_id, page] : chain) {
    FreePage(page_id, page);
  }
  return Status::Ok();
}

// ----------------------------------------------------------------- tree ops

StatusOr<BTreeStore::LeafSlot> BTreeStore::FindSlot(std::string_view key, bool fill_cache) {
  LeafSlot slot;
  uint32_t page_id = root_;
  for (;;) {
    auto node = FetchNode(page_id, fill_cache);
    if (!node.ok()) {
      return node.status();
    }
    const auto& keys = (*node)->keys;
    if ((*node)->leaf) {
      auto it = std::lower_bound(keys.begin(), keys.end(), key,
                                 [](const std::string& k, std::string_view q) { return k < q; });
      slot.idx = static_cast<size_t>(it - keys.begin());
      slot.found = it != keys.end() && std::string_view(*it) == key;
      slot.leaf_id = page_id;
      slot.leaf = std::move(node).value();
      return slot;
    }
    // Leaves sit at depth height_ - 1. An internal node there means a bad
    // child pointer, possibly one back up the tree that would loop forever.
    if (slot.path.size() + 1 >= height_) {
      return Status::Corruption("internal page " + std::to_string(page_id) +
                                " at leaf depth of a height-" + std::to_string(height_) +
                                " tree");
    }
    size_t idx = static_cast<size_t>(
        std::upper_bound(keys.begin(), keys.end(), key,
                         [](std::string_view k, const std::string& sep) { return k < sep; }) -
        keys.begin());
    slot.path.push_back(PathEntry{page_id, idx});
    page_id = (*node)->children[idx];
  }
}

Status BTreeStore::StoreAt(LeafSlot slot, std::string_view key, std::string_view value) {
  auto new_ref = StoreValue(value);
  if (!new_ref.ok()) {
    return new_ref.status();
  }
  Node& node = *slot.leaf;
  const auto pos = static_cast<long>(slot.idx);
  if (slot.found) {
    // The old chain goes only once the new one is installed.
    GADGET_RETURN_IF_ERROR(ReleaseValue(node.values[slot.idx]));
    node.values[slot.idx] = std::move(*new_ref);
  } else {
    node.keys.insert(node.keys.begin() + pos, std::string(key));
    node.values.insert(node.values.begin() + pos, std::move(*new_ref));
  }
  MarkDirty(slot.leaf_id, slot.leaf);
  if (node.SerializedSize() > opts_.page_size) {
    return SplitAndInsert(slot.leaf_id, std::move(slot.path));
  }
  return Status::Ok();
}

Status BTreeStore::GetLocked(std::string_view key, std::string* value, bool fill_cache) {
  auto slot = FindSlot(key, fill_cache);
  if (!slot.ok()) {
    return slot.status();
  }
  if (!slot->found) {
    return Status::NotFound();
  }
  return LoadValue(slot->leaf->values[slot->idx], value, fill_cache);
}

Status BTreeStore::PutLocked(std::string_view key, std::string_view value) {
  auto slot = FindSlot(key);
  if (!slot.ok()) {
    return slot.status();
  }
  return StoreAt(std::move(slot).value(), key, value);
}

Status BTreeStore::SplitAndInsert(uint32_t page_id, std::vector<PathEntry> path) {
  for (;;) {
    auto node_or = FetchNode(page_id);
    if (!node_or.ok()) {
      return node_or.status();
    }
    Node& node = **node_or;
    if (node.SerializedSize() <= opts_.page_size) {
      return Status::Ok();
    }
    // Take the page ids this level needs before mutating anything, so a
    // failed allocation leaves the tree as it was.
    auto right_id = AllocPage();
    if (!right_id.ok()) {
      return right_id.status();
    }
    uint32_t new_root_id = 0;
    if (path.empty()) {
      auto id = AllocPage();
      if (!id.ok()) {
        return id.status();
      }
      new_root_id = *id;
    }
    // Split `node` into itself (left) and a new right sibling at the size
    // midpoint; `separator` goes up to the parent.
    auto right = std::make_shared<Node>();
    right->leaf = node.leaf;
    const size_t total = node.SerializedSize();
    size_t acc = 0;
    size_t split_idx = 0;
    std::string separator;
    if (node.leaf) {
      for (size_t i = 0; i < node.keys.size(); ++i) {
        size_t entry = 3 + node.keys[i].size() +
                       (node.values[i].overflow_head == 0
                            ? 4 + node.values[i].inline_data.size()
                            : 8);
        acc += entry;
        if (acc >= total / 2) {
          split_idx = i + 1;
          break;
        }
      }
      split_idx = std::clamp<size_t>(split_idx, 1, node.keys.size() - 1);
      right->keys.assign(node.keys.begin() + static_cast<long>(split_idx), node.keys.end());
      right->values.assign(node.values.begin() + static_cast<long>(split_idx),
                           node.values.end());
      node.keys.resize(split_idx);
      node.values.resize(split_idx);
      right->next_leaf = node.next_leaf;
      node.next_leaf = *right_id;
      separator = right->keys.front();
    } else {
      // Internal node split: promote the middle key.
      size_t n = node.keys.size();
      split_idx = n / 2;
      for (size_t i = 0; i < n; ++i) {
        acc += 6 + node.keys[i].size();
        if (acc >= total / 2) {
          split_idx = i;
          break;
        }
      }
      split_idx = std::clamp<size_t>(split_idx, 1, n - 2 > 0 ? n - 2 : 1);
      separator = node.keys[split_idx];
      right->keys.assign(node.keys.begin() + static_cast<long>(split_idx) + 1,
                         node.keys.end());
      right->children.assign(node.children.begin() + static_cast<long>(split_idx) + 1,
                             node.children.end());
      node.keys.resize(split_idx);
      node.children.resize(split_idx + 1);
    }
    MarkDirty(page_id, *node_or);
    InstallPage(*right_id, right);

    // Insert the separator into the parent (or grow a new root).
    if (path.empty()) {
      auto new_root = std::make_shared<Node>();
      new_root->leaf = false;
      new_root->keys.push_back(std::move(separator));
      new_root->children = {page_id, *right_id};
      InstallPage(new_root_id, new_root);
      root_ = new_root_id;
      ++height_;
      return PersistMeta();
    }
    PathEntry parent = path.back();
    path.pop_back();
    auto parent_node = FetchNode(parent.page_id);
    if (!parent_node.ok()) {
      return parent_node.status();
    }
    Node& pn = **parent_node;
    pn.keys.insert(pn.keys.begin() + static_cast<long>(parent.child_index),
                   std::move(separator));
    pn.children.insert(pn.children.begin() + static_cast<long>(parent.child_index) + 1,
                       *right_id);
    MarkDirty(parent.page_id, *parent_node);
    page_id = parent.page_id;  // continue loop: parent may now overflow
  }
}

Status BTreeStore::DeleteLocked(std::string_view key) {
  auto slot = FindSlot(key);
  if (!slot.ok()) {
    return slot.status();
  }
  if (!slot->found) {
    return Status::Ok();  // blind delete of a missing key is a no-op
  }
  Node& node = *slot->leaf;
  const auto pos = static_cast<long>(slot->idx);
  GADGET_RETURN_IF_ERROR(ReleaseValue(node.values[slot->idx]));
  node.keys.erase(node.keys.begin() + pos);
  node.values.erase(node.values.begin() + pos);
  MarkDirty(slot->leaf_id, slot->leaf);
  // No rebalancing: empty non-root leaves stay linked but hold no entries.
  // This is the lazy-reclamation model (see header).
  return Status::Ok();
}

Status BTreeStore::RmwLocked(std::string_view key, std::string_view operand) {
  auto slot = FindSlot(key);
  if (!slot.ok()) {
    return slot.status();
  }
  std::string value;
  if (slot->found) {
    const ValueRef& old = slot->leaf->values[slot->idx];
    value.reserve((old.overflow_head == 0 ? old.inline_data.size() : old.total_len) +
                  operand.size());
    GADGET_RETURN_IF_ERROR(LoadValue(old, &value));
  }
  value.append(operand.data(), operand.size());
  return StoreAt(std::move(slot).value(), key, value);
}

// ------------------------------------------------------------ public facade

Status BTreeStore::Put(std::string_view key, std::string_view value) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.puts;
  stats_.bytes_written += key.size() + value.size();
  GADGET_RETURN_IF_ERROR(PutLocked(key, value));
  return MaybeWriteBackLocked();
}

Status BTreeStore::Get(std::string_view key, std::string* value, const ReadOptions& options) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.gets;
  Status s = GetLocked(key, value, options.fill_cache);
  if (s.ok()) {
    stats_.bytes_read += value->size();
  }
  return s;
}

Status BTreeStore::Delete(std::string_view key) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.deletes;
  // Accounting contract (kvstore.h): a delete accepts its key bytes.
  stats_.bytes_written += key.size();
  GADGET_RETURN_IF_ERROR(DeleteLocked(key));
  return MaybeWriteBackLocked();
}

Status BTreeStore::ReadModifyWrite(std::string_view key, std::string_view operand) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  ++stats_.rmws;
  stats_.bytes_written += key.size() + operand.size();
  GADGET_RETURN_IF_ERROR(RmwLocked(key, operand));
  return MaybeWriteBackLocked();
}

Status BTreeStore::Write(const WriteBatch& batch) {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const WriteBatch::Entry& e = batch.entry(i);
    Status s;
    switch (e.op) {
      case WriteBatch::Op::kPut:
        ++stats_.puts;
        stats_.bytes_written += e.key.size() + e.value.size();
        s = PutLocked(e.key, e.value);
        break;
      case WriteBatch::Op::kMerge:
        // No native merge: a batched merge is an eager RMW, same as the
        // single-op fallback path and counted identically.
        ++stats_.rmws;
        stats_.bytes_written += e.key.size() + e.value.size();
        s = RmwLocked(e.key, e.value);
        break;
      case WriteBatch::Op::kDelete:
        ++stats_.deletes;
        stats_.bytes_written += e.key.size();
        s = DeleteLocked(e.key);
        break;
    }
    GADGET_RETURN_IF_ERROR(s);
  }
  NoteBatch(batch.size());
  return MaybeWriteBackLocked();
}

Status BTreeStore::MultiGet(const std::vector<std::string>& keys,
                            std::vector<std::string>* values, std::vector<Status>* statuses,
                            const ReadOptions& options) {
  values->resize(keys.size());
  statuses->assign(keys.size(), Status::Ok());
  MutexLock lock(&mu_);
  if (closed_) {
    const Status closed = Status::Internal("store is closed");
    statuses->assign(keys.size(), closed);  // every key fails, none reads Ok
    return closed;
  }
  Status first_error;
  for (size_t i = 0; i < keys.size(); ++i) {
    ++stats_.gets;
    Status s = GetLocked(keys[i], &(*values)[i], options.fill_cache);
    if (s.ok()) {
      stats_.bytes_read += (*values)[i].size();
    } else if (!s.IsNotFound() && first_error.ok()) {
      first_error = s;
    }
    (*statuses)[i] = std::move(s);
  }
  NoteBatch(keys.size());
  return first_error;
}

Status BTreeStore::FlushLocked() {
  GADGET_RETURN_IF_ERROR(WriteBackDirtyLocked());
  GADGET_RETURN_IF_ERROR(PersistMeta());
  if (::fdatasync(fd_) != 0) {
    return Status::IoError("fdatasync btree");
  }
  return Status::Ok();
}

Status BTreeStore::Flush() {
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Ok();
  }
  return FlushLocked();
}

StatusOr<CheckpointInfo> BTreeStore::Checkpoint(const std::string& dir,
                                                const CheckpointOptions& options) {
  (void)options;  // the page file mutates in place: nothing to reuse
  GADGET_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  auto names = ListDir(dir);
  if (!names.ok()) {
    return names.status();
  }
  if (!names->empty()) {
    return Status::InvalidArgument("checkpoint dir not empty: " + dir);
  }
  MutexLock lock(&mu_);
  if (closed_) {
    return Status::Internal("store is closed");
  }
  GADGET_RETURN_IF_ERROR(FlushLocked());
  GADGET_RETURN_IF_ERROR(CopyFile(TreePath(dir_), TreePath(dir), /*sync=*/true));
  GADGET_RETURN_IF_ERROR(SyncDir(dir));
  auto size = FileSize(TreePath(dir));
  if (!size.ok()) {
    return size.status();
  }
  CheckpointInfo info;
  info.bytes = *size;
  info.files = 1;
  return info;
}

Status BTreeStore::Close() {
  {
    MutexLock lock(&mu_);
    if (closed_) {
      return Status::Ok();
    }
  }
  Status s = Flush();
  MutexLock lock(&mu_);
  closed_ = true;
  // Drop this store's pages from the shared pool so a long-lived pool does
  // not pin budget for a closed store.
  pool_->EraseFile(pool_file_id_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return s;
}

StoreStats BTreeStore::stats() const {
  MutexLock lock(&mu_);
  StoreStats out = stats_;
  FoldBatchStats(&out);
  // Pool-wide totals (the pool may be shared across stores; see kvstore.h).
  out.cache_hits = pool_->hits();
  out.cache_misses = pool_->misses();
  out.cache_evictions = pool_->evictions();
  out.cache_pins = pool_->pins();
  out.io_batches = pool_->io().batches();
  out.io_in_flight_max = pool_->io().in_flight_max();
  return out;
}

uint32_t BTreeStore::height() const {
  MutexLock lock(&mu_);
  return height_;
}

uint64_t BTreeStore::num_pages() const {
  MutexLock lock(&mu_);
  return next_page_;
}

Status BTreeStore::CheckInvariants() {
  MutexLock lock(&mu_);
  // Iterative BFS verifying (a) key ordering within nodes, (b) separator
  // bounds, (c) every leaf at depth height_ - 1 (which also bounds the walk
  // when a child pointer cycles), (d) every overflow chain's length; then
  // (e) the free list.
  struct Item {
    uint32_t page_id;
    uint32_t depth;
    std::string low;
    std::string high;  // empty = unbounded
    bool has_high;
  };
  std::vector<Item> queue{{root_, 0, "", "", false}};
  while (!queue.empty()) {
    Item item = std::move(queue.back());
    queue.pop_back();
    auto node = FetchNode(item.page_id);
    if (!node.ok()) {
      return node.status();
    }
    const Node& n = **node;
    for (size_t i = 1; i < n.keys.size(); ++i) {
      if (n.keys[i - 1] >= n.keys[i]) {
        return Status::Corruption("keys out of order in page " + std::to_string(item.page_id));
      }
    }
    for (const std::string& k : n.keys) {
      if (k < item.low || (item.has_high && k >= item.high)) {
        return Status::Corruption("key outside separator bounds in page " +
                                  std::to_string(item.page_id));
      }
    }
    if (n.leaf ? item.depth + 1 != height_ : item.depth + 1 >= height_) {
      return Status::Corruption((n.leaf ? "leaf page " : "internal page ") +
                                std::to_string(item.page_id) + " at depth " +
                                std::to_string(item.depth) + " of a height-" +
                                std::to_string(height_) + " tree");
    }
    if (n.leaf) {
      if (n.keys.size() != n.values.size()) {
        return Status::Corruption("leaf keys/values mismatch");
      }
      for (const ValueRef& v : n.values) {
        if (v.overflow_head != 0) {
          GADGET_RETURN_IF_ERROR(WalkChain(v, /*fill_cache=*/true, nullptr, nullptr));
        }
      }
    } else {
      if (n.children.size() != n.keys.size() + 1) {
        return Status::Corruption("internal children count mismatch");
      }
      for (size_t i = 0; i < n.children.size(); ++i) {
        Item child;
        child.page_id = n.children[i];
        child.depth = item.depth + 1;
        child.low = i == 0 ? item.low : n.keys[i - 1];
        if (i < n.keys.size()) {
          child.high = n.keys[i];
          child.has_high = true;
        } else {
          child.high = item.high;
          child.has_high = item.has_high;
        }
        queue.push_back(std::move(child));
      }
    }
  }
  // The free list: chunkless chain pages, fewer than the file holds.
  uint64_t free_pages = 0;
  for (uint32_t page_id = free_head_; page_id != 0;) {
    if (++free_pages >= next_page_) {
      return Status::Corruption("free list cycles");
    }
    auto link = FetchChainPage(page_id, /*fill_cache=*/true);
    if (!link.ok()) {
      return link.status();
    }
    if (!(*link)->chunk.empty()) {
      return Status::Corruption("free-list page " + std::to_string(page_id) + " holds data");
    }
    page_id = (*link)->next;
  }
  return Status::Ok();
}

}  // namespace gadget
