#include "spans.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

uint32_t SpanLog::NameId(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

uint32_t SpanLog::Add(uint32_t name, uint32_t parent, int64_t start_ns, int64_t end_ns,
                      uint64_t group) {
  spans_.push_back(Span{name, parent, group, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

uint32_t SpanLog::Open(uint32_t name, uint32_t parent, int64_t start_ns, uint64_t group) {
  return Add(name, parent, start_ns, start_ns, group);
}

gadget::Status SpanLog::WriteTsv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return gadget::Status::IoError("cannot write " + path);
  }
  out << "index\tparent\tgroup\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent)) << '\t'
        << s.group << '\t' << names_[s.name] << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  out.close();
  return out ? gadget::Status::Ok() : gadget::Status::IoError("short write to " + path);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children grouped by parent, each group sorted by start, then the union
  // of each group's clipped intervals is subtracted from the parent.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      const Span& p = spans[s.parent];
      const int64_t a = std::max(s.start_ns, p.start_ns);
      const int64_t b = std::min(s.end_ns, p.end_ns);
      if (b > a) {
        children[s.parent].emplace_back(a, b);
      }
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0;
    int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) {
        covered += cur_b - cur_a;
      }
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) {
      covered += cur_b - cur_a;
    }
    self[i] = std::max<int64_t>(spans[i].end_ns - spans[i].start_ns, 0) - covered;
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByName(const SpanLog& log) {
  const std::vector<int64_t> self = SelfTimes(log.spans());
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < self.size(); ++i) {
    by_name[log.names()[log.spans()[i].name]] += self[i];
  }
  return by_name;
}

}  // namespace perfbench
