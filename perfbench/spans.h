// In-memory spans for the traced run. A span is one timed interval at a
// layer boundary: a name, start and end on the steady clock, the span that
// caused it, and a group id shared by every span of one wire request. Spans
// are appended as the run goes and written out once it ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr uint32_t kNoParent = 0xffffffffu;

struct Span {
  uint32_t name = 0;            // index into SpanLog::names()
  uint32_t parent = kNoParent;  // index of the causing span in the log
  uint64_t group = 0;           // request id on the wire, 0 elsewhere
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Not thread-safe: one recording thread per log.
class SpanLog {
 public:
  // Interns `name` and returns its id.
  uint32_t NameId(const std::string& name);
  const std::vector<std::string>& names() const { return names_; }

  // Appends a finished span and returns its index.
  uint32_t Add(uint32_t name, uint32_t parent, int64_t start_ns, int64_t end_ns,
               uint64_t group = 0);
  // Opens a span whose end is set later by Close (for spans that parent
  // others recorded while they are open).
  uint32_t Open(uint32_t name, uint32_t parent, int64_t start_ns, uint64_t group = 0);
  void Close(uint32_t index, int64_t end_ns) { spans_[index].end_ns = end_ns; }

  const std::vector<Span>& spans() const { return spans_; }

  // One line per span: index, parent (-1 for none), group, name, start, end.
  gadget::Status WriteTsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (overlapping children count once; children are
// clipped to the parent's interval).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Total self time per span name.
std::map<std::string, int64_t> SelfTimeByName(const SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
