// Open-loop load generator for the wire workload. One request per trace op
// is due at a fixed schedule (t0 + i / rate) and is sent when due whether or
// not earlier requests have been answered, so a stalled server builds a
// queue instead of slowing the load. Latency is timed from the due time.
//
// Keys are hash-partitioned across the connections, so every key's requests
// travel in trace order on one connection (the server keeps per-connection,
// per-shard order). Each connection has one sending and one receiving thread.
#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "metrics.h"
#include "src/common/status.h"
#include "src/server/client.h"
#include "src/streams/state_access.h"

namespace perfbench {

// Per-request timestamps (steady-clock ns) and outcome. The sending thread
// writes send_ns and the receiving thread done_ns/outcome; both are read only
// after the step's threads have joined.
struct RequestRecord {
  enum Outcome : uint8_t { kPending = 0, kOk = 1, kNotFound = 2, kFailed = 3 };
  int64_t due_ns = 0;
  int64_t send_ns = 0;  // 0 = never sent
  int64_t done_ns = 0;
  Outcome outcome = kPending;
};

// One step's raw timings plus its summary.
struct StepRun {
  StepResult result;
  std::vector<RequestRecord> records;  // trace order within the step
  uint64_t not_found = 0;
};

// Summarizes `records` (in due order) into a StepResult at `rate` without
// judging it: counts, backlog and achieved rate over the whole step; latency,
// round-trip and lag percentiles as the median over windows of `window`
// consecutive requests; pooled percentiles beside them.
StepResult Summarize(const std::vector<RequestRecord>& records, double rate, size_t window);

class OpenLoopGenerator {
 public:
  // Leases `connections` pooled connections of `client` for the generator's
  // lifetime. `abort` is called if a step overruns its deadline; it must make
  // the server drop the connections (the wire workload kills it), which
  // unblocks the generator's threads.
  OpenLoopGenerator(gadget::wire::Client* client, int connections, std::function<void()> abort);

  // Sends trace[begin, end) at `rate` ops/s and waits for every answer, or
  // until `deadline_s` after the last request was due. Percentiles are
  // summarized per `window` requests (see Summarize).
  StepRun RunStep(const std::vector<gadget::StateAccess>& trace, size_t begin, size_t end,
                  double rate, size_t window, double deadline_s);

 private:
  std::vector<gadget::wire::Client::Lease> leases_;
  std::function<void()> abort_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
