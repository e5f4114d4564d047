#include "open_loop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>

#include "spans.h"
#include "src/common/hash.h"

namespace perfbench {

using gadget::OpType;
using gadget::StateAccess;
namespace wire = gadget::wire;

namespace {

// Most frames one send() carries when the sender has fallen behind.
constexpr size_t kMaxBurst = 256;
// Lead time between scheduling a step and its first due time, so every
// thread is running before the first request is due.
constexpr int64_t kStartLeadNs = 5'000'000;

// One connection's share of a step. Filled before the threads start and
// read-only afterwards.
struct ConnPlan {
  gadget::net::FramedConn* conn = nullptr;
  std::vector<size_t> ops;                     // step-relative indices, trace order
  std::vector<uint32_t> ids;                   // correlation id per op
  std::unordered_map<uint32_t, size_t> index;  // id -> step-relative index
};

void SendLoop(const std::vector<StateAccess>& trace, size_t begin, const ConnPlan& plan,
              RequestRecord* records) {
  // The default 50 us timer slack would add straight to the send lag.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::string frames;
  std::string key;
  std::string value;
  size_t k = 0;
  while (k < plan.ops.size()) {
    const int64_t due = records[plan.ops[k]].due_ns;
    int64_t now = NowNs();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      continue;
    }
    frames.clear();
    const size_t first = k;
    while (k < plan.ops.size() && k - first < kMaxBurst && records[plan.ops[k]].due_ns <= now) {
      const StateAccess& a = trace[begin + plan.ops[k]];
      gadget::EncodeStateKeyTo(a.key, &key);
      if (a.value_size > value.size()) {
        value.resize(a.value_size, 'v');  // the evaluator's synthetic values
      }
      const std::string_view v(value.data(), a.value_size);
      const uint32_t id = plan.ids[k];
      switch (a.op) {
        case OpType::kGet:
          wire::AppendGetRequest(&frames, id, key);
          break;
        case OpType::kPut:
          wire::AppendPutRequest(&frames, id, key, v);
          break;
        case OpType::kMerge:
          wire::AppendMergeRequest(&frames, id, key, v);
          break;
        case OpType::kDelete:
          wire::AppendDeleteRequest(&frames, id, key);
          break;
      }
      ++k;
    }
    now = NowNs();
    for (size_t j = first; j < k; ++j) {
      records[plan.ops[j]].send_ns = now;
    }
    if (!plan.conn->Send(frames).ok()) {
      return;  // the connection is gone; unanswered requests count as failed
    }
  }
}

void RecvLoop(const std::vector<StateAccess>& trace, size_t begin, const ConnPlan& plan,
              RequestRecord* records, std::atomic<size_t>* finished) {
  for (size_t received = 0; received < plan.ops.size(); ++received) {
    wire::Response resp;
    if (!plan.conn->RecvResponse(&resp).ok() || resp.id == 0) {
      break;  // connection error or connection-fatal server error
    }
    const int64_t now = NowNs();
    auto it = plan.index.find(resp.id);
    if (it == plan.index.end()) {
      break;  // an id we never sent: the stream is corrupt
    }
    RequestRecord& rec = records[it->second];
    rec.done_ns = now;
    const OpType op = trace[begin + it->second].op;
    if (op == OpType::kGet && resp.type == wire::MsgType::kValue) {
      rec.outcome = RequestRecord::kOk;
    } else if (op == OpType::kGet && resp.type == wire::MsgType::kNotFound) {
      rec.outcome = RequestRecord::kNotFound;
    } else if (op != OpType::kGet && resp.type == wire::MsgType::kOk) {
      rec.outcome = RequestRecord::kOk;
    } else {
      rec.outcome = RequestRecord::kFailed;
    }
  }
  finished->fetch_add(1, std::memory_order_release);
}

}  // namespace

namespace {

bool Answered(const RequestRecord& r) {
  return r.outcome == RequestRecord::kOk || r.outcome == RequestRecord::kNotFound;
}

// Latency (from due time, failures at kFailedLatency), round trip and lag
// samples of records[begin, end), each sorted.
struct Samples {
  std::vector<double> lat, rtt, lag;
  Samples(const std::vector<RequestRecord>& records, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const RequestRecord& r = records[i];
      lag.push_back(r.send_ns == 0 ? kFailedLatency
                                   : static_cast<double>(r.send_ns - r.due_ns) / 1e3);
      if (Answered(r)) {
        lat.push_back(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
        rtt.push_back(static_cast<double>(r.done_ns - r.send_ns) / 1e3);
      } else {
        lat.push_back(kFailedLatency);
      }
    }
    std::sort(lat.begin(), lat.end());
    std::sort(rtt.begin(), rtt.end());
    std::sort(lag.begin(), lag.end());
  }
};

}  // namespace

StepResult Summarize(const std::vector<RequestRecord>& records, double rate, size_t window) {
  const size_t n = records.size();
  StepResult s;
  s.rate = rate;
  s.offered = n;
  if (n == 0) {
    return s;
  }
  int64_t first_due = records[0].due_ns;
  int64_t last_due = first_due;
  int64_t last_done = first_due;
  for (const RequestRecord& r : records) {
    first_due = std::min(first_due, r.due_ns);
    last_due = std::max(last_due, r.due_ns);
    if (Answered(r)) {
      ++s.completed;
      last_done = std::max(last_done, r.done_ns);
    } else {
      ++s.failed;
    }
  }
  for (const RequestRecord& r : records) {
    if (!Answered(r) || r.done_ns > last_due) {
      ++s.backlog_at_end;
    }
  }
  const double span_s = static_cast<double>(last_done - first_due) / 1e9;
  s.achieved_ops_s = span_s > 0 ? static_cast<double>(s.completed) / span_s : 0;

  const Samples all(records, 0, n);
  s.pooled_p99_us = Percentile(all.lat, 99);
  s.pooled_p999_us = Percentile(all.lat, 99.9);
  // Percentiles per window of consecutive requests; the step reports the
  // median window. A ragged last window is dropped unless it is the only one.
  window = std::max<size_t>(window, 1);
  std::vector<double> p50, p99, p999, rtt50, rtt99, lag99;
  for (size_t b = 0; b < n; b += window) {
    const size_t e = std::min(n, b + window);
    if (e - b < window && b > 0) {
      break;
    }
    const Samples w(records, b, e);
    p50.push_back(Percentile(w.lat, 50));
    p99.push_back(Percentile(w.lat, 99));
    p999.push_back(Percentile(w.lat, 99.9));
    rtt50.push_back(Percentile(w.rtt, 50));
    rtt99.push_back(Percentile(w.rtt, 99));
    lag99.push_back(Percentile(w.lag, 99));
  }
  s.lat_p50_us = Median(p50);
  s.lat_p99_us = Median(p99);
  s.lat_p999_us = Median(p999);
  s.rtt_p50_us = Median(rtt50);
  s.rtt_p99_us = Median(rtt99);
  s.lag_p99_us = Median(lag99);
  return s;
}

OpenLoopGenerator::OpenLoopGenerator(wire::Client* client, int connections,
                                     std::function<void()> abort)
    : abort_(std::move(abort)) {
  for (int i = 0; i < connections; ++i) {
    leases_.push_back(client->AcquireLease());
  }
}

StepRun OpenLoopGenerator::RunStep(const std::vector<StateAccess>& trace, size_t begin,
                                   size_t end, double rate, size_t window,
                                   double deadline_s) {
  StepRun run;
  const size_t n = end - begin;
  run.records.resize(n);
  const size_t conns = leases_.size();
  std::vector<ConnPlan> plans(conns);
  std::string key;
  for (size_t c = 0; c < conns; ++c) {
    plans[c].conn = leases_[c].conn();
  }
  const int64_t t0 = NowNs() + kStartLeadNs;
  const double gap_ns = 1e9 / rate;
  for (size_t i = 0; i < n; ++i) {
    run.records[i].due_ns = t0 + static_cast<int64_t>(gap_ns * static_cast<double>(i));
    gadget::EncodeStateKeyTo(trace[begin + i].key, &key);
    const size_t c = gadget::Hash64(key) % conns;
    const uint32_t id = leases_[c].NextId();
    plans[c].index.emplace(id, i);
    plans[c].ops.push_back(i);
    plans[c].ids.push_back(id);
  }

  std::atomic<size_t> finished{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back(SendLoop, std::cref(trace), begin, std::cref(plans[c]),
                         run.records.data());
    threads.emplace_back(RecvLoop, std::cref(trace), begin, std::cref(plans[c]),
                         run.records.data(), &finished);
  }
  const int64_t deadline =
      t0 + static_cast<int64_t>(gap_ns * static_cast<double>(n)) +
      static_cast<int64_t>(deadline_s * 1e9);
  while (finished.load(std::memory_order_acquire) < conns) {
    if (NowNs() > deadline) {
      abort_();  // drops the connections, which ends both loops
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : threads) {
    t.join();
  }
  for (size_t i = 0; i < n; ++i) {
    if (run.records[i].outcome == RequestRecord::kPending) {
      run.records[i].outcome = RequestRecord::kFailed;
    }
    run.not_found += run.records[i].outcome == RequestRecord::kNotFound ? 1 : 0;
  }
  run.result = Summarize(run.records, rate, window);
  return run;
}

}  // namespace perfbench
