// Tests for the multi-reactor network path (src/server/server.cc): connection
// sharding across IO threads, pipelined-response writev coalescing, the
// bounded per-connection output queue under a deliberately stalled reader
// (frames stay whole and in order, backpressure reaches the workers), and
// the boot-race connect retry. These are the TSan-lane
// subjects: everything here runs multiple reactors, workers, and client
// threads against the same counters and queues.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/config.h"
#include "src/common/file_util.h"
#include "src/common/json.h"
#include "src/gadget/evaluator.h"
#include "src/gadget/harness.h"
#include "src/server/client.h"
#include "src/server/loadgen.h"
#include "src/server/net/socket.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/stores/kvstore.h"

namespace gadget {
namespace wire {
namespace {

void SleepMs(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

// Net counters are bumped AFTER the write syscall returns, so a client can
// read its response a beat before the sender thread (descheduled mid-drain)
// runs the increments. Polls until `settled` holds or ~1s passes; either way
// the caller's assertions run against the returned snapshot.
template <typename Pred>
NetStats WaitForNet(Server* server, Pred settled) {
  NetStats ns = server->net_stats();
  for (int i = 0; i < 200 && !settled(ns); ++i) {
    SleepMs(5);
    ns = server->net_stats();
  }
  return ns;
}

// ------------------------------------------------------- reactor sharding

// Eight pooled connections round-robin across four reactors, so after one
// ping per connection every reactor must have decoded frames; the STATS
// document exposes the same gauges the report carries.
TEST(ServerNetTest, ConnectionsShardAcrossReactors) {
  ServerOptions opts;
  opts.shards = 2;
  opts.io_threads = 4;
  opts.store.engine = "mem";
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ((*server)->io_threads(), 4);

  auto client = Client::Connect((*server)->port(), /*pool_size=*/8);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*client)->Ping().ok());
  }

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    if (s.bytes_out == 0 || s.writev_calls == 0) {
      return false;
    }
    for (uint64_t n : s.thread_ops) {
      if (n == 0) {
        return false;
      }
    }
    return true;
  });
  ASSERT_EQ(ns.thread_ops.size(), 4u);
  for (size_t t = 0; t < ns.thread_ops.size(); ++t) {
    EXPECT_GT(ns.thread_ops[t], 0u) << "reactor " << t << " never decoded a frame";
  }
  EXPECT_GE(ns.conns_accepted, 8u);
  EXPECT_GT(ns.bytes_in, 0u);
  EXPECT_GT(ns.bytes_out, 0u);
  EXPECT_GT(ns.writev_calls, 0u);

  // The same counters ride inside STATS as the "net" object (what loadgen
  // reports copy into server.net for report_check).
  auto stats = (*client)->StatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto doc = ParseJson(*stats);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* net = doc->Get("net");
  ASSERT_NE(net, nullptr) << "STATS lost the net object";
  EXPECT_EQ(net->GetUint("io_threads"), 4u);
  const JsonValue* thread_ops = net->Get("thread_ops");
  ASSERT_NE(thread_ops, nullptr);
  ASSERT_TRUE(thread_ops->is_array());
  EXPECT_EQ(thread_ops->size(), 4u);
  EXPECT_GT(net->GetUint("bytes_out"), 0u);

  (*server)->Stop();
}

// A loadgen replay against a 4-reactor server converges to exactly the oracle
// state: sharding connections across IO threads must not lose, duplicate, or
// cross-wire a single operation.
TEST(ServerNetTest, MultiReactorReplayMatchesOracle) {
  Config config;
  config.Set("source", "borg");
  config.Set("events", "3000");
  config.Set("seed", "29");
  auto trace = BuildAccessTrace(config);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  ServerOptions sopts;
  sopts.shards = 2;
  sopts.io_threads = 4;
  sopts.store.engine = "mem";
  auto server = Server::Start(sopts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LoadgenOptions lopts;
  lopts.port = (*server)->port();
  lopts.clients = 8;
  lopts.shards = 2;
  lopts.batch_size = 16;
  lopts.pipeline_depth = 4;
  auto result = RunLoadgen(*trace, lopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ops_sent, trace->size());
  EXPECT_EQ(result->ops_acked, result->ops_sent);
  EXPECT_EQ(result->errors, 0u);

  // Oracle: the same trace replayed into one in-process MemStore; every
  // distinct key must agree over the wire.
  StoreOptions oracle_opts;
  oracle_opts.engine = "mem";
  auto oracle = OpenStore(oracle_opts);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(ReplayTrace(*trace, oracle->get()).ok());
  std::set<std::string> keys;
  std::string key;
  for (const StateAccess& a : *trace) {
    EncodeStateKeyTo(a.key, &key);
    keys.insert(key);
  }
  auto client = Client::Connect((*server)->port(), 1);
  ASSERT_TRUE(client.ok());
  for (const std::string& k : keys) {
    std::string expect;
    std::string got;
    const Status se = (*oracle)->Get(k, &expect);
    ASSERT_TRUE(se.ok() || se.IsNotFound());
    const Status sg = (*client)->Get(k, &got);
    if (se.IsNotFound()) {
      EXPECT_TRUE(sg.IsNotFound());
    } else {
      ASSERT_TRUE(sg.ok()) << sg.ToString();
      EXPECT_EQ(got, expect);
    }
  }
  ASSERT_TRUE((*oracle)->Close().ok());

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    return s.conns_accepted >= 8 && s.bytes_out > 0;
  });
  ASSERT_EQ(ns.thread_ops.size(), 4u);
  uint64_t decoded = 0;
  for (uint64_t n : ns.thread_ops) {
    decoded += n;
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GE(ns.conns_accepted, 8u);
  (*server)->Stop();
}

// --------------------------------------------------- writev coalescing

// A deep pipelined burst decoded as one task produces one response burst, so
// the gather list submitted to writev carries many frames: the
// frames_per_writev_max gauge must show real coalescing (>1), which is the
// whole point of batching responses instead of write()-per-frame.
TEST(ServerNetTest, PipelinedResponsesCoalesceIntoOneWritev) {
  ServerOptions opts;
  opts.shards = 1;
  opts.io_threads = 1;
  opts.store.engine = "mem";
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto fd = net::TcpConnect((*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  net::FramedConn conn(*fd);

  constexpr uint32_t kBurst = 128;
  std::string out;
  for (uint32_t i = 0; i < kBurst; ++i) {
    AppendPutRequest(&out, i + 1, "coalesce-" + std::to_string(i), "v");
  }
  ASSERT_TRUE(conn.Send(out).ok());
  std::set<uint32_t> ids;
  for (uint32_t i = 0; i < kBurst; ++i) {
    Response rsp;
    ASSERT_TRUE(conn.RecvResponse(&rsp).ok());
    EXPECT_EQ(rsp.type, MsgType::kOk);
    ids.insert(rsp.id);
  }
  EXPECT_EQ(ids.size(), kBurst);

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    return s.writev_calls > 0 && s.frames_per_writev_max > 1;
  });
  EXPECT_GT(ns.writev_calls, 0u);
  EXPECT_GT(ns.frames_per_writev_max, 1u)
      << "pipelined responses went out one frame per writev";
  (*server)->Stop();
}

// ------------------------------------------------------- slow reader

// The slow-reader gauntlet: a tiny server-side send buffer, a small output
// queue cap, and a client that pipelines 2 MiB of GET responses without
// reading, then stalls. The workers must block on the output queue (stall
// time accounted), the queue must absorb bursts without growing unboundedly,
// and once the client drains, every response must arrive whole, exactly
// once, and in request order (one connection, one shard, GET-only => FIFO).
TEST(ServerNetTest, SlowReaderBackpressureKeepsFramesWholeAndOrdered) {
  constexpr size_t kValueBytes = 8 << 10;
  constexpr int kKeys = 16;
  constexpr int kRounds = 16;

  ServerOptions opts;
  opts.shards = 1;
  opts.io_threads = 1;
  opts.store.engine = "mem";
  opts.so_sndbuf = 4096;          // jam the socket with small payloads
  opts.conn_outq_limit = 16 << 10;  // cap far below one round's responses
  opts.shard_queue_limit = 4;       // so dispatch backpressure engages too
  auto server = Server::Start(opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Seed kKeys values of kValueBytes each through a well-behaved client.
  auto seeder = Client::Connect((*server)->port(), 1);
  ASSERT_TRUE(seeder.ok()) << seeder.status().ToString();
  std::vector<std::string> values(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    values[i] = std::string(kValueBytes, static_cast<char>('a' + i));
    ASSERT_TRUE((*seeder)->Put("slow-" + std::to_string(i), values[i]).ok());
  }

  auto fd = net::TcpConnect((*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  net::FramedConn conn(*fd);

  // Pipeline kRounds bursts of GETs, spaced out so the reactor decodes them
  // as separate tasks, while never reading a byte of response.
  uint32_t next_id = 1;
  for (int round = 0; round < kRounds; ++round) {
    std::string burst;
    for (int i = 0; i < kKeys; ++i) {
      AppendGetRequest(&burst, next_id++, "slow-" + std::to_string(i));
    }
    ASSERT_TRUE(conn.Send(burst).ok());
    SleepMs(15);
  }
  // Stall: responses pile into the kernel buffers, then the output queue,
  // then the workers block.
  SleepMs(300);

  // Drain everything. Ids must come back strictly in request order with the
  // exact seeded payloads — no torn, dropped, duplicated, or reordered frame.
  const uint32_t total = static_cast<uint32_t>(kRounds * kKeys);
  for (uint32_t want = 1; want <= total; ++want) {
    Response rsp;
    ASSERT_TRUE(conn.RecvResponse(&rsp).ok()) << "response " << want;
    ASSERT_EQ(rsp.type, MsgType::kValue) << "response " << want;
    ASSERT_EQ(rsp.id, want) << "responses reordered on one connection";
    EXPECT_EQ(rsp.value, values[(want - 1) % kKeys]) << "torn or cross-wired value";
  }

  const NetStats ns = WaitForNet(server->get(), [](const NetStats& s) {
    return s.bytes_out >= static_cast<uint64_t>(kRounds * kKeys) * kValueBytes &&
           s.output_queue_stall_micros > 0;
  });
  EXPECT_GT(ns.output_queue_stall_micros, 0u)
      << "workers never blocked on the stalled reader";
  // Bursts larger than the cap are admitted whole (but only into an empty
  // queue), so the high-water mark is at least one burst and well below the
  // total pushed through.
  EXPECT_GE(ns.output_queue_bytes_max, opts.conn_outq_limit);
  EXPECT_LT(ns.output_queue_bytes_max, static_cast<uint64_t>(total) * kValueBytes);
  EXPECT_GE(ns.bytes_out, static_cast<uint64_t>(total) * kValueBytes);

  // The server shook off the stall completely: a fresh client works.
  auto probe = Client::Connect((*server)->port(), 1);
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE((*probe)->Ping().ok());
  (*server)->Stop();
}

// --------------------------------------------------------- connect retry

// TcpConnectRetry bridges the boot race: a listener that appears ~100ms
// after the first connect attempt is still reached within the budget, and a
// port nobody ever listens on fails (bounded, not hanging).
TEST(ServerNetTest, ConnectRetryToleratesLateListener) {
  auto probe = net::TcpListen(0);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  auto port = net::TcpLocalPort(*probe);
  ASSERT_TRUE(port.ok());
  net::CloseFd(*probe);

  int listen_fd = -1;
  std::thread late([&listen_fd, port]() {
    SleepMs(100);
    auto fd = net::TcpListen(*port);
    if (fd.ok()) {
      listen_fd = *fd;
    }
  });
  auto conn = net::TcpConnectRetry(*port, /*budget_ms=*/3000);
  late.join();
  ASSERT_NE(listen_fd, -1) << "could not re-bind the probed port";
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  net::CloseFd(*conn);
  net::CloseFd(listen_fd);

  // Nobody listening and nobody coming: the retry gives up after the budget.
  auto dead_probe = net::TcpListen(0);
  ASSERT_TRUE(dead_probe.ok());
  auto dead_port = net::TcpLocalPort(*dead_probe);
  ASSERT_TRUE(dead_port.ok());
  net::CloseFd(*dead_probe);
  auto refused = net::TcpConnectRetry(*dead_port, /*budget_ms=*/200);
  EXPECT_FALSE(refused.ok());
}

// Loadgen itself survives racing server startup: connecting with a budget
// against a server that starts shortly after the loadgen threads do.
TEST(ServerNetTest, ClientConnectBudgetBridgesServerBoot) {
  auto probe = net::TcpListen(0);
  ASSERT_TRUE(probe.ok());
  auto port = net::TcpLocalPort(*probe);
  ASSERT_TRUE(port.ok());
  net::CloseFd(*probe);

  std::unique_ptr<Server> server;
  std::thread boot([&server, port]() {
    SleepMs(100);
    ServerOptions opts;
    opts.port = *port;
    opts.shards = 1;
    opts.io_threads = 1;
    opts.store.engine = "mem";
    auto s = Server::Start(opts);
    if (s.ok()) {
      server = std::move(*s);
    }
  });
  auto client = Client::Connect(*port, /*pool_size=*/2, /*connect_budget_ms=*/3000);
  boot.join();
  ASSERT_NE(server, nullptr) << "server failed to bind the probed port";
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE((*client)->Ping().ok());
  server->Stop();
}

}  // namespace
}  // namespace wire
}  // namespace gadget
