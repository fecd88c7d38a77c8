// Fault-tolerance tests for the query server: the network chaos sites
// (http/send, http/recv, http/frame) at the protocol layer and end to
// end, socket deadlines against slow-loris clients, the retrying
// client, the per-session circuit breaker, priority eviction and
// shedding under overload, idle-session expiry, and a graceful drain
// racing an in-flight spilling query.

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/query_server.h"
#include "spill/spill_manager.h"
#include "test_util.h"

namespace gmdj {
namespace server {
namespace {

const char* kExistsSql =
    "SELECT * FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE "
    "F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval)";

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string ExtractSessionId(const std::string& body) {
  const size_t key = body.find("\"session\": \"");
  if (key == std::string::npos) return "";
  const size_t start = key + 12;
  return body.substr(start, body.find('"', start) - start);
}

/// Removes `path` recursively (best effort), then recounts: regular
/// files under `path`, at any depth.
void RemoveTree(const std::string& path) {
  if (DIR* d = ::opendir(path.c_str())) {
    while (struct dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      RemoveTree(path + "/" + name);
    }
    ::closedir(d);
  }
  ::remove(path.c_str());
}

size_t CountFilesRecursive(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d == nullptr) return 0;
  size_t count = 0;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string child = path + "/" + name;
    if (DIR* sub = ::opendir(child.c_str())) {
      ::closedir(sub);
      count += CountFilesRecursive(child);
    } else {
      ++count;
    }
  }
  ::closedir(d);
  return count;
}

/// Every test disarms the global injector on the way out so a failing
/// assertion cannot leak an armed fault into the next test.
class ServerFaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Global()->set_tracing(false);
    FaultInjector::Global()->Reset();
  }
};

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    Close(0);
    Close(1);
  }
  void Close(int i) {
    if (fds[i] >= 0) {
      ::close(fds[i]);
      fds[i] = -1;
    }
  }
};

// --- Protocol-layer chaos sites, driven deterministically over a
// socketpair (no server, no racing threads: the site fires on the
// first traversal, single-threaded).

TEST_F(ServerFaultTest, SendFaultTearsTheOutboundStream) {
  SocketPair pair;
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "short write (injected)";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("http/send", spec);

  // The writer surfaces the injected status after pushing out a strict
  // prefix of the head...
  const Status written =
      WriteHttpRequest(pair.fds[0], "POST", "/query", {}, "SELECT 1");
  EXPECT_EQ(written.code(), StatusCode::kInternal);
  EXPECT_NE(written.message().find("injected"), std::string::npos);
  pair.Close(0);

  // ...so the peer sees a torn head ending in EOF: a typed parse error,
  // not a hang and not a phantom request.
  std::string buffer;
  HttpRequest request;
  Status error;
  const ReadResult result = ReadHttpRequest(pair.fds[1], HttpLimits{},
                                            &buffer, &request, nullptr,
                                            &error);
  EXPECT_EQ(result, ReadResult::kError);
  EXPECT_FALSE(error.ok());
  EXPECT_FALSE(buffer.empty());  // The torn prefix did arrive.
}

TEST_F(ServerFaultTest, RecvFaultIsATypedReadError) {
  SocketPair pair;
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "read fault (injected)";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("http/recv", spec);

  std::string buffer;
  HttpRequest request;
  Status error;
  // The site is checked before blocking on recv, so this returns
  // immediately with the injected status even though nothing was sent.
  const ReadResult result = ReadHttpRequest(pair.fds[0], HttpLimits{},
                                            &buffer, &request, nullptr,
                                            &error);
  EXPECT_EQ(result, ReadResult::kError);
  EXPECT_EQ(error.code(), StatusCode::kInternal);
  EXPECT_NE(error.message().find("injected"), std::string::npos);
}

TEST_F(ServerFaultTest, FrameFaultPromisesMoreThanItDelivers) {
  SocketPair pair;
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "torn frame (injected)";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("http/frame", spec);

  HttpResponse response;
  response.body = "{\"status\": \"ok\", \"rows\": [1, 2, 3, 4, 5, 6]}";
  const Status written = WriteHttpResponse(pair.fds[0], response);
  EXPECT_EQ(written.code(), StatusCode::kInternal);
  pair.Close(0);

  // The head promised Content-Length bytes; only half arrived before
  // EOF. The reader must fail the frame, not wait for the rest.
  std::string buffer;
  HttpResponse got;
  const ReadResult result =
      ReadHttpResponse(pair.fds[1], HttpLimits{}, &buffer, &got);
  EXPECT_NE(result, ReadResult::kOk);
}

// --- End-to-end: a real server on an ephemeral port.

TEST_F(ServerFaultTest, EndToEndRequestTraversesEveryNetworkChaosSite) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  FaultInjector::Global()->set_tracing(true);
  auto response = client.Request("POST", "/query", {}, kExistsSql);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->status, 200);
  FaultInjector::Global()->set_tracing(false);

  // One request/response pair crosses the client write, the server
  // read, and the server's framed write — the full chaos surface the
  // matrix above exercises.
  const std::vector<std::string> sites =
      FaultInjector::Global()->TraversedSites();
  auto crossed = [&sites](const char* site) {
    return std::find(sites.begin(), sites.end(), site) != sites.end();
  };
  EXPECT_TRUE(crossed("http/send"));
  EXPECT_TRUE(crossed("http/recv"));
  EXPECT_TRUE(crossed("http/frame"));

  client.Close();
  server.Shutdown();
  server.Wait();
}

TEST_F(ServerFaultTest, TornResponseFrameIsRetriedToSuccess) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 5;

  // First attempt: the server's response frame is torn mid-body
  // (http/frame is server-only — the client never traverses it), so the
  // client sees a transport error. Being idempotent, it reconnects and
  // the second attempt sees a clean frame.
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "torn frame (injected)";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("http/frame", spec);
  auto retried = client.RequestWithRetry("POST", "/query", {}, kExistsSql,
                                         /*idempotent=*/true, policy);
  ASSERT_TRUE(retried.ok()) << retried.status().message();
  EXPECT_EQ(retried->status, 200);
  EXPECT_NE(retried->body.find("\"num_rows\": 3"), std::string::npos);

  // A non-idempotent request must NOT be replayed past a transport
  // error: the torn attempt may have executed server-side.
  FaultInjector::Global()->Arm("http/frame", spec);
  auto once = client.RequestWithRetry("POST", "/query", {}, kExistsSql,
                                      /*idempotent=*/false, policy);
  EXPECT_FALSE(once.ok());

  client.Close();
  server.Shutdown();
  server.Wait();
}

TEST_F(ServerFaultTest, SlowLorisStalledRequestAnswers408) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.socket_timeout_ms = 150;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  // Send a partial request line, then stall: the read deadline must
  // free the connection thread with a typed 408, not pin it forever.
  HttpClient raw;
  ASSERT_TRUE(raw.Connect("127.0.0.1", server.port()).ok());
  const char kPartial[] = "POST /query HT";
  ASSERT_GT(::send(raw.fd(), kPartial, sizeof(kPartial) - 1, MSG_NOSIGNAL),
            0);

  std::string buffer;
  HttpResponse response;
  const ReadResult result =
      ReadHttpResponse(raw.fd(), HttpLimits{}, &buffer, &response);
  ASSERT_EQ(result, ReadResult::kOk);
  EXPECT_EQ(response.status, 408);
  EXPECT_NE(response.body.find("DeadlineExceeded"), std::string::npos);

  // An idle keep-alive connection going quiet is NOT an error: the
  // server just closes it without a response.
  HttpClient idle;
  ASSERT_TRUE(idle.Connect("127.0.0.1", server.port()).ok());
  std::string idle_buffer;
  HttpResponse idle_response;
  EXPECT_EQ(ReadHttpResponse(idle.fd(), HttpLimits{}, &idle_buffer,
                             &idle_response),
            ReadResult::kClosed);

  raw.Close();
  idle.Close();
  server.Shutdown();
  server.Wait();
}

TEST_F(ServerFaultTest, CircuitBreakerTripsAfterConsecutiveGovernedAborts) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.breaker_threshold = 2;
  config.breaker_cooldown_ms = 60000;  // Stays open for the whole test.
  config.retry_after_ms = 200;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  auto session = client.Request("POST", "/session",
                                {{"X-Mem-Budget-Bytes", "64"}}, "");
  ASSERT_TRUE(session.ok());
  const std::string id = ExtractSessionId(session->body);
  ASSERT_FALSE(id.empty());

  // Two consecutive memory-budget aborts burn the worker pool...
  for (int i = 0; i < 2; ++i) {
    auto rejected =
        client.Request("POST", "/query", {{"X-Session", id}}, kExistsSql);
    ASSERT_TRUE(rejected.ok());
    EXPECT_EQ(rejected->status, 429);
  }

  // ...so the third is refused up front: 503, breaker message, and a
  // Retry-After hint — without ever reaching a worker.
  std::map<std::string, std::string> headers;
  auto refused = client.Request("POST", "/query", {{"X-Session", id}},
                                kExistsSql, &headers);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 503);
  EXPECT_NE(refused->body.find("circuit breaker"), std::string::npos);
  EXPECT_EQ(headers.count("retry-after"), 1u);
  EXPECT_EQ(headers.count("retry-after-ms"), 1u);

  // The breaker is per-tenant: the anonymous session still executes.
  auto ok = client.Request("POST", "/query", {}, kExistsSql);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200);

  client.Close();
  server.Shutdown();
  server.Wait();
}

TEST_F(ServerFaultTest, AnonymousSessionNeverTripsBreaker) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.breaker_threshold = 2;
  config.breaker_cooldown_ms = 60000;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Every headerless client shares the one anonymous session, so a
  // breaker keyed on it would let this misbehaving client 503 all
  // anonymous traffic. Rack up governed aborts well past the threshold:
  for (int i = 0; i < 4; ++i) {
    auto rejected = client.Request(
        "POST", "/query", {{"X-Mem-Budget-Bytes", "64"}}, kExistsSql);
    ASSERT_TRUE(rejected.ok());
    EXPECT_EQ(rejected->status, 429);
  }

  // ...and an unrelated anonymous client still executes normally.
  HttpClient bystander;
  ASSERT_TRUE(bystander.Connect("127.0.0.1", server.port()).ok());
  auto ok = bystander.Request("POST", "/query", {}, kExistsSql);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, 200);

  bystander.Close();
  client.Close();
  server.Shutdown();
  server.Wait();
}

TEST_F(ServerFaultTest, HigherPriorityPushEvictsQueuedLowerPriority) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.queue_capacity = 1;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  // Pin the single worker: the first execute sleeps 600ms.
  FaultSpec delay;
  delay.kind = FaultKind::kDelay;
  delay.max_fires = 1;
  delay.delay_micros = 600000;
  FaultInjector::Global()->Arm("engine/execute", delay);

  std::atomic<int> a_status{0};
  std::atomic<int> b_status{0};
  std::string b_body;
  std::thread a([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    auto r = c.Request("POST", "/query", {}, kExistsSql);
    if (r.ok()) a_status = r->status;
  });
  SleepMs(150);  // A is executing; the queue is empty.
  std::thread b([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    auto r = c.Request("POST", "/query", {{"X-Priority", "0"}}, kExistsSql);
    if (r.ok()) {
      b_status = r->status;
      b_body = r->body;
    }
  });
  SleepMs(150);  // B fills the 1-slot queue.

  // A higher-priority push evicts B instead of bouncing off the full
  // queue: C runs, B answers 503.
  HttpClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
  auto r = c.Request("POST", "/query", {{"X-Priority", "5"}}, kExistsSql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);

  a.join();
  b.join();
  EXPECT_EQ(a_status.load(), 200);
  EXPECT_EQ(b_status.load(), 503);
  EXPECT_NE(b_body.find("evicted"), std::string::npos);

  c.Close();
  server.Shutdown();
  server.Wait();
}

TEST_F(ServerFaultTest, OverdueLowerPriorityJobsAreShed) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.queue_capacity = 8;
  config.shed_after_ms = 50;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  FaultSpec delay;
  delay.kind = FaultKind::kDelay;
  delay.max_fires = 1;
  delay.delay_micros = 600000;
  FaultInjector::Global()->Arm("engine/execute", delay);

  std::atomic<int> a_status{0};
  std::atomic<int> b_status{0};
  std::atomic<int> c_status{0};
  std::string b_body;
  std::thread a([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    auto r = c.Request("POST", "/query", {}, kExistsSql);
    if (r.ok()) a_status = r->status;
  });
  SleepMs(150);
  std::thread b([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    auto r = c.Request("POST", "/query", {{"X-Priority", "0"}}, kExistsSql);
    if (r.ok()) {
      b_status = r->status;
      b_body = r->body;
    }
  });
  SleepMs(100);
  std::thread hi([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    auto r = c.Request("POST", "/query", {{"X-Priority", "5"}}, kExistsSql);
    if (r.ok()) c_status = r->status;
  });

  // When the worker frees up, B has out-waited shed_after_ms behind the
  // strictly-higher-priority job: it is shed (503), the high-priority
  // job runs.
  a.join();
  b.join();
  hi.join();
  EXPECT_EQ(a_status.load(), 200);
  EXPECT_EQ(c_status.load(), 200);
  EXPECT_EQ(b_status.load(), 503);
  EXPECT_NE(b_body.find("shed"), std::string::npos);

  server.Shutdown();
  server.Wait();
}

TEST_F(ServerFaultTest, GracefulDrainRacingSpillingQueryLeavesSpillDirEmpty) {
  // B/R with enough rows and a forced-spill config so the query really
  // writes spill blocks (spill_exec_test's differential-fuzzing lever).
  OlapEngine engine;
  {
    Table b = testutil::MakeTable({"B.k", "B.x"}, {});
    for (int i = 0; i < 600; ++i) b.AppendRow({Value(i % 17), Value(i % 23)});
    engine.catalog()->PutTable("B", std::move(b));
    Table r = testutil::MakeTable({"R.k", "R.y"}, {});
    for (int i = 0; i < 400; ++i) r.AppendRow({Value(i % 13), Value(i % 7)});
    engine.catalog()->PutTable("R", std::move(r));
  }
  const std::string spill_dir =
      ::testing::TempDir() + "/gmdj_server_fault_spill";
  RemoveTree(spill_dir);
  spill::SpillConfig spill_config;
  spill_config.dir = spill_dir;
  spill_config.block_rows = 64;
  spill_config.min_spill_partitions = 4;
  engine.EnableSpill(spill_config);

  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  // Stall the first spill-block writes so Shutdown() provably lands
  // while the query is mid-spill.
  FaultSpec delay;
  delay.kind = FaultKind::kDelay;
  delay.max_fires = 4;
  delay.delay_micros = 120000;
  FaultInjector::Global()->Arm("spill/write", delay);

  std::atomic<int> status{0};
  std::string failure, body;
  std::thread query([&] {
    HttpClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
    auto r = c.Request(
        "POST", "/query", {{"X-Format", "tsv"}},
        "SELECT * FROM B WHERE EXISTS (SELECT * FROM R WHERE R.k = B.k)");
    if (r.ok()) {
      status = r->status;
      body = r->body;
    } else {
      failure = r.status().ToString();
    }
  });
  SleepMs(150);
  server.Shutdown();  // Graceful: the in-flight spilling query finishes.
  server.Wait();
  query.join();

  EXPECT_EQ(status.load(), 200) << failure << body;
  // The query spilled...
  auto snapshot = engine.SnapshotMetrics();
  EXPECT_GT(snapshot.counters["spill.bytes_written"], 0u);
  // ...and the drain reclaimed every byte: nothing on disk, nothing
  // open, nothing accounted.
  EXPECT_EQ(engine.spill_manager()->bytes_in_use(), 0u);
  EXPECT_EQ(engine.spill_manager()->open_files(), 0u);
  EXPECT_EQ(CountFilesRecursive(spill_dir), 0u);
}

TEST_F(ServerFaultTest, IdleSessionExpiryPrunesGaugeSeries) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.session_ttl_ms = 50;
  QueryServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  std::string id;
  {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    auto session = client.Request("POST", "/session",
                                  {{"X-Mem-Budget-Bytes", "64"}}, "");
    ASSERT_TRUE(session.ok());
    id = ExtractSessionId(session->body);
    ASSERT_FALSE(id.empty());
    auto metrics = client.Request("GET", "/metrics", {}, "");
    ASSERT_TRUE(metrics.ok());
    EXPECT_NE(metrics->body.find("\"server.session." + id + "."),
              std::string::npos);
    client.Close();
  }

  // With its connection gone and nothing in flight, the session ages
  // past the TTL; the next /metrics scrape prunes it and removes its
  // gauge series from the registry.
  SleepMs(200);
  HttpClient late;
  ASSERT_TRUE(late.Connect("127.0.0.1", server.port()).ok());
  auto metrics = late.Request("GET", "/metrics", {}, "");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->body.find("\"server.session." + id + "."),
            std::string::npos);
  // The expired id no longer resolves.
  auto gone = late.Request("POST", "/query", {{"X-Session", id}}, kExistsSql);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->status, 404);

  late.Close();
  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace server
}  // namespace gmdj
