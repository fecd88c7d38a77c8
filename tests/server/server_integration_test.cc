// End-to-end server tests: an in-process QueryServer on an ephemeral
// port, driven through the real HTTP client. Covers row-equality against
// direct engine execution (including concurrent clients),
// structured errors with SQL offsets, per-session governance isolation,
// admin endpoints, and graceful shutdown.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "server/http_client.h"
#include "server/query_server.h"
#include "server/wire.h"
#include "sql/parser.h"
#include "test_util.h"

namespace gmdj {
namespace server {
namespace {

const char* kExistsSql =
    "SELECT * FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE "
    "F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval)";

class ServerIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::LoadPaperTables(&engine_);
    engine_.EnableAggCache();
    ASSERT_TRUE(server_.Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_.port()).ok());
  }

  void TearDown() override {
    client_.Close();
    server_.Shutdown();
    server_.Wait();
  }

  HttpResponse Post(const std::string& target,
                    std::vector<std::pair<std::string, std::string>> headers,
                    const std::string& body) {
    auto response = client_.Request("POST", target, std::move(headers), body);
    EXPECT_TRUE(response.ok()) << response.status().message();
    return response.ok() ? *response : HttpResponse{};
  }

  std::string DirectTsv(const std::string& sql) {
    auto statement = ParseStatement(sql);
    EXPECT_TRUE(statement.ok());
    auto result = engine_.Execute(*statement->select,
                                  Strategy::kGmdjOptimized);
    EXPECT_TRUE(result.ok());
    return TableToTsv(*result);
  }

  OlapEngine engine_;
  QueryServer server_{&engine_, [] {
                        ServerConfig config;
                        config.port = 0;
                        config.workers = 2;
                        return config;
                      }()};
  HttpClient client_;
};

TEST_F(ServerIntegrationTest, HealthReportsOkAndDepths) {
  auto response = client_.Request("GET", "/health", {}, "");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response->body.find("\"in_flight\": 0"), std::string::npos);
}

TEST_F(ServerIntegrationTest, QueryTsvMatchesDirectExecution) {
  const HttpResponse response =
      Post("/query", {{"X-Format", "tsv"}}, kExistsSql);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, DirectTsv(kExistsSql));
}

TEST_F(ServerIntegrationTest, QueryJsonEnvelopeCarriesStrategyAndRows) {
  const HttpResponse response = Post("/query", {}, kExistsSql);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response.body.find("\"strategy\": \"gmdj-optimized\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"num_rows\": 3"), std::string::npos);
  EXPECT_EQ(response.body.find("\"batched\""), std::string::npos);
  auto metrics = client_.Request("GET", "/metrics", {}, "");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->body.find("server.batch_size"), std::string::npos);
}

TEST_F(ServerIntegrationTest, ParseErrorIs400WithByteOffset) {
  const HttpResponse response =
      Post("/query", {}, "SELECT * FROM Hours WHERE");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("\"code\": \"InvalidArgument\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"offset\": 25"), std::string::npos);
}

TEST_F(ServerIntegrationTest, UnknownStrategyAndEndpointAndSession) {
  EXPECT_EQ(Post("/query", {{"X-Strategy", "nope"}}, kExistsSql).status, 400);
  EXPECT_EQ(Post("/nope", {}, "").status, 404);
  EXPECT_EQ(Post("/query", {{"X-Session", "s-404"}}, kExistsSql).status, 404);
}

TEST_F(ServerIntegrationTest, ExplainReturnsAnnotatedPlanText) {
  const HttpResponse response = Post("/explain", {}, kExistsSql);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "text/plain");
  EXPECT_NE(response.body.find("GMDJ["), std::string::npos);
  EXPECT_NE(response.body.find("stats:"), std::string::npos);
}

TEST_F(ServerIntegrationTest, SessionMemoryLimitIsolatesTenants) {
  // Tenant A: 64-byte standing budget. Tenant B: unlimited.
  const HttpResponse a =
      Post("/session", {{"X-Mem-Budget-Bytes", "64"}}, "");
  ASSERT_EQ(a.status, 200);
  const size_t key = a.body.find("\"session\": \"");
  ASSERT_NE(key, std::string::npos);
  const size_t start = key + 12;
  const std::string a_id =
      a.body.substr(start, a.body.find('"', start) - start);
  const HttpResponse b = Post("/session", {}, "");
  ASSERT_EQ(b.status, 200);

  // A's query trips its session budget with a structured error...
  const HttpResponse rejected =
      Post("/query", {{"X-Session", a_id}}, kExistsSql);
  EXPECT_EQ(rejected.status, 429);
  EXPECT_NE(rejected.body.find("\"code\": \"ResourceExhausted\""),
            std::string::npos);

  // ...while the anonymous session and a per-request override both
  // still succeed with correct rows.
  const HttpResponse ok = Post("/query", {{"X-Format", "tsv"}}, kExistsSql);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, DirectTsv(kExistsSql));
  const HttpResponse overridden =
      Post("/query", {{"X-Session", a_id},
                      {"X-Mem-Budget-Bytes", "1073741824"},
                      {"X-Format", "tsv"}},
           kExistsSql);
  EXPECT_EQ(overridden.status, 200);
  EXPECT_EQ(overridden.body, DirectTsv(kExistsSql));
}

TEST_F(ServerIntegrationTest, ConcurrentClientsGetIdenticalRows) {
  const std::string expected = DirectTsv(kExistsSql);
  constexpr int kClients = 8;
  constexpr int kRequests = 10;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
      for (int i = 0; i < kRequests; ++i) {
        auto response = client.Request("POST", "/query",
                                       {{"X-Format", "tsv"}}, kExistsSql);
        if (!response.ok() || response->status != 200 ||
            response->body != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // The run must have exercised the server counters.
  auto metrics = client_.Request("GET", "/metrics", {}, "");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("\"server.requests_accepted\""),
            std::string::npos);
}

TEST_F(ServerIntegrationTest, SnapshotStatementsRejectedOverHttp) {
  // SAVE/RESTORE SNAPSHOT read/write server-local paths and swap catalog
  // tables under live queries; they must stay local-surface only.
  const HttpResponse save =
      Post("/query", {}, "SAVE SNAPSHOT '/tmp/gmdj-net-snap'");
  EXPECT_EQ(save.status, 403);
  EXPECT_NE(save.body.find("not served over HTTP"), std::string::npos);
  EXPECT_EQ(Post("/query", {}, "RESTORE SNAPSHOT '/etc'").status, 403);
  // /explain prepends EXPLAIN ANALYZE, behind which snapshot statements
  // do not parse — that surface answers 400, never executes.
  EXPECT_EQ(Post("/explain", {}, "SAVE SNAPSHOT '/tmp/x'").status, 400);
}

TEST_F(ServerIntegrationTest, SessionGaugeSeriesAreBounded) {
  // Mint more sessions than the per-id gauge cap (64, including the
  // anonymous session): /metrics must publish per-id series for the
  // first 64 only, so a burst of hostile session minting cannot grow
  // the registry faster than the idle TTL reclaims it.
  for (int i = 0; i < 70; ++i) ASSERT_EQ(Post("/session", {}, "").status, 200);
  auto metrics = client_.Request("GET", "/metrics", {}, "");
  ASSERT_TRUE(metrics.ok());
  // The anonymous session is listed first, so it is always published;
  // which 63 named sessions fill the remaining slots is unspecified, so
  // count series instead: 64 published ids x 4 gauges each.
  EXPECT_NE(metrics->body.find("\"server.session.anonymous.connections\""),
            std::string::npos);
  size_t series = 0;
  for (size_t at = metrics->body.find("\"server.session.");
       at != std::string::npos;
       at = metrics->body.find("\"server.session.", at + 1)) {
    ++series;
  }
  EXPECT_EQ(series, 64u * 4u);
}

TEST_F(ServerIntegrationTest, InsertExecutesInlineAndIsVisibleToQueries) {
  engine_.catalog()->PutTable(
      "t", testutil::MakeTable({"t.a:i", "t.b:s"}, {}));
  const HttpResponse inserted =
      Post("/query", {}, "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  EXPECT_EQ(inserted.status, 200);
  EXPECT_NE(inserted.body.find("\"inserted\": 2"), std::string::npos);
  EXPECT_NE(inserted.body.find("\"table\": \"t\""), std::string::npos);

  const HttpResponse rows =
      Post("/query", {{"X-Format", "tsv"}}, "SELECT * FROM t WHERE t.a = 2");
  EXPECT_EQ(rows.status, 200);
  EXPECT_NE(rows.body.find("y"), std::string::npos);

  // Typed failures: unknown table is 404, arity mismatch is 400 (and
  // rejected atomically — nothing was appended).
  EXPECT_EQ(Post("/query", {}, "INSERT INTO nope VALUES (1, 'x')").status,
            404);
  EXPECT_EQ(Post("/query", {}, "INSERT INTO t VALUES (3)").status, 400);
  const HttpResponse after =
      Post("/query", {{"X-Format", "tsv"}}, "SELECT * FROM t");
  EXPECT_EQ(after.status, 200);
  // Header line + exactly the two committed rows: the rejected inserts
  // left nothing behind.
  EXPECT_EQ(static_cast<int>(std::count(after.body.begin(), after.body.end(),
                                        '\n')),
            3);
}

TEST_F(ServerIntegrationTest, SumOverAStringIs400AndTheServerKeepsServing) {
  engine_.catalog()->PutTable(
      "S", testutil::MakeTable({"S.k:i", "S.name:s"}, {{1, "x"}, {2, "y"}}));
  // The second argument binds STRING (its CASE's other branch is NULL);
  // the third mixes an INT64 and a STRING branch, which CASE refuses.
  const struct {
    const char* arg;
    const char* error;
  } kCases[] = {
      {"S.name", "not STRING"},
      {"CASE WHEN S.k > 1 THEN NULL ELSE S.name END", "not STRING"},
      {"CASE WHEN S.k > 1 THEN 1 ELSE S.name END",
       "mixes STRING and numeric branches"}};
  for (const auto& c : kCases) {
    const HttpResponse rejected =
        Post("/query", {},
             std::string("SELECT * FROM Hours H WHERE H.StartInterval > "
                         "(SELECT SUM(") +
                 c.arg + ") FROM S S WHERE S.k = H.StartInterval)");
    EXPECT_EQ(rejected.status, 400) << c.arg;
    EXPECT_NE(rejected.body.find("\"code\": \"InvalidArgument\""),
              std::string::npos);
    EXPECT_NE(rejected.body.find(c.error), std::string::npos)
        << rejected.body;
  }

  // The same connection and server answer the next query.
  const HttpResponse ok = Post("/query", {{"X-Format", "tsv"}}, kExistsSql);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, DirectTsv(kExistsSql));
}

TEST_F(ServerIntegrationTest, StringArithmeticIs400AndTheServerKeepsServing) {
  engine_.catalog()->PutTable(
      "S", testutil::MakeTable({"S.k:i", "S.name:s"}, {{1, "x"}, {2, "y"}}));
  const HttpResponse rejected =
      Post("/query", {},
           "SELECT * FROM Hours H WHERE H.StartInterval < (SELECT "
           "MAX(S.name * 2) FROM S S WHERE S.k = H.StartInterval)");
  EXPECT_EQ(rejected.status, 400);
  EXPECT_NE(rejected.body.find("\"code\": \"InvalidArgument\""),
            std::string::npos);
  EXPECT_NE(rejected.body.find("not STRING"), std::string::npos)
      << rejected.body;

  // The same connection and server answer the next query.
  const HttpResponse ok = Post("/query", {{"X-Format", "tsv"}}, kExistsSql);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, DirectTsv(kExistsSql));
}

TEST_F(ServerIntegrationTest, OversizedRequestLineAndHeadersAnswer431) {
  // Request line past the 8 KiB cap: typed 431, connection closed.
  const std::string long_target = "/" + std::string(9 * 1024, 'x');
  auto line = client_.Request("POST", long_target, {}, "");
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->status, 431);
  EXPECT_NE(line->body.find("request line too large"), std::string::npos);

  // Header block past the 64 KiB cap (the value alone overflows it).
  ASSERT_TRUE(client_.Connect("127.0.0.1", server_.port()).ok());
  auto head = client_.Request("POST", "/query",
                              {{"X-Big", std::string(66 * 1024, 'h')}}, "");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->status, 431);
  EXPECT_NE(head->body.find("request head too large"), std::string::npos);

  // Reconnect: the server is healthy, only those connections died.
  ASSERT_TRUE(client_.Connect("127.0.0.1", server_.port()).ok());
  EXPECT_EQ(Post("/query", {{"X-Format", "tsv"}}, kExistsSql).status, 200);
}

TEST_F(ServerIntegrationTest, ConfigTogglesCacheWhenIdleOnly) {
  const HttpResponse off = Post("/config", {{"X-Mqo-Cache", "off"}}, "");
  EXPECT_EQ(off.status, 200);
  EXPECT_NE(off.body.find("\"mqo_cache\": false"), std::string::npos);
  EXPECT_EQ(engine_.agg_cache(), nullptr);
  const HttpResponse on = Post("/config", {{"X-Mqo-Cache", "on"}}, "");
  EXPECT_EQ(on.status, 200);
  EXPECT_NE(engine_.agg_cache(), nullptr);
  EXPECT_EQ(Post("/config", {{"X-Mqo-Cache", "weird"}}, "").status, 400);
}

TEST_F(ServerIntegrationTest, ShutdownEndpointDrainsAndRejectsNewWork) {
  const HttpResponse draining = Post("/shutdown", {}, "");
  EXPECT_EQ(draining.status, 200);
  server_.Wait();
  EXPECT_TRUE(server_.draining());
  // New connections are refused once the acceptor is gone.
  HttpClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server_.port()).ok());
}

}  // namespace
}  // namespace server
}  // namespace gmdj
