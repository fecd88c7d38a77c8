// serve_load: closed-loop load driver for the query server (gmdj_serve).
//
// N client threads each hold one keep-alive connection and replay a
// deterministic query mix back-to-back (closed loop: next request leaves
// when the previous response lands). Every response is checked for
// row-equality against a local engine holding the same seeded warehouse,
// so a run doubles as an end-to-end correctness sweep — the server's
// admitted path (with or without the MQO cache) must answer
// byte-identically to a direct OlapEngine::Execute.
//
// Output: one JSON line per run,
//   {"bench": "serve_load", "clients": 16, "mqo_cache": "on",
//    "requests": 1234, "errors": 0,
//    "mismatches": 0, "throttled": 0, "qps": 410.2, "p50_us": ...,
//    "p99_us": ..., "p999_us": ...}
//
// Flags:
//   --host=127.0.0.1 --port=8080   server to drive
//   --clients=16 --seconds=5       closed-loop shape (or --requests=N
//                                  per client, overriding --seconds)
//   --mqo-cache=on|off             POST /config before the run (default:
//                                  leave the server's setting alone)
//   --strategy=gmdj-optimized      X-Strategy on every request
//   --warehouse-scale=X            must match the server's flag (local
//                                  verification engine)
//   --no-check                     skip row-equality (pure throughput)
//   --retries=N                    retry overload (429/503) and transport
//                                  failures up to N times with capped
//                                  exponential backoff + jitter, honoring
//                                  Retry-After (queries only — they are
//                                  read-only, hence idempotent)
//   --smoke                        2s run + per-session governance
//                                  isolation checks; exit nonzero on any
//                                  error/mismatch or zero QPS
//   --expect-spill                 the server runs with --spill-dir: the
//                                  smoke probe expects tight budgets to
//                                  degrade (200, identical rows) and only
//                                  sub-row budgets to be 429-rejected
//
// Exit code: 0 iff the run completed with zero transport errors, zero
// row mismatches, nonzero QPS, and (under --smoke) the governance
// isolation checks passed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "engine/olap_engine.h"
#include "server/http_client.h"
#include "server/wire.h"
#include "sql/parser.h"
#include "workload/warehouse.h"

namespace gmdj {
namespace {

struct Args {
  std::string host = "127.0.0.1";
  int port = 8080;
  int clients = 16;
  double seconds = 5.0;
  int requests = 0;  // Per client; 0 = run for --seconds.
  std::string mqo_cache;  // "", "on", "off".
  std::string strategy = "gmdj-optimized";
  double warehouse_scale = 1.0;
  bool check = true;
  bool smoke = false;
  bool expect_spill = false;
  int retries = 0;  // Extra attempts per idempotent request.
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--host=", 7) == 0) {
      args.host = arg + 7;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      args.port = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--clients=", 10) == 0) {
      args.clients = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--seconds=", 10) == 0) {
      args.seconds = std::atof(arg + 10);
    } else if (std::strncmp(arg, "--requests=", 11) == 0) {
      args.requests = std::atoi(arg + 11);
    } else if (std::strncmp(arg, "--mqo-cache=", 12) == 0) {
      args.mqo_cache = arg + 12;
    } else if (std::strncmp(arg, "--strategy=", 11) == 0) {
      args.strategy = arg + 11;
    } else if (std::strncmp(arg, "--warehouse-scale=", 18) == 0) {
      args.warehouse_scale = std::atof(arg + 18);
    } else if (std::strncmp(arg, "--retries=", 10) == 0) {
      args.retries = std::atoi(arg + 10);
    } else if (std::strcmp(arg, "--no-check") == 0) {
      args.check = false;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      args.smoke = true;
      args.seconds = 2.0;
    } else if (std::strcmp(arg, "--expect-spill") == 0) {
      args.expect_spill = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      std::exit(2);
    }
  }
  return args;
}

/// The replayed mix: plain filtered selects over both warehouse schemas.
/// All are GMDJ subquery shapes except the last (a bare scan), so a
/// multi-client run exercises concurrent GMDJ execution, the MQO
/// cache, and the single-query path at once.
std::vector<std::string> QueryMix() {
  return {
      "SELECT * FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE "
      "F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval AND "
      "F.NumBytes > 1500000)",
      "SELECT * FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE "
      "F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval AND "
      "F.NumBytes > 2500000)",
      "SELECT * FROM Hours H WHERE 900000000 < (SELECT SUM(F.NumBytes) "
      "FROM Flow F WHERE F.StartTime >= H.StartInterval AND F.StartTime < "
      "H.EndInterval)",
      "SELECT * FROM customer C WHERE EXISTS (SELECT * FROM orders O WHERE "
      "O.o_custkey = C.c_custkey AND O.o_totalprice > 99000)",
      "SELECT * FROM Flow F WHERE F.NumBytes > 999000",
  };
}

struct ClientStats {
  std::vector<uint64_t> latencies_us;
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t mismatches = 0;
  uint64_t throttled = 0;  // 503 admission rejections (back-pressure).
};

uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

/// One request/response against the server; returns the HTTP status or
/// -1 on a transport error (after which the client reconnects). With
/// --retries and `idempotent`, overload responses and transport errors
/// are retried (reconnecting as needed) before the verdict lands.
int Post(server::HttpClient* client, const Args& args,
         const std::string& target,
         std::vector<std::pair<std::string, std::string>> headers,
         const std::string& body, std::string* response_body,
         bool idempotent = false) {
  server::RetryPolicy policy;
  policy.max_attempts = args.retries + 1;
  Result<server::HttpResponse> response =
      args.retries > 0 ? client->RequestWithRetry("POST", target, headers,
                                                  body, idempotent, policy)
                       : client->Request("POST", target, headers, body);
  if (!response.ok()) {
    client->Connect(args.host, args.port);
    return -1;
  }
  if (response_body != nullptr) *response_body = response->body;
  return response->status;
}

void ClientLoop(const Args& args, int client_id,
                const std::vector<std::string>& mix,
                const std::vector<std::string>& expected,
                std::chrono::steady_clock::time_point end_time,
                ClientStats* stats) {
  server::HttpClient client;
  if (!client.Connect(args.host, args.port).ok()) {
    stats->errors += 1;
    return;
  }

  // Each client is its own tenant: a fresh session (default limits).
  std::string session_id;
  {
    std::string body;
    if (Post(&client, args, "/session", {}, "", &body) == 200) {
      const size_t key = body.find("\"session\": \"");
      if (key != std::string::npos) {
        const size_t start = key + 12;
        session_id = body.substr(start, body.find('"', start) - start);
      }
    }
  }

  const std::vector<std::pair<std::string, std::string>> headers = {
      {"X-Format", "tsv"},
      {"X-Strategy", args.strategy},
      {"X-Session", session_id},
  };

  for (int i = 0; args.requests > 0
                      ? i < args.requests
                      : std::chrono::steady_clock::now() < end_time;
       ++i) {
    const size_t q = (static_cast<size_t>(client_id) + i) % mix.size();
    std::string body;
    const auto started = std::chrono::steady_clock::now();
    const int status = Post(&client, args, "/query", headers, mix[q], &body,
                            /*idempotent=*/true);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - started);
    if (status == 200) {
      stats->requests += 1;
      stats->latencies_us.push_back(static_cast<uint64_t>(elapsed.count()));
      if (args.check && body != expected[q]) stats->mismatches += 1;
    } else if (status == 503) {
      stats->throttled += 1;
    } else {
      stats->errors += 1;
    }
  }
}

/// --smoke extra: per-session governance isolation. A session created
/// with a starvation memory budget must get a structured
/// ResourceExhausted rejection, while a concurrent unlimited session
/// keeps getting correct rows. With --expect-spill (the server has a
/// spill dir), a merely-tight budget must instead *degrade* — 200 with
/// the identical rows — and only a budget below a single row's working
/// share still earns the 429. Returns the number of check failures.
int GovernanceIsolationCheck(const Args& args,
                             const std::vector<std::string>& mix,
                             const std::vector<std::string>& expected) {
  int failures = 0;
  server::HttpClient starved, roomy, tight;
  if (!starved.Connect(args.host, args.port).ok() ||
      !roomy.Connect(args.host, args.port).ok() ||
      (args.expect_spill && !tight.Connect(args.host, args.port).ok())) {
    std::fprintf(stderr, "smoke: connect failed\n");
    return 1;
  }

  auto make_session = [&](server::HttpClient* client,
                          std::vector<std::pair<std::string, std::string>>
                              headers) {
    std::string body;
    Post(client, args, "/session", std::move(headers), "", &body);
    const size_t key = body.find("\"session\": \"");
    const size_t start = key + 12;
    return key == std::string::npos
               ? std::string()
               : body.substr(start, body.find('"', start) - start);
  };
  // Without spill, 2 KB starves any query outright. With spill the same
  // budget degrades to multi-pass execution, so the hard-rejection probe
  // drops below even one base row's share (a 16-byte budget cannot admit
  // the first hash-index slot no matter how finely the input splits).
  const std::string starved_id = make_session(
      &starved, {{"X-Mem-Budget-Bytes", args.expect_spill ? "16" : "2048"}});
  const std::string roomy_id = make_session(&roomy, {});
  const std::string tight_id =
      args.expect_spill
          ? make_session(&tight, {{"X-Mem-Budget-Bytes", "2048"}})
          : std::string();

  const std::string& query = mix[0];
  for (int round = 0; round < 3; ++round) {
    // The roomy session keeps succeeding with correct rows...
    std::string body;
    int status = Post(&roomy, args, "/query",
                      {{"X-Format", "tsv"},
                       {"X-Strategy", args.strategy},
                       {"X-Session", roomy_id}},
                      query, &body);
    if (status != 200 || (args.check && body != expected[0])) {
      std::fprintf(stderr, "smoke: roomy session failed (status %d)\n",
                   status);
      ++failures;
    }
    // ...while the starved one is rejected with a structured error that
    // names the code (session default limit, no per-request override).
    status = Post(&starved, args, "/query",
                  {{"X-Strategy", args.strategy}, {"X-Session", starved_id}},
                  query, &body);
    if (status != 429 ||
        body.find("\"code\": \"ResourceExhausted\"") == std::string::npos) {
      std::fprintf(stderr,
                   "smoke: starved session not rejected (status %d): %s\n",
                   status, body.c_str());
      ++failures;
    }
    // ...and a tight-but-spillable session gets the full correct answer
    // rather than a rejection: graceful degradation, end to end.
    if (args.expect_spill) {
      status = Post(&tight, args, "/query",
                    {{"X-Format", "tsv"},
                     {"X-Strategy", args.strategy},
                     {"X-Session", tight_id}},
                    query, &body);
      if (status != 200 || (args.check && body != expected[0])) {
        std::fprintf(stderr,
                     "smoke: tight session did not degrade via spill "
                     "(status %d): %s\n",
                     status, body.c_str());
        ++failures;
      }
    }
  }
  return failures;
}

int Run(const Args& args) {
  const std::vector<std::string> mix = QueryMix();

  // Local verification engine: same seeded warehouse, direct Execute.
  std::vector<std::string> expected(mix.size());
  Strategy strategy = Strategy::kGmdjOptimized;
  if (args.check) {
    for (const Strategy s : AllStrategies()) {
      if (args.strategy == StrategyToString(s)) strategy = s;
    }
    OlapEngine local;
    WarehouseConfig warehouse;
    warehouse.scale = args.warehouse_scale;
    LoadDefaultWarehouse(local.catalog(), warehouse);
    for (size_t i = 0; i < mix.size(); ++i) {
      auto statement = ParseStatement(mix[i]);
      if (!statement.ok()) {
        std::fprintf(stderr, "bad mix query: %s\n",
                     statement.status().message().c_str());
        return 2;
      }
      auto result = local.Execute(*statement->select, strategy);
      if (!result.ok()) {
        std::fprintf(stderr, "local execute failed: %s\n",
                     result.status().message().c_str());
        return 2;
      }
      expected[i] = server::TableToTsv(*result);
    }
  }

  // Optional /config round (idle server assumed — do this before load).
  std::string config_echo;
  if (!args.mqo_cache.empty()) {
    server::HttpClient admin;
    if (!admin.Connect(args.host, args.port).ok()) {
      std::fprintf(stderr, "cannot connect to %s:%d\n", args.host.c_str(),
                   args.port);
      return 2;
    }
    std::vector<std::pair<std::string, std::string>> headers = {
        {"X-Mqo-Cache", args.mqo_cache}};
    const int status =
        Post(&admin, args, "/config", headers, "", &config_echo);
    if (status != 200) {
      std::fprintf(stderr, "/config failed (%d): %s\n", status,
                   config_echo.c_str());
      return 2;
    }
  }

  // The closed loop.
  std::vector<ClientStats> stats(static_cast<size_t>(args.clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(args.clients));
  const auto started = std::chrono::steady_clock::now();
  const auto end_time =
      started + std::chrono::microseconds(
                    static_cast<int64_t>(args.seconds * 1e6));
  for (int c = 0; c < args.clients; ++c) {
    threads.emplace_back(ClientLoop, std::cref(args), c, std::cref(mix),
                         std::cref(expected), end_time,
                         &stats[static_cast<size_t>(c)]);
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  // Merge + report.
  uint64_t requests = 0, errors = 0, mismatches = 0, throttled = 0;
  std::vector<uint64_t> latencies;
  for (const ClientStats& s : stats) {
    requests += s.requests;
    errors += s.errors;
    mismatches += s.mismatches;
    throttled += s.throttled;
    latencies.insert(latencies.end(), s.latencies_us.begin(),
                     s.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double qps = wall_s > 0 ? static_cast<double>(requests) / wall_s : 0;

  std::printf(
      "{\"bench\": \"serve_load\", \"clients\": %d, \"seconds\": %.2f, "
      "\"mqo_cache\": \"%s\", "
      "\"strategy\": \"%s\", \"check\": %s, \"requests\": %llu, "
      "\"errors\": %llu, \"mismatches\": %llu, \"throttled\": %llu, "
      "\"qps\": %.1f, \"p50_us\": %llu, \"p99_us\": %llu, "
      "\"p999_us\": %llu}\n",
      args.clients, wall_s,
      args.mqo_cache.empty() ? "keep" : args.mqo_cache.c_str(),
      args.strategy.c_str(),
      args.check ? "true" : "false",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(throttled), qps,
      static_cast<unsigned long long>(Percentile(latencies, 0.50)),
      static_cast<unsigned long long>(Percentile(latencies, 0.99)),
      static_cast<unsigned long long>(Percentile(latencies, 0.999)));
  std::fflush(stdout);

  int failures = 0;
  if (args.smoke) failures += GovernanceIsolationCheck(args, mix, expected);
  if (errors > 0 || mismatches > 0 || requests == 0) failures += 1;
  if (failures > 0) {
    std::fprintf(stderr,
                 "serve_load: FAILED (errors=%llu mismatches=%llu "
                 "requests=%llu smoke_failures=%d)\n",
                 static_cast<unsigned long long>(errors),
                 static_cast<unsigned long long>(mismatches),
                 static_cast<unsigned long long>(requests), failures);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace gmdj

int main(int argc, char** argv) {
  return gmdj::Run(gmdj::ParseArgs(argc, argv));
}
