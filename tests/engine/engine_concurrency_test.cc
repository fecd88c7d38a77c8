// Concurrent governed execution on ONE engine: Execute / ExecuteSql with
// SessionLimits + caller-owned QueryRun racing cached `gmdj` runs, with
// the MQO cache enabled and the memory pool small enough that catalog reads
// race cache shedding. This is the TSan gate for the server's worker
// pool, which drives the engine exactly this way.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <chrono>
#include <cstdio>

#include "common/fault_injection.h"
#include "engine/olap_engine.h"
#include "governance/query_context.h"
#include "gtest/gtest.h"
#include "spill/journal.h"
#include "sql/parser.h"
#include "test_util.h"

namespace gmdj {
namespace {

const char* kExistsSql =
    "SELECT * FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE "
    "F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval)";

TEST(EngineConcurrencyTest, GovernedExecutePathsRaceSafelyWithCache) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  // Small cache + small pool: stores trigger LRU shedding while other
  // threads are mid-scan, exercising the reclaimer path under load.
  GmdjAggCacheConfig cache_config;
  cache_config.byte_budget = 4 * 1024;
  engine.EnableAggCache(cache_config);
  ExecConfig exec;
  exec.num_threads = 1;  // The concurrency under test is between queries.
  engine.set_exec_config(exec);

  auto statement = ParseStatement(kExistsSql);
  ASSERT_TRUE(statement.ok());
  const NestedSelect& query = *statement->select;

  // Sequential reference (legacy ungoverned path, before the races).
  Result<Table> reference = engine.Execute(query, Strategy::kGmdjOptimized);
  ASSERT_TRUE(reference.ok());

  constexpr int kThreadsPerKind = 3;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};

  auto check = [&](const Result<Table>& result) {
    if (!result.ok() || !testutil::SameRows(*result, *reference)) {
      failures.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  // Kind 1: governed Execute with per-call SessionLimits + QueryRun.
  for (int t = 0; t < kThreadsPerKind; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        SessionLimits session;
        session.deadline_ms = 30'000.0;
        QueryRun run;
        check(engine.Execute(query, Strategy::kGmdjOptimized, session, &run));
      }
    });
  }
  // Kind 2: governed ExecuteSql (parse + execute under limits).
  for (int t = 0; t < kThreadsPerKind; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        SessionLimits session;
        QueryRun run;
        check(engine.ExecuteSql(kExistsSql, Strategy::kGmdj, session, &run));
      }
    });
  }
  // Kind 3: the query twice per round under `gmdj`, whose GMDJs probe
  // and store the cache, racing the singles above through it.
  for (int t = 0; t < kThreadsPerKind; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        for (const Result<Table>& result :
             testutil::RunThroughCache(&engine, {&query, &query})) {
          check(result);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineConcurrencyTest, PerCallRunsStayIsolatedUnderRaces) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  engine.EnableAggCache();

  auto statement = ParseStatement(kExistsSql);
  ASSERT_TRUE(statement.ok());
  const NestedSelect& query = *statement->select;

  // One thread runs with a deadline so tight it may abort; others run
  // ungoverned. Aborts must never leak into the healthy callers' runs or
  // results — per-request isolation is what the server sells.
  std::atomic<int> healthy_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        SessionLimits session;
        QueryRun run;
        auto result =
            engine.Execute(query, Strategy::kGmdjOptimized, session, &run);
        if (!result.ok()) healthy_failures.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      SessionLimits session;
      session.deadline_ms = 0.0001;
      QueryRun run;
      // Either outcome is legal; only isolation matters.
      (void)engine.Execute(query, Strategy::kGmdjOptimized, session, &run);
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(healthy_failures.load(), 0);
}

// An INSERT holds the catalog lock exclusively only for its in-memory
// append: while it is parked inside the journal fsync (a delayed fault
// point), a read on another thread runs to completion.
TEST(EngineConcurrencyTest, ReadCompletesWhileInsertIsParkedInFsync) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  const std::string path =
      ::testing::TempDir() + "/gmdj_engine_concurrency_fsync.wal";
  std::remove(path.c_str());
  auto wal = spill::JournalWriter::Open(path, 0);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  engine.set_journal(wal->get());
  const Result<Table> before = engine.ExecuteSql(kExistsSql,
                                                 Strategy::kGmdjOptimized);
  ASSERT_TRUE(before.ok());

  FaultInjector::Global()->Reset();
  FaultSpec park;
  park.kind = FaultKind::kDelay;
  park.delay_micros = 3'000'000;
  park.max_fires = 1;
  FaultInjector::Global()->Arm("journal/fsync", park);

  std::atomic<bool> insert_done{false};
  Status inserted;
  std::thread writer([&] {
    inserted = engine.AppendRows(
        "Flow", {{Value("10.0.0.9"), Value("167.167.167.0"), Value("HTTP"),
                  Value(int64_t{170}), Value(int64_t{0})}});
    insert_done.store(true);
  });
  while (FaultInjector::Global()->hits("journal/fsync") == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The writer is inside its fsync now; the read must not wait for it.
  const Result<Table> read = engine.ExecuteSql(kExistsSql,
                                               Strategy::kGmdjOptimized);
  const bool insert_finished_first = insert_done.load();
  writer.join();
  FaultInjector::Global()->Reset();
  engine.set_journal(nullptr);
  std::remove(path.c_str());

  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(testutil::SameRows(*read, *before));
  EXPECT_FALSE(insert_finished_first);
  ASSERT_TRUE(inserted.ok()) << inserted.ToString();
  EXPECT_EQ((*engine.catalog()->GetTable("Flow"))->num_rows(), 7u);
}

}  // namespace
}  // namespace gmdj
