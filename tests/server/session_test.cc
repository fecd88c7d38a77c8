// Session governance: SessionLimits layering semantics and the
// thread-safe session registry backing the server's multi-tenancy.

#include <thread>
#include <vector>

#include "governance/query_context.h"
#include "gtest/gtest.h"
#include "server/session.h"

namespace gmdj {
namespace server {
namespace {

TEST(SessionLimitsTest, OverriddenLayersNonzeroFieldsOverDefaults) {
  SessionLimits defaults;
  defaults.deadline_ms = 1000.0;
  defaults.mem_budget_bytes = 1 << 20;
  defaults.num_threads = 2;

  SessionLimits request;  // All zero: inherit everything.
  SessionLimits merged = defaults.Overridden(request);
  EXPECT_EQ(merged.deadline_ms, 1000.0);
  EXPECT_EQ(merged.mem_budget_bytes, 1u << 20);
  EXPECT_EQ(merged.num_threads, 2u);

  request.deadline_ms = 50.0;  // Partial override.
  merged = defaults.Overridden(request);
  EXPECT_EQ(merged.deadline_ms, 50.0);
  EXPECT_EQ(merged.mem_budget_bytes, 1u << 20);
}

TEST(SessionLimitsTest, OverriddenAdoptsTheRequestToken) {
  SessionLimits defaults;
  SessionLimits request;
  const SessionLimits merged = defaults.Overridden(request);
  // Cancelling the request's token must cancel the merged limits (the
  // per-request disconnect path), and must NOT touch the session default
  // token shared with other requests.
  request.cancel.Cancel();
  EXPECT_TRUE(merged.cancel.cancelled());
  EXPECT_FALSE(defaults.cancel.cancelled());
}

TEST(SessionLimitsTest, ToQueryLimitsCopiesGovernanceFields) {
  SessionLimits session;
  session.deadline_ms = 123.0;
  session.mem_budget_bytes = 456;
  session.num_threads = 3;  // Must survive: QueryLimits carries it.
  const QueryLimits limits = session.ToQueryLimits();
  EXPECT_EQ(limits.deadline_ms, 123.0);
  EXPECT_EQ(limits.mem_budget_bytes, 456u);
  EXPECT_EQ(limits.num_threads, 3u);
  session.cancel.Cancel();
  EXPECT_TRUE(limits.cancel.cancelled());
}

TEST(SessionManagerTest, CreateAssignsSequentialIdsAndGetFinds) {
  SessionManager manager;
  SessionLimits defaults;
  defaults.deadline_ms = 5.0;
  const auto first = manager.Create(defaults);
  const auto second = manager.Create(SessionLimits());
  EXPECT_EQ(first->id(), "s-1");
  EXPECT_EQ(second->id(), "s-2");
  EXPECT_EQ(manager.size(), 2u);

  auto found = manager.Get("s-1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->defaults().deadline_ms, 5.0);
}

TEST(SessionManagerTest, EmptyIdIsAnonymousUnknownIdIsNotFound) {
  SessionManager manager;
  auto anonymous = manager.Get("");
  ASSERT_TRUE(anonymous.ok());
  EXPECT_EQ((*anonymous)->id(), "");

  auto missing = manager.Get("s-99");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(SessionManagerTest, ConcurrentDefaultsUpdatesAndReads) {
  SessionManager manager;
  auto session = manager.Create(SessionLimits());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&session, t] {
      for (int i = 0; i < 500; ++i) {
        SessionLimits limits;
        limits.deadline_ms = static_cast<double>(t * 1000 + i);
        limits.mem_budget_bytes = static_cast<size_t>(t * 1000 + i);
        session->set_defaults(limits);
        const SessionLimits seen = session->defaults();
        // Fields from one atomic update, never a torn mix.
        EXPECT_EQ(static_cast<size_t>(seen.deadline_ms),
                  seen.mem_budget_bytes);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace server
}  // namespace gmdj
