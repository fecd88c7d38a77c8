#include "obs/trace.h"

#include <string>
#include <vector>

#include "common/str_util.h"
#include "gtest/gtest.h"
#include "obs/clock.h"

namespace gmdj {
namespace obs {
namespace {

TEST(FakeClockTest, Advances) {
  FakeClock clock;
  EXPECT_EQ(clock.NowNanos(), 0u);
  clock.AdvanceNanos(5);
  EXPECT_EQ(clock.NowNanos(), 5u);
  clock.AdvanceMicros(2);
  EXPECT_EQ(clock.NowNanos(), 2'005u);
  clock.AdvanceMillis(1);
  EXPECT_EQ(clock.NowNanos(), 1'002'005u);
}

TEST(SpanTracerTest, NestingDepthsAndExactDurations) {
  FakeClock clock;
  SpanTracer tracer(&clock);

  const uint32_t query = tracer.Start("query");
  clock.AdvanceNanos(10);
  const uint32_t gmdj = tracer.Start("gmdj", query);
  clock.AdvanceNanos(100);
  const uint32_t scan = tracer.Start("scan", gmdj);
  clock.AdvanceNanos(7);
  tracer.End(scan);
  tracer.End(gmdj);
  clock.AdvanceNanos(3);
  tracer.End(query);

  const std::vector<SpanRecord> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 3u);
  // Finish order: scan, gmdj, query.
  EXPECT_EQ(recent[0].name, "scan");
  EXPECT_EQ(recent[0].depth, 2u);
  EXPECT_EQ(recent[0].parent, gmdj);
  EXPECT_EQ(recent[0].duration_nanos(), 7u);
  EXPECT_EQ(recent[1].name, "gmdj");
  EXPECT_EQ(recent[1].depth, 1u);
  EXPECT_EQ(recent[1].parent, query);
  EXPECT_EQ(recent[1].duration_nanos(), 107u);
  EXPECT_EQ(recent[2].name, "query");
  EXPECT_EQ(recent[2].depth, 0u);
  EXPECT_EQ(recent[2].parent, SpanTracer::kNoSpan);
  EXPECT_EQ(recent[2].duration_nanos(), 120u);
  EXPECT_TRUE(tracer.Open().empty());
}

TEST(SpanTracerTest, SetDetailAndEvent) {
  FakeClock clock;
  SpanTracer tracer(&clock);
  const uint32_t span = tracer.Start("op");
  tracer.SetDetail(span, "rows=42");
  tracer.Event("fault:gmdj/expr-compile", "GMDJ[...]", span);
  tracer.End(span);

  const std::vector<SpanRecord> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].name, "fault:gmdj/expr-compile");
  EXPECT_EQ(recent[0].detail, "GMDJ[...]");
  EXPECT_EQ(recent[0].parent, span);
  EXPECT_EQ(recent[0].depth, 1u);
  EXPECT_EQ(recent[0].duration_nanos(), 0u);
  EXPECT_EQ(recent[1].detail, "rows=42");
}

TEST(SpanTracerTest, RingOverwritesOldestFirst) {
  FakeClock clock;
  SpanTracer tracer(&clock, /*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    const uint32_t span = tracer.Start(StrCat({"s", std::to_string(i)}));
    clock.AdvanceNanos(1);
    tracer.End(span);
  }
  const std::vector<SpanRecord> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].name, "s2");
  EXPECT_EQ(recent[1].name, "s3");
  EXPECT_EQ(recent[2].name, "s4");
}

TEST(SpanTracerTest, DumpIsDeterministicUnderFakeClock) {
  FakeClock clock;
  clock.AdvanceNanos(1000);  // Nonzero base: Dump must render relative.
  SpanTracer tracer(&clock);
  const uint32_t query = tracer.Start("query", SpanTracer::kNoSpan, "gmdj");
  clock.AdvanceNanos(10);
  const uint32_t op = tracer.Start("op", query);
  clock.AdvanceNanos(5);
  tracer.End(op);

  EXPECT_EQ(tracer.Dump(),
            "flight recorder (1 open, 1 recent)\n"
            "  * query [gmdj] @0ns (open)\n"
            "    - op @10ns +5ns\n");

  tracer.Clear();
  EXPECT_EQ(tracer.Dump(), "flight recorder (0 open, 0 recent)\n");
}

TEST(SpanTracerTest, EndingUnknownParentFallsBackToDepthZero) {
  FakeClock clock;
  SpanTracer tracer(&clock);
  const uint32_t parent = tracer.Start("parent");
  tracer.End(parent);
  // Parent already finished: child still records, at depth 0.
  const uint32_t child = tracer.Start("child", parent);
  tracer.End(child);
  const std::vector<SpanRecord> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[1].name, "child");
  EXPECT_EQ(recent[1].depth, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace gmdj
