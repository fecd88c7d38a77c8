// SpillManager/SpillScope: per-query directories, byte and handle
// budgets, metric feeds, and litter-free cleanup (spill_manager.h).

#include "spill/spill_manager.h"

#include <sys/stat.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "types/value.h"

namespace gmdj {
namespace spill {
namespace {

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string TestDir(const std::string& name) {
  return ::testing::TempDir() + "/gmdj_spill_manager_test_" + name;
}

Table MakeRows(int n) {
  Table rows = testutil::MakeTable({"a", "b:s"}, {});
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(rows.AppendRow({Value(i), Value("row-" + std::to_string(i))})
                    .ok());
  }
  return rows;
}

TEST(SpillManagerTest, WriterReaderRoundTripThroughScope) {
  SpillConfig config;
  config.dir = TestDir("roundtrip");
  config.block_rows = 16;  // Several blocks for 100 rows.
  SpillManager manager(config);
  auto scope = manager.CreateScope("q1");

  auto writer_or = scope->NewWriter("part");
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  auto writer = std::move(writer_or).ValueOrDie();
  const Table rows = MakeRows(100);
  ASSERT_TRUE(writer->AppendTable(rows).ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->rows_written(), 100u);
  EXPECT_GE(writer->blocks_written(), 100u / 16u);
  EXPECT_GT(scope->bytes_written(), 0u);
  EXPECT_EQ(manager.bytes_in_use(), scope->bytes_written());

  auto reader_or = scope->OpenReader(writer->path());
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  Table read_back(rows.schema());
  ASSERT_TRUE((*reader_or)->ReadInto(&read_back).ok());
  ASSERT_EQ(read_back.num_rows(), rows.num_rows());
  for (size_t i = 0; i < rows.num_rows(); ++i) {
    EXPECT_TRUE(read_back.row(i) == rows.row(i)) << "row " << i;
  }
  EXPECT_EQ(scope->bytes_read(), scope->bytes_written());
}

TEST(SpillManagerTest, ScopeDestructionRemovesFilesAndReleasesBytes) {
  SpillConfig config;
  config.dir = TestDir("cleanup");
  SpillManager manager(config);
  std::string file_path;
  std::string scope_dir;
  {
    auto scope = manager.CreateScope("q1");
    auto writer = std::move(scope->NewWriter("part")).ValueOrDie();
    ASSERT_TRUE(writer->AppendTable(MakeRows(10)).ok());
    ASSERT_TRUE(writer->Finish().ok());
    file_path = writer->path();
    scope_dir = scope->dir();
    writer.reset();  // Close before the scope unlinks.
    EXPECT_TRUE(PathExists(file_path));
    EXPECT_GT(manager.bytes_in_use(), 0u);
  }
  EXPECT_FALSE(PathExists(file_path));
  EXPECT_FALSE(PathExists(scope_dir));
  EXPECT_EQ(manager.bytes_in_use(), 0u);
  EXPECT_EQ(manager.open_files(), 0u);
}

TEST(SpillManagerTest, ByteBudgetRejectsLikeFullDisk) {
  SpillConfig config;
  config.dir = TestDir("budget");
  config.max_bytes = 256;  // Far below one block of 100 rows.
  config.block_rows = 64;
  obs::MetricRegistry metrics;
  SpillManager manager(config, &metrics);
  auto scope = manager.CreateScope("q1");
  auto writer = std::move(scope->NewWriter("part")).ValueOrDie();
  Status status = writer->AppendTable(MakeRows(1000));
  if (status.ok()) status = writer->Finish();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(metrics.GetCounter("spill.budget_rejections")->Total(), 1u);
}

TEST(SpillManagerTest, HandleBudgetIsEnforcedAndReleased) {
  SpillConfig config;
  config.dir = TestDir("handles");
  config.max_open_files = 2;
  SpillManager manager(config);
  auto scope = manager.CreateScope("q1");
  auto w1 = std::move(scope->NewWriter("a")).ValueOrDie();
  auto w2 = std::move(scope->NewWriter("b")).ValueOrDie();
  EXPECT_EQ(manager.open_files(), 2u);
  auto w3 = scope->NewWriter("c");
  ASSERT_FALSE(w3.ok());
  EXPECT_EQ(w3.status().code(), StatusCode::kResourceExhausted);
  // Closing one writer frees its handle for the next.
  ASSERT_TRUE(w1->Finish().ok());
  w1.reset();
  EXPECT_EQ(manager.open_files(), 1u);
  auto w4 = scope->NewWriter("d");
  EXPECT_TRUE(w4.ok()) << w4.status().ToString();
}

TEST(SpillManagerTest, MetricsFeedRegistry) {
  SpillConfig config;
  config.dir = TestDir("metrics");
  config.block_rows = 8;
  obs::MetricRegistry metrics;
  SpillManager manager(config, &metrics);
  auto scope = manager.CreateScope("q1");
  auto writer = std::move(scope->NewWriter("part")).ValueOrDie();
  const Table rows = MakeRows(32);
  ASSERT_TRUE(writer->AppendTable(rows).ok());
  ASSERT_TRUE(writer->Finish().ok());
  Table out(rows.schema());
  ASSERT_TRUE((*scope->OpenReader(writer->path()))->ReadInto(&out).ok());
  scope->NoteSpill(/*partitions=*/4, /*passes=*/4);
  scope->NoteSpill(/*partitions=*/2, /*passes=*/2);

  EXPECT_GT(metrics.GetCounter("spill.bytes_written")->Total(), 0u);
  EXPECT_GT(metrics.GetCounter("spill.bytes_read")->Total(), 0u);
  EXPECT_GE(metrics.GetCounter("spill.blocks_written")->Total(), 4u);
  EXPECT_GE(metrics.GetCounter("spill.files_created")->Total(), 1u);
  EXPECT_EQ(metrics.GetCounter("spill.partitions")->Total(), 6u);
  EXPECT_EQ(metrics.GetCounter("spill.passes")->Total(), 6u);
  // Two NoteSpill calls, one query: spill.queries counts queries.
  EXPECT_EQ(metrics.GetCounter("spill.queries")->Total(), 1u);
}

TEST(SpillManagerTest, ScopeDirectoriesAreUniqueAndSanitized) {
  SpillConfig config;
  config.dir = TestDir("labels");
  SpillManager manager(config);
  auto s1 = manager.CreateScope("gmdj-optimized");
  auto s2 = manager.CreateScope("gmdj-optimized");
  EXPECT_NE(s1->dir(), s2->dir());
  auto weird = manager.CreateScope("../../etc/passwd");
  EXPECT_EQ(weird->dir().find(".."), std::string::npos);
  EXPECT_EQ(weird->dir().rfind(config.dir, 0), 0u)
      << "scope dir escaped the spill root: " << weird->dir();
}

TEST(SpillManagerTest, DiskFullFaultSurfacesAsResourceExhausted) {
  FaultInjector::Global()->Reset();
  SpillConfig config;
  config.dir = TestDir("fault");
  config.block_rows = 4;
  SpillManager manager(config);
  auto scope = manager.CreateScope("q1");
  auto writer = std::move(scope->NewWriter("part")).ValueOrDie();
  FaultSpec spec;
  spec.kind = FaultKind::kAllocFail;
  FaultInjector::Global()->Arm("spill/disk-full", spec);
  Status status = writer->AppendTable(MakeRows(64));
  if (status.ok()) status = writer->Finish();
  FaultInjector::Global()->Reset();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(SpillManagerTest, ChecksumFaultSurfacesOnRead) {
  FaultInjector::Global()->Reset();
  SpillConfig config;
  config.dir = TestDir("checksum-fault");
  SpillManager manager(config);
  auto scope = manager.CreateScope("q1");
  auto writer = std::move(scope->NewWriter("part")).ValueOrDie();
  const Table rows = MakeRows(8);
  ASSERT_TRUE(writer->AppendTable(rows).ok());
  ASSERT_TRUE(writer->Finish().ok());
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kInternal;
  spec.message = "injected checksum mismatch";
  FaultInjector::Global()->Arm("spill/checksum", spec);
  Table out(rows.schema());
  const Status status = (*scope->OpenReader(writer->path()))->ReadInto(&out);
  FaultInjector::Global()->Reset();
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace spill
}  // namespace gmdj
