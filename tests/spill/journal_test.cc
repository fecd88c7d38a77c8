// Mutation journal (spill/journal.h): WAL-before-apply ordering, torn
// tail recovery, mid-file corruption refusal, and the snapshot+journal
// recovery contract (restore + replay == acknowledged state).

#include "spill/journal.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "spill/spill_format.h"
#include "test_util.h"

namespace gmdj {
namespace spill {
namespace {

std::string TestPath(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "/gmdj_journal_test_" + name + ".wal";
  std::remove(path.c_str());
  return path;
}

Row MakeRow(int64_t a, double b, const std::string& c) {
  Row row;
  row.push_back(Value(a));
  row.push_back(Value(b));
  row.push_back(Value(c));
  return row;
}

/// Registers the empty three-column table "t", ready for appends.
void FillCatalog(Catalog* catalog) {
  catalog->PutTable("t", testutil::MakeTable({"t.a:i", "t.b:d", "t.c:s"}, {}));
}

/// `rows` staged as typed columns of "t", as an INSERT journals them.
Table RowsOfT(const std::vector<Row>& rows) {
  return testutil::MakeTable({"t.a:i", "t.b:d", "t.c:s"}, rows);
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(JournalTest, RoundTripsAppendsThroughReplay) {
  const std::string path = TestPath("roundtrip");
  {
    auto journal_or = JournalWriter::Open(path, 0);
    ASSERT_TRUE(journal_or.ok()) << journal_or.status().ToString();
    auto journal = std::move(journal_or).ValueOrDie();
    const std::vector<Row> first = {MakeRow(1, 0.5, "x"),
                                    MakeRow(2, 1.5, "y")};
    const std::vector<Row> second = {MakeRow(3, 2.5, "z")};
    ASSERT_TRUE(
        journal->AppendRows("t", RowsOfT(first)).ok());
    ASSERT_TRUE(
        journal->AppendRows("t", RowsOfT(second)).ok());
  }

  Catalog catalog;
  FillCatalog(&catalog);
  auto stats_or = ReplayJournal(path, &catalog);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->records_applied, 2u);
  EXPECT_EQ(stats_or->rows_applied, 3u);
  EXPECT_EQ(stats_or->torn_bytes, 0u);
  EXPECT_EQ(static_cast<long>(stats_or->valid_bytes), FileSize(path));

  const Table* t = *catalog.GetTable("t");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->row(0)[0].int64(), 1);
  EXPECT_EQ(t->row(2)[2].str(), "z");
}

// A journal written before table columns were typed: the record of
// `INSERT INTO T VALUES (1), (2.5)` into a DOUBLE column, whose block
// stored the int64 and the double of one column with the kTagged
// encoding. The encoder no longer emits kTagged, but journals on disk
// hold it, so replay must still decode it (widening the int64).
TEST(JournalTest, TaggedBlockFromOlderJournalStillReplays) {
  const unsigned char kTaggedJournal[] = {
      0x47, 0x4d, 0x44, 0x4a, 0x57, 0x41, 0x4c, 0x31, 0x2b, 0x00, 0x00,
      0x00, 0x16, 0xd6, 0x24, 0xc4, 0x0a, 0xd5, 0x8b, 0xb1, 0x01, 0x01,
      0x00, 0x00, 0x00, 0x54, 0x53, 0x50, 0x42, 0x31, 0x02, 0x00, 0x00,
      0x00, 0x01, 0x00, 0x00, 0x00, 0x0d, 0x00, 0x00, 0x00, 0xae, 0x8a,
      0xed, 0x55, 0x35, 0x4d, 0x22, 0xdc, 0x03, 0x03, 0x01, 0x02, 0x02,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40};
  static_assert(sizeof(kTaggedJournal) == 63);
  // Byte 51 is the column's encoding tag: kTagged.
  ASSERT_EQ(kTaggedJournal[51],
            static_cast<unsigned char>(ColumnEncoding::kTagged));
  const std::string path = TestPath("tagged-golden");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(kTaggedJournal, 1, sizeof(kTaggedJournal), f),
              sizeof(kTaggedJournal));
    std::fclose(f);
  }

  Catalog catalog;
  catalog.PutTable("T", testutil::MakeTable({"T.d:d"}, {}));
  auto stats_or = ReplayJournal(path, &catalog);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->records_applied, 1u);
  EXPECT_EQ(stats_or->rows_applied, 2u);
  EXPECT_EQ(stats_or->valid_bytes, sizeof(kTaggedJournal));
  const Table* t = *catalog.GetTable("T");
  ASSERT_EQ(t->num_rows(), 2u);
  ASSERT_EQ(t->column(0).type(), ValueType::kDouble);
  EXPECT_EQ(t->column(0).dbl(0), 1.0);
  EXPECT_EQ(t->column(0).dbl(1), 2.5);
}

TEST(JournalTest, MissingFileReplaysAsEmpty) {
  Catalog catalog;
  FillCatalog(&catalog);
  auto stats_or = ReplayJournal(TestPath("missing"), &catalog);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->records_applied, 0u);
  EXPECT_EQ(stats_or->valid_bytes, 0u);
}

TEST(JournalTest, TornTailIsDroppedAndTruncatedByReopen) {
  const std::string path = TestPath("torn");
  {
    auto journal = std::move(JournalWriter::Open(path, 0)).ValueOrDie();
    const std::vector<Row> rows = {MakeRow(1, 0.5, "x")};
    ASSERT_TRUE(journal->AppendRows("t", RowsOfT(rows)).ok());
  }
  const long good = FileSize(path);
  ASSERT_GT(good, 8);

  // A crash mid-append leaves a partial record: header promising more
  // bytes than the file holds.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const unsigned char torn[7] = {0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe};
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }

  Catalog catalog;
  FillCatalog(&catalog);
  auto stats_or = ReplayJournal(path, &catalog);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->records_applied, 1u);
  EXPECT_EQ(stats_or->torn_bytes, 7u);
  EXPECT_EQ(static_cast<long>(stats_or->valid_bytes), good);
  EXPECT_EQ((*catalog.GetTable("t"))->num_rows(), 1u);

  // Re-opening with the verified prefix truncates the torn tail, and the
  // journal accepts new appends cleanly after it.
  {
    auto journal =
        std::move(JournalWriter::Open(path, stats_or->valid_bytes))
            .ValueOrDie();
    EXPECT_EQ(static_cast<long>(journal->bytes()), good);
    const std::vector<Row> rows = {MakeRow(2, 1.5, "y")};
    ASSERT_TRUE(journal->AppendRows("t", RowsOfT(rows)).ok());
  }
  Catalog catalog2;
  FillCatalog(&catalog2);
  auto replay2 = ReplayJournal(path, &catalog2);
  ASSERT_TRUE(replay2.ok()) << replay2.status().ToString();
  EXPECT_EQ(replay2->records_applied, 2u);
  EXPECT_EQ(replay2->torn_bytes, 0u);
}

TEST(JournalTest, MidFileCorruptionIsTypedDataLoss) {
  const std::string path = TestPath("midfile");
  {
    auto journal = std::move(JournalWriter::Open(path, 0)).ValueOrDie();
    const std::vector<Row> rows = {MakeRow(1, 0.5, "x")};
    ASSERT_TRUE(journal->AppendRows("t", RowsOfT(rows)).ok());
    ASSERT_TRUE(journal->AppendRows("t", RowsOfT(rows)).ok());
  }
  // Flip a payload byte of the *first* record: corruption followed by an
  // intact record is rot, not a torn append, and must not be "recovered"
  // by truncation.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8 + 12 + 3, SEEK_SET);  // magic + header + few bytes in.
    const int byte = std::fgetc(f);
    std::fseek(f, 8 + 12 + 3, SEEK_SET);
    std::fputc(byte ^ 0x01, f);
    std::fclose(f);
  }
  Catalog catalog;
  FillCatalog(&catalog);
  auto stats_or = ReplayJournal(path, &catalog);
  ASSERT_FALSE(stats_or.ok());
  EXPECT_EQ(static_cast<int>(stats_or.status().code()),
            static_cast<int>(StatusCode::kDataLoss));
  // Two-phase replay: nothing was applied.
  EXPECT_EQ((*catalog.GetTable("t"))->num_rows(), 0u);
}

TEST(JournalTest, UnknownTableIsDataLossAndNothingApplies) {
  const std::string path = TestPath("unknown-table");
  {
    auto journal = std::move(JournalWriter::Open(path, 0)).ValueOrDie();
    const std::vector<Row> rows = {MakeRow(1, 0.5, "x")};
    ASSERT_TRUE(journal->AppendRows("t", RowsOfT(rows)).ok());
    ASSERT_TRUE(journal->AppendRows("nope", RowsOfT(rows)).ok());
  }
  Catalog catalog;
  FillCatalog(&catalog);
  auto stats_or = ReplayJournal(path, &catalog);
  ASSERT_FALSE(stats_or.ok());
  EXPECT_EQ(static_cast<int>(stats_or.status().code()),
            static_cast<int>(StatusCode::kDataLoss));
  // The valid record for "t" must not have been applied either: replay
  // is all-or-nothing so a failed recovery leaves a clean slate.
  EXPECT_EQ((*catalog.GetTable("t"))->num_rows(), 0u);
}

TEST(JournalTest, NotAJournalFileIsRefused) {
  const std::string path = TestPath("not-a-journal");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a journal", f);
    std::fclose(f);
  }
  Catalog catalog;
  FillCatalog(&catalog);
  EXPECT_FALSE(ReplayJournal(path, &catalog).ok());
  EXPECT_FALSE(JournalWriter::Open(path, 0).ok());
}

TEST(JournalTest, EngineInsertIsJournaledBeforeApply) {
  const std::string path = TestPath("engine-wal");
  auto journal = std::move(JournalWriter::Open(path, 0)).ValueOrDie();

  OlapEngine engine;
  engine.catalog()->PutTable(
      "t", testutil::MakeTable({"t.a:i", "t.b:d", "t.c:s"}, {}));
  engine.set_journal(journal.get());

  // WAL ordering: when the journal append fails, the in-memory apply
  // must not happen — an unacknowledged mutation may be lost, but an
  // applied mutation must never be unjournaled.
  FaultInjector::Global()->Arm("journal/append",
                               {FaultKind::kError, 1, 1,
                                StatusCode::kResourceExhausted,
                                "disk full (injected)"});
  const auto failed = engine.ExecuteSql("INSERT INTO t VALUES (1, 0.5, 'x')",
                                        Strategy::kGmdjOptimized);
  FaultInjector::Global()->Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ((*engine.catalog()->GetTable("t"))->num_rows(), 0u);

  const auto inserted = engine.ExecuteSql(
      "INSERT INTO t VALUES (1, 0.5, 'x'), (-2, NULL, 'y')",
      Strategy::kGmdjOptimized);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ((*engine.catalog()->GetTable("t"))->num_rows(), 2u);

  // Crash-replay equivalence: a fresh catalog + journal replay lands on
  // exactly the acknowledged state.
  Catalog recovered;
  FillCatalog(&recovered);
  auto stats_or = ReplayJournal(path, &recovered);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->rows_applied, 2u);
  const Table* t = *recovered.GetTable("t");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->row(1)[0].int64(), -2);
  EXPECT_TRUE(t->row(1)[1].is_null());
  EXPECT_EQ(t->row(1)[2].str(), "y");
}

TEST(JournalTest, OpenRefusesTruncatingJournalWithRecords) {
  const std::string path = TestPath("refuse-truncate");
  {
    auto journal = std::move(JournalWriter::Open(path, 0)).ValueOrDie();
    const std::vector<Row> rows = {MakeRow(1, 0.5, "x")};
    ASSERT_TRUE(journal->AppendRows("t", RowsOfT(rows)).ok());
  }
  const long size = FileSize(path);
  ASSERT_GT(size, 8);

  // valid_bytes == 0 against a journal that still holds records is a
  // call-site mistake (ReplayJournal was skipped); silently truncating
  // would erase durable, acknowledged mutations.
  auto reopened = JournalWriter::Open(path, 0);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(static_cast<int>(reopened.status().code()),
            static_cast<int>(StatusCode::kInvalidArgument));
  EXPECT_EQ(FileSize(path), size);  // Nothing was erased.

  // The documented replay-then-open sequence still works.
  Catalog catalog;
  FillCatalog(&catalog);
  auto stats_or = ReplayJournal(path, &catalog);
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_TRUE(JournalWriter::Open(path, stats_or->valid_bytes).ok());
}

TEST(JournalTest, CrashBetweenPublishAndTruncateDoesNotDuplicateRows) {
  const std::string path = TestPath("publish-truncate-crash");
  const std::string snap_dir =
      ::testing::TempDir() + "/gmdj_journal_test_ptc_snap";
  auto journal = std::move(JournalWriter::Open(path, 0)).ValueOrDie();

  OlapEngine engine;
  FillCatalog(engine.catalog());
  engine.set_journal(journal.get());
  ASSERT_TRUE(engine.AppendRows("t", {MakeRow(1, 1.5, "acked")}).ok());

  // Crash window: the snapshot publishes durably, then the journal
  // truncate "crashes" — every record the snapshot already absorbed is
  // still on disk, preceded by the snapshot's marker.
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "truncate crash (injected)";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("journal/truncate", spec);
  const Status failed = engine.SaveSnapshot(snap_dir);
  FaultInjector::Global()->Reset();
  EXPECT_FALSE(failed.ok());
  ASSERT_GT(journal->bytes(), 8u);

  // Recovery must not re-apply the snapshot-covered records.
  OlapEngine recovered;
  ASSERT_TRUE(recovered.RestoreSnapshot(snap_dir).ok());
  ASSERT_NE(recovered.restored_snapshot_id(), 0u);
  auto stats_or = ReplayJournal(path, recovered.catalog(),
                                recovered.restored_snapshot_id());
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->rows_applied, 0u);
  EXPECT_EQ(stats_or->records_skipped, 1u);
  EXPECT_EQ((*recovered.catalog()->GetTable("t"))->num_rows(), 1u);

  // Mutations appended after the marker replay normally on the next
  // recovery — skipping is bounded by the marker, not the whole file.
  auto reopened =
      std::move(JournalWriter::Open(path, stats_or->valid_bytes))
          .ValueOrDie();
  recovered.set_journal(reopened.get());
  ASSERT_TRUE(recovered.AppendRows("t", {MakeRow(2, 2.5, "post")}).ok());

  OlapEngine again;
  ASSERT_TRUE(again.RestoreSnapshot(snap_dir).ok());
  auto replay2 = ReplayJournal(path, again.catalog(),
                               again.restored_snapshot_id());
  ASSERT_TRUE(replay2.ok()) << replay2.status().ToString();
  EXPECT_EQ(replay2->rows_applied, 1u);
  EXPECT_EQ(replay2->records_skipped, 1u);
  const Table* t = *again.catalog()->GetTable("t");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->row(0)[2].str(), "acked");
  EXPECT_EQ(t->row(1)[2].str(), "post");
}

TEST(JournalTest, FailedPublishKeepsJournalRecordsReplayable) {
  const std::string path = TestPath("failed-publish");
  const std::string snap_dir =
      ::testing::TempDir() + "/gmdj_journal_test_fp_snap";
  auto journal = std::move(JournalWriter::Open(path, 0)).ValueOrDie();

  OlapEngine engine;
  FillCatalog(engine.catalog());
  engine.set_journal(journal.get());
  // Baseline snapshot (empty "t"); its marker is truncated away with the
  // rest of the journal.
  ASSERT_TRUE(engine.SaveSnapshot(snap_dir).ok());
  ASSERT_TRUE(engine.AppendRows("t", {MakeRow(1, 1.5, "acked")}).ok());

  // The next save crashes before its snapshot publishes: the journal now
  // holds the acknowledged row plus a marker for a snapshot that never
  // landed. The durable snapshot is still the baseline.
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "publish crash (injected)";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("snapshot/publish", spec);
  const Status failed = engine.SaveSnapshot(snap_dir);
  FaultInjector::Global()->Reset();
  EXPECT_FALSE(failed.ok());

  // The orphaned marker matches nothing, so the acknowledged row replays
  // exactly once — dropped rows would be as corrupt as duplicated ones.
  OlapEngine recovered;
  ASSERT_TRUE(recovered.RestoreSnapshot(snap_dir).ok());
  auto stats_or = ReplayJournal(path, recovered.catalog(),
                                recovered.restored_snapshot_id());
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->rows_applied, 1u);
  EXPECT_EQ(stats_or->records_skipped, 0u);
  const Table* t = *recovered.catalog()->GetTable("t");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->row(0)[2].str(), "acked");
}

TEST(JournalTest, SnapshotTruncatesJournal) {
  const std::string path = TestPath("truncate");
  const std::string snap_dir =
      ::testing::TempDir() + "/gmdj_journal_test_truncate_snap";
  auto journal = std::move(JournalWriter::Open(path, 0)).ValueOrDie();

  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  engine.catalog()->PutTable(
      "t", testutil::MakeTable({"t.a:i", "t.b:d", "t.c:s"}, {}));
  engine.set_journal(journal.get());

  ASSERT_TRUE(engine.AppendRows("t", {MakeRow(7, 7.5, "pre")}).ok());
  ASSERT_GT(journal->bytes(), 8u);

  // The snapshot absorbs the journaled mutations, so the journal resets
  // to just its magic and replay-on-top-of-restore stays exact.
  ASSERT_TRUE(engine.SaveSnapshot(snap_dir).ok());
  EXPECT_EQ(journal->bytes(), 8u);

  ASSERT_TRUE(engine.AppendRows("t", {MakeRow(8, 8.5, "post")}).ok());

  OlapEngine recovered;
  ASSERT_TRUE(recovered.RestoreSnapshot(snap_dir).ok());
  auto stats_or = ReplayJournal(path, recovered.catalog());
  ASSERT_TRUE(stats_or.ok()) << stats_or.status().ToString();
  EXPECT_EQ(stats_or->rows_applied, 1u);
  const Table* t = *recovered.catalog()->GetTable("t");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->row(0)[2].str(), "pre");
  EXPECT_EQ(t->row(1)[2].str(), "post");
}

}  // namespace
}  // namespace spill
}  // namespace gmdj
