// Catalog snapshot/restore (spill/snapshot.h): MANIFEST + SPB1 block
// files must round-trip the whole catalog — schemas, NULLs, value types —
// across engines, be reachable from SQL, and reject corrupt inputs.

#include "spill/snapshot.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "engine/olap_engine.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

std::string TestDir(const std::string& name) {
  return ::testing::TempDir() + "/gmdj_snapshot_test_" + name;
}

/// A table exercising every encoder path: negative ints, doubles, low
/// cardinality strings, NULLs, and a mixed-type column.
Table TrickyTable() {
  Table t = testutil::MakeTable({"T.a", "T.b:d", "T.c"}, {});
  for (int64_t i = 0; i < 200; ++i) {
    Row row;
    row.push_back(Value(i - 100));
    row.push_back(i % 5 == 0 ? Value::Null() : Value(0.25 * i));
    const bool mixed = i % 3 == 0;
    if (mixed) {
      row.push_back(Value("tag-" + std::to_string(i % 4)));
    } else {
      row.push_back(Value(i));
    }
    // A string into the int64 column is refused: columns never mix types.
    EXPECT_EQ(t.AppendRow(std::move(row)).ok(), !mixed) << "row " << i;
  }
  return t;
}

void ExpectSameCatalog(const OlapEngine& actual, const OlapEngine& expected) {
  ASSERT_EQ(actual.catalog().TableNames(), expected.catalog().TableNames());
  for (const std::string& name : expected.catalog().TableNames()) {
    const Table* want = *expected.catalog().GetTable(name);
    const Table* got = *actual.catalog().GetTable(name);
    ASSERT_EQ(got->num_rows(), want->num_rows()) << name;
    for (size_t i = 0; i < want->num_rows(); ++i) {
      ASSERT_EQ(got->row(i).size(), want->row(i).size()) << name;
      for (size_t c = 0; c < want->row(i).size(); ++c) {
        const Value w = want->row(i)[c];
        const Value g = got->row(i)[c];
        if (w.is_null()) {
          EXPECT_TRUE(g.is_null()) << name << " row " << i << " col " << c;
        } else {
          EXPECT_EQ(static_cast<int>(g.type()), static_cast<int>(w.type()))
              << name << " row " << i << " col " << c;
          EXPECT_TRUE(g == w) << name << " row " << i << " col " << c;
        }
      }
    }
  }
}

TEST(SnapshotTest, RoundTripsWholeCatalogAcrossEngines) {
  OlapEngine source;
  testutil::LoadPaperTables(&source);
  source.catalog()->PutTable("T", TrickyTable());
  const std::string dir = TestDir("roundtrip");
  ASSERT_TRUE(source.SaveSnapshot(dir).ok());

  OlapEngine restored;
  ASSERT_TRUE(restored.RestoreSnapshot(dir).ok());
  ExpectSameCatalog(restored, source);
}

TEST(SnapshotTest, SqlSaveAndRestoreStatements) {
  OlapEngine source;
  testutil::LoadPaperTables(&source);
  const std::string dir = TestDir("sql");
  const auto saved = source.ExecuteSql("SAVE SNAPSHOT '" + dir + "'",
                                       Strategy::kGmdjOptimized);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->num_rows(), 1u);
  EXPECT_NE(saved->row(0)[0].ToString().find("saved snapshot to"),
            std::string::npos);

  OlapEngine restored;
  const auto loaded = restored.ExecuteSql("RESTORE SNAPSHOT '" + dir + "'",
                                          Strategy::kGmdjOptimized);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameCatalog(restored, source);

  // The restored catalog answers queries identically.
  const char* sql =
      "SELECT * FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE "
      "F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval)";
  const auto a = source.ExecuteSql(sql, Strategy::kGmdjOptimized);
  const auto b = restored.ExecuteSql(sql, Strategy::kGmdjOptimized);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(testutil::SameRows(*a, *b));
}

TEST(SnapshotTest, RestoreBumpsTableVersions) {
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  const std::string dir = TestDir("versions");
  ASSERT_TRUE(engine.SaveSnapshot(dir).ok());
  const TableVersion before = engine.catalog()->GetTableVersion("Hours");
  ASSERT_TRUE(engine.RestoreSnapshot(dir).ok());
  const TableVersion after = engine.catalog()->GetTableVersion("Hours");
  // Restoring over a live catalog must not serve stale cached plans:
  // PutTable gives the table a fresh version epoch.
  EXPECT_FALSE(after == before);
}

TEST(SnapshotTest, MissingManifestFails) {
  OlapEngine engine;
  const Status status =
      engine.RestoreSnapshot(TestDir("does-not-exist"));
  EXPECT_FALSE(status.ok());
}

TEST(SnapshotTest, CorruptDataFileIsRejected) {
  OlapEngine source;
  testutil::LoadPaperTables(&source);
  const std::string dir = TestDir("corrupt");
  ASSERT_TRUE(source.SaveSnapshot(dir).ok());

  // Flip one byte in the middle of each .tbl file.
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  size_t corrupted = 0;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() < 4 || name.substr(name.size() - 4) != ".tbl") continue;
    const std::string path = dir + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_GT(size, 0);
    std::fseek(f, size / 2, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
    ++corrupted;
  }
  ::closedir(d);
  ASSERT_GT(corrupted, 0u);

  OlapEngine restored;
  EXPECT_FALSE(restored.RestoreSnapshot(dir).ok());
}

TEST(SnapshotTest, MissingDataFileIsTypedDataLoss) {
  OlapEngine source;
  testutil::LoadPaperTables(&source);
  const std::string dir = TestDir("missing-tbl");
  ASSERT_TRUE(source.SaveSnapshot(dir).ok());
  ASSERT_EQ(std::remove((dir + "/t0.tbl").c_str()), 0);

  OlapEngine restored;
  const Status status = restored.RestoreSnapshot(dir);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("missing data file"), std::string::npos);
  // Staged-then-apply: the valid tables were not half-restored.
  EXPECT_TRUE(restored.catalog()->TableNames().empty());
}

TEST(SnapshotTest, DuplicateDataFileReferenceIsTypedDataLoss) {
  OlapEngine source;
  testutil::LoadPaperTables(&source);
  const std::string dir = TestDir("dup-tbl");
  ASSERT_TRUE(source.SaveSnapshot(dir).ok());

  // Point the second table at the first table's data file.
  const std::string manifest_path = dir + "/MANIFEST";
  std::string manifest;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(in));
    std::ostringstream buffer;
    buffer << in.rdbuf();
    manifest = buffer.str();
  }
  const size_t at = manifest.find("t1.tbl");
  ASSERT_NE(at, std::string::npos);
  manifest.replace(at, 6, "t0.tbl");
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    out << manifest;
  }

  OlapEngine restored;
  const Status status = restored.RestoreSnapshot(dir);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("referenced twice"), std::string::npos);
  EXPECT_TRUE(restored.catalog()->TableNames().empty());
}

TEST(SnapshotTest, FailedPublishLeavesPreviousSnapshotAndNoTempDir) {
  OlapEngine source;
  testutil::LoadPaperTables(&source);
  const std::string dir = TestDir("atomic");
  ASSERT_TRUE(source.SaveSnapshot(dir).ok());

  // Mutate the catalog, then fail the publish step: the on-disk
  // snapshot must still be the first save, with no staging dir left.
  source.catalog()->PutTable("T", TrickyTable());
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "publish crash (injected)";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("snapshot/publish", spec);
  const Status failed = source.SaveSnapshot(dir);
  FaultInjector::Global()->Reset();
  EXPECT_EQ(failed.code(), StatusCode::kInternal);

  struct stat st;
  EXPECT_NE(::lstat((dir + ".tmp").c_str(), &st), 0);
  OlapEngine restored;
  ASSERT_TRUE(restored.RestoreSnapshot(dir).ok());
  EXPECT_EQ(restored.catalog()->TableNames(),
            std::vector<std::string>({"Flow", "Hours", "User"}));

  // A later save (fault disarmed) publishes the new catalog.
  ASSERT_TRUE(source.SaveSnapshot(dir).ok());
  OlapEngine retried;
  ASSERT_TRUE(retried.RestoreSnapshot(dir).ok());
  ExpectSameCatalog(retried, source);
}

/// rm -rf for the flat dirs these tests fabricate.
void RemoveTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    ::remove((dir + "/" + name).c_str());
  }
  ::closedir(d);
  ::rmdir(dir.c_str());
}

TEST(SnapshotTest, SnapshotIdRoundTripsThroughManifest) {
  const std::string dir = TestDir("id-roundtrip");
  Catalog catalog;
  catalog.PutTable("T", TrickyTable());
  ASSERT_TRUE(spill::SaveSnapshot(catalog, dir, 12345u).ok());

  Catalog out;
  uint64_t id = 0;
  ASSERT_TRUE(spill::RestoreSnapshot(&out, dir, &id).ok());
  EXPECT_EQ(id, 12345u);

  // Id-less saves (no journal attached) restore as 0.
  ASSERT_TRUE(spill::SaveSnapshot(catalog, dir).ok());
  id = 99;
  ASSERT_TRUE(spill::RestoreSnapshot(&out, dir, &id).ok());
  EXPECT_EQ(id, 0u);
}

TEST(SnapshotTest, RestoreFinishesInterruptedPublish) {
  const std::string dir = TestDir("finish-publish");
  RemoveTree(dir);
  RemoveTree(dir + ".tmp");
  RemoveTree(dir + ".old");

  OlapEngine v1;
  testutil::LoadPaperTables(&v1);
  OlapEngine v2;
  testutil::LoadPaperTables(&v2);
  v2.catalog()->PutTable("T", TrickyTable());

  const std::string stage1 = TestDir("finish-publish-v1");
  const std::string stage2 = TestDir("finish-publish-v2");
  ASSERT_TRUE(v1.SaveSnapshot(stage1).ok());
  ASSERT_TRUE(v2.SaveSnapshot(stage2).ok());
  // Fabricate the exact crash window between SaveSnapshot's two publish
  // renames: previous snapshot moved aside to <dir>.old, fully staged
  // new one still at <dir>.tmp, nothing at <dir>.
  ASSERT_EQ(std::rename(stage1.c_str(), (dir + ".old").c_str()), 0);
  ASSERT_EQ(std::rename(stage2.c_str(), (dir + ".tmp").c_str()), 0);

  // Restore finishes the publish: the staged snapshot is complete and
  // valid, so it wins over the backup.
  OlapEngine restored;
  ASSERT_TRUE(restored.RestoreSnapshot(dir).ok());
  ExpectSameCatalog(restored, v2);
  struct stat st;
  EXPECT_EQ(::lstat(dir.c_str(), &st), 0);
  EXPECT_NE(::lstat((dir + ".tmp").c_str(), &st), 0);
  EXPECT_NE(::lstat((dir + ".old").c_str(), &st), 0);

  // The finished publish is durable: a plain re-restore sees the same.
  OlapEngine again;
  ASSERT_TRUE(again.RestoreSnapshot(dir).ok());
  ExpectSameCatalog(again, v2);
}

TEST(SnapshotTest, RestoreFallsBackToBackupWhenStagingIncomplete) {
  const std::string dir = TestDir("fallback");
  RemoveTree(dir);
  RemoveTree(dir + ".tmp");
  RemoveTree(dir + ".old");

  OlapEngine v1;
  testutil::LoadPaperTables(&v1);
  const std::string stage1 = TestDir("fallback-v1");
  ASSERT_TRUE(v1.SaveSnapshot(stage1).ok());
  ASSERT_EQ(std::rename(stage1.c_str(), (dir + ".old").c_str()), 0);

  // A staging dir whose MANIFEST references a file that never made it to
  // disk is a crash mid-staging, not a publishable snapshot.
  const std::string tmp = dir + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
  {
    std::ofstream manifest(tmp + "/MANIFEST", std::ios::binary);
    manifest << "gmdj-snapshot 1\n"
             << "table\tT\t5\tt0.tbl\t1\n"
             << "col\ta\tint64\t\n";
  }

  OlapEngine restored;
  ASSERT_TRUE(restored.RestoreSnapshot(dir).ok());
  ExpectSameCatalog(restored, v1);  // The backup was promoted.
  struct stat st;
  EXPECT_EQ(::lstat(dir.c_str(), &st), 0);
  EXPECT_NE(::lstat((dir + ".old").c_str(), &st), 0);
}

TEST(SnapshotTest, SaveAfterInterruptedPublishKeepsLastGoodSnapshot) {
  const std::string dir = TestDir("save-promotes");
  RemoveTree(dir);
  RemoveTree(dir + ".tmp");
  RemoveTree(dir + ".old");

  OlapEngine v1;
  testutil::LoadPaperTables(&v1);
  const std::string stage1 = TestDir("save-promotes-v1");
  ASSERT_TRUE(v1.SaveSnapshot(stage1).ok());
  ASSERT_EQ(std::rename(stage1.c_str(), (dir + ".old").c_str()), 0);

  // A save into the crash-window state must not sweep the stranded
  // backup: even when its own publish then fails, the last good
  // snapshot is still restorable.
  OlapEngine v2;
  testutil::LoadPaperTables(&v2);
  v2.catalog()->PutTable("T", TrickyTable());
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "publish crash (injected)";
  spec.max_fires = 1;
  FaultInjector::Global()->Arm("snapshot/publish", spec);
  const Status failed = v2.SaveSnapshot(dir);
  FaultInjector::Global()->Reset();
  EXPECT_FALSE(failed.ok());

  OlapEngine restored;
  ASSERT_TRUE(restored.RestoreSnapshot(dir).ok());
  ExpectSameCatalog(restored, v1);

  // And the retried save publishes normally.
  ASSERT_TRUE(v2.SaveSnapshot(dir).ok());
  OlapEngine retried;
  ASSERT_TRUE(retried.RestoreSnapshot(dir).ok());
  ExpectSameCatalog(retried, v2);
}

TEST(SnapshotTest, StaleStagingDirIsSweptAndRefusedByRestore) {
  const std::string dir = TestDir("stale");
  const std::string tmp = dir + ".tmp";
  // Fake the debris of a save that crashed mid-stage.
  const int rc = ::mkdir(tmp.c_str(), 0755);
  ASSERT_TRUE(rc == 0 || errno == EEXIST);
  {
    std::ofstream junk(tmp + "/t0.tbl", std::ios::binary);
    junk << "half-written";
  }

  // Restore refuses to look inside a staging dir...
  OlapEngine engine;
  testutil::LoadPaperTables(&engine);
  EXPECT_FALSE(engine.RestoreSnapshot(tmp).ok());

  // ...and the next save sweeps it before staging anew.
  ASSERT_TRUE(engine.SaveSnapshot(dir).ok());
  struct stat st;
  EXPECT_NE(::lstat(tmp.c_str(), &st), 0);
  OlapEngine restored;
  ASSERT_TRUE(restored.RestoreSnapshot(dir).ok());
  ExpectSameCatalog(restored, engine);
}

}  // namespace
}  // namespace gmdj
