#include "storage/catalog.h"

#include "common/str_util.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

TEST(CatalogTest, RegisterAndGet) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", MakeTable({"x"}, {{1}})).ok());
  const auto t = catalog.GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->num_rows(), 1u);
  EXPECT_TRUE(catalog.HasTable("t"));
}

TEST(CatalogTest, DuplicateRegistrationFails) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterTable("t", MakeTable({"x"}, {})).ok());
  const Status s = catalog.RegisterTable("t", MakeTable({"x"}, {}));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, PutReplaces) {
  Catalog catalog;
  catalog.PutTable("t", MakeTable({"x"}, {{1}}));
  catalog.PutTable("t", MakeTable({"x"}, {{1}, {2}}));
  EXPECT_EQ((*catalog.GetTable("t"))->num_rows(), 2u);
}

TEST(CatalogTest, GetMissing) {
  Catalog catalog;
  EXPECT_EQ(catalog.GetTable("nope").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, DropTable) {
  Catalog catalog;
  catalog.PutTable("t", MakeTable({"x"}, {}));
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.HasTable("t"));
  EXPECT_EQ(catalog.DropTable("t").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog catalog;
  catalog.PutTable("b", MakeTable({"x"}, {}));
  catalog.PutTable("a", MakeTable({"x"}, {}));
  catalog.PutTable("c", MakeTable({"x"}, {}));
  EXPECT_EQ(catalog.TableNames(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CatalogTest, VersionTracksMutationAndRegistration) {
  Catalog catalog;
  // Unknown names report the reserved zero version (epochs start at 1).
  EXPECT_EQ(catalog.GetTableVersion("t"), TableVersion{});

  catalog.PutTable("t", MakeTable({"x"}, {{1}}));
  const TableVersion v0 = catalog.GetTableVersion("t");
  EXPECT_GE(v0.registration, 1u);

  // In-place mutation bumps the mutation counter, same epoch.
  (*catalog.GetMutableTable("t"))->AppendRow({Value(2)});
  const TableVersion v1 = catalog.GetTableVersion("t");
  EXPECT_EQ(v1.registration, v0.registration);
  EXPECT_GT(v1.mutations, v0.mutations);

  // Replacement rebinds the name: fresh epoch, counter restarts.
  catalog.PutTable("t", MakeTable({"x"}, {{1}}));
  const TableVersion v2 = catalog.GetTableVersion("t");
  EXPECT_GT(v2.registration, v1.registration);
  EXPECT_NE(v2, v1);
  EXPECT_NE(v2, v0);
}

TEST(CatalogTest, VersionAfterDropAndReRegister) {
  Catalog catalog;
  catalog.PutTable("t", MakeTable({"x"}, {{1}}));
  const TableVersion before = catalog.GetTableVersion("t");
  ASSERT_TRUE(catalog.DropTable("t").ok());
  EXPECT_EQ(catalog.GetTableVersion("t"), TableVersion{});

  // Re-registering the same name never resurrects an old version.
  ASSERT_TRUE(catalog.RegisterTable("t", MakeTable({"x"}, {{1}})).ok());
  EXPECT_NE(catalog.GetTableVersion("t"), before);
}

TEST(CatalogTest, VersionsIndependentPerTable) {
  Catalog catalog;
  catalog.PutTable("a", MakeTable({"x"}, {{1}}));
  catalog.PutTable("b", MakeTable({"x"}, {{1}}));
  const TableVersion b_before = catalog.GetTableVersion("b");
  (*catalog.GetMutableTable("a"))->AppendRow({Value(2)});
  EXPECT_EQ(catalog.GetTableVersion("b"), b_before);
}

TEST(CatalogTest, PointerStableAcrossInserts) {
  Catalog catalog;
  catalog.PutTable("t", MakeTable({"x"}, {{1}}));
  const Table* t = *catalog.GetTable("t");
  for (int i = 0; i < 50; ++i) {
    catalog.PutTable(StrCat({"t", std::to_string(i)}), MakeTable({"x"}, {}));
  }
  EXPECT_EQ(*catalog.GetTable("t"), t);
}

}  // namespace
}  // namespace gmdj
