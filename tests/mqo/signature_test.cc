#include "mqo/signature.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/nodes.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::MakeTable;

/// Fixture with one catalog table scanned under configurable aliases, so
/// the same logical predicate can be spelled with different qualifiers.
class SignatureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.PutTable("Base", MakeTable({"bk", "lo", "hi"}, {}));
    catalog_.PutTable("Det", MakeTable({"dk", "val:d", "tag:s"}, {}));
  }

  /// Prepares `Base -> base_alias` and `Det -> det_alias` scans, binds
  /// `expr` over [base, detail], and returns its canonical key.
  std::string KeyOf(ExprPtr expr, const std::string& base_alias,
                    const std::string& det_alias) {
    TableScanNode base("Base", base_alias);
    TableScanNode det("Det", det_alias);
    EXPECT_TRUE(base.Prepare(catalog_).ok());
    EXPECT_TRUE(det.Prepare(catalog_).ok());
    EXPECT_TRUE(
        expr->Bind({&base.output_schema(), &det.output_schema()}).ok());
    return CanonicalExprKey(*expr);
  }

  Catalog catalog_;
};

TEST_F(SignatureTest, AliasRenamingCollides) {
  // `B.bk = D.dk` spelled under aliases (B, D) and (X, Y): same work.
  const std::string a = KeyOf(Eq(Col("B.bk"), Col("D.dk")), "B", "D");
  const std::string b = KeyOf(Eq(Col("X.bk"), Col("Y.dk")), "X", "Y");
  EXPECT_EQ(a, b);
}

TEST_F(SignatureTest, CommutedConjunctsCollide) {
  const std::string a = KeyOf(
      And(Eq(Col("B.bk"), Col("D.dk")), Gt(Col("D.val"), Lit(1.5))), "B", "D");
  const std::string b = KeyOf(
      And(Gt(Col("D.val"), Lit(1.5)), Eq(Col("B.bk"), Col("D.dk"))), "B", "D");
  EXPECT_EQ(a, b);
}

TEST_F(SignatureTest, NestedConjunctionsFlatten) {
  const std::string a =
      KeyOf(And(And(Eq(Col("B.bk"), Col("D.dk")), Gt(Col("D.val"), Lit(0.0))),
                Eq(Col("D.tag"), Lit("x"))),
            "B", "D");
  const std::string b =
      KeyOf(And(Eq(Col("D.tag"), Lit("x")),
                And(Gt(Col("D.val"), Lit(0.0)), Eq(Col("B.bk"), Col("D.dk")))),
            "B", "D");
  EXPECT_EQ(a, b);
}

TEST_F(SignatureTest, MirroredComparisonCollides) {
  // `D.val > B.lo` is the same predicate as `B.lo < D.val`.
  const std::string a = KeyOf(Gt(Col("D.val"), Col("B.lo")), "B", "D");
  const std::string b = KeyOf(Lt(Col("B.lo"), Col("D.val")), "B", "D");
  EXPECT_EQ(a, b);
}

TEST_F(SignatureTest, CommutativeArithCollides) {
  const std::string a =
      KeyOf(Eq(Add(Col("D.val"), Col("B.lo")), Lit(3.0)), "B", "D");
  const std::string b =
      KeyOf(Eq(Add(Col("B.lo"), Col("D.val")), Lit(3.0)), "B", "D");
  EXPECT_EQ(a, b);
}

TEST_F(SignatureTest, NonCommutativeArithDistinct) {
  const std::string a =
      KeyOf(Eq(Sub(Col("D.val"), Col("B.lo")), Lit(3.0)), "B", "D");
  const std::string b =
      KeyOf(Eq(Sub(Col("B.lo"), Col("D.val")), Lit(3.0)), "B", "D");
  EXPECT_NE(a, b);
}

TEST_F(SignatureTest, DifferentColumnsDistinct) {
  EXPECT_NE(KeyOf(Eq(Col("B.bk"), Col("D.dk")), "B", "D"),
            KeyOf(Eq(Col("B.lo"), Col("D.dk")), "B", "D"));
}

TEST_F(SignatureTest, NullSensitiveOperatorsDistinct) {
  // NOT(x = y), x <> y, and (x = y) IS NOT TRUE differ exactly on NULL
  // inputs; colliding any two would serve wrong answers on NULL data.
  const std::string negated_eq =
      KeyOf(Not(Eq(Col("D.val"), Col("B.lo"))), "B", "D");
  const std::string ne = KeyOf(Ne(Col("D.val"), Col("B.lo")), "B", "D");
  const std::string is_not_true =
      KeyOf(IsNotTrue(Eq(Col("D.val"), Col("B.lo"))), "B", "D");
  EXPECT_NE(negated_eq, ne);
  EXPECT_NE(negated_eq, is_not_true);
  EXPECT_NE(ne, is_not_true);

  EXPECT_NE(KeyOf(IsNull(Col("D.val")), "B", "D"),
            KeyOf(IsNotNull(Col("D.val")), "B", "D"));
}

TEST_F(SignatureTest, LiteralTypesAndInjectivity) {
  EXPECT_NE(KeyOf(Eq(Col("D.tag"), Lit("1")), "B", "D"),
            KeyOf(Eq(Col("D.dk"), Lit(1)), "B", "D"));
  // Length-prefixing: a string containing the encoding's delimiters
  // cannot fake a different structure.
  EXPECT_NE(KeyOf(Eq(Col("D.tag"), Lit("a),lit:sb")), "B", "D"),
            KeyOf(Eq(Col("D.tag"), Lit("a")), "B", "D"));
}

TEST_F(SignatureTest, ThetaKeyNullMeansTrue) {
  EXPECT_EQ(CanonicalThetaKey(nullptr), "true");
}

TEST_F(SignatureTest, AggKeyIgnoresOutputName) {
  TableScanNode base("Base", "B");
  TableScanNode det("Det", "D");
  ASSERT_TRUE(base.Prepare(catalog_).ok());
  ASSERT_TRUE(det.Prepare(catalog_).ok());
  const std::vector<const Schema*> frames = {&base.output_schema(),
                                             &det.output_schema()};
  AggSpec a = SumOf(Col("D.val"), "total");
  AggSpec b = SumOf(Col("D.val"), "renamed");
  ASSERT_TRUE(a.Bind(frames).ok());
  ASSERT_TRUE(b.Bind(frames).ok());
  EXPECT_EQ(CanonicalAggKey(a), CanonicalAggKey(b));

  AggSpec c = CountStar("cnt");
  ASSERT_TRUE(c.Bind(frames).ok());
  EXPECT_NE(CanonicalAggKey(a), CanonicalAggKey(c));
}

TEST_F(SignatureTest, ScanFingerprintDropsAlias) {
  TableScanNode f("Det", "F");
  TableScanNode g("Det", "G");
  ASSERT_TRUE(f.Prepare(catalog_).ok());
  ASSERT_TRUE(g.Prepare(catalog_).ok());
  ASSERT_TRUE(ScanFingerprint(f).has_value());
  EXPECT_EQ(*ScanFingerprint(f), *ScanFingerprint(g));

  TableScanNode other("Base", "F");
  ASSERT_TRUE(other.Prepare(catalog_).ok());
  EXPECT_NE(*ScanFingerprint(f), *ScanFingerprint(other));
}

TEST_F(SignatureTest, NonScanInputsNotFingerprintable) {
  auto scan = std::make_unique<TableScanNode>("Det", "F");
  ASSERT_TRUE(scan->Prepare(catalog_).ok());
  FilterNode filtered(std::move(scan), Gt(Col("F.val"), Lit(0.0)));
  ASSERT_TRUE(filtered.Prepare(catalog_).ok());
  EXPECT_FALSE(ScanFingerprint(filtered).has_value());
}

/// Builds a full signature for one condition list over Base/Det scans.
std::optional<GmdjSignature> SigFor(
    const Catalog& catalog, const std::string& base_alias,
    const std::string& det_alias,
    std::vector<std::pair<ExprPtr, std::vector<AggSpec>>> conds) {
  TableScanNode base("Base", base_alias);
  TableScanNode det("Det", det_alias);
  EXPECT_TRUE(base.Prepare(catalog).ok());
  EXPECT_TRUE(det.Prepare(catalog).ok());
  const std::vector<const Schema*> frames = {&base.output_schema(),
                                             &det.output_schema()};
  std::vector<GmdjConditionView> views;
  for (auto& [theta, aggs] : conds) {
    if (theta != nullptr) {
      EXPECT_TRUE(theta->Bind(frames).ok());
    }
    GmdjConditionView view;
    view.theta = theta.get();
    for (AggSpec& agg : aggs) {
      EXPECT_TRUE(agg.Bind(frames).ok());
      view.aggs.push_back(&agg);
    }
    views.push_back(std::move(view));
  }
  std::optional<GmdjSignature> sig =
      BuildGmdjSignature(base, det, views);
  return sig;
}

/// What the aggregate cache keys by, per condition: its share_key with its
/// sorted aggregate keys, as a sorted multiset over the node's conditions.
std::vector<std::pair<std::string, std::vector<std::string>>> CacheKeys(
    const GmdjSignature& sig) {
  std::vector<std::pair<std::string, std::vector<std::string>>> keys;
  for (const GmdjCondSignature& cond : sig.conditions) {
    std::vector<std::string> aggs = cond.agg_keys;
    std::sort(aggs.begin(), aggs.end());
    keys.emplace_back(cond.share_key, std::move(aggs));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST_F(SignatureTest, CacheKeysInsensitiveToAggAndConditionOrder) {
  auto make = [&](bool swap_aggs, bool swap_conds,
                  const std::string& ba, const std::string& da) {
    std::vector<AggSpec> aggs1;
    if (swap_aggs) {
      aggs1.push_back(SumOf(Col(da + ".val"), "s"));
      aggs1.push_back(CountStar("c"));
    } else {
      aggs1.push_back(CountStar("c"));
      aggs1.push_back(SumOf(Col(da + ".val"), "s"));
    }
    std::vector<std::pair<ExprPtr, std::vector<AggSpec>>> conds;
    auto theta1 = Eq(Col(ba + ".bk"), Col(da + ".dk"));
    auto theta2 = Gt(Col(da + ".val"), Lit(2.0));
    std::vector<AggSpec> aggs2;
    aggs2.push_back(CountStar("c2"));
    if (swap_conds) {
      conds.emplace_back(std::move(theta2), std::move(aggs2));
      conds.emplace_back(std::move(theta1), std::move(aggs1));
    } else {
      conds.emplace_back(std::move(theta1), std::move(aggs1));
      conds.emplace_back(std::move(theta2), std::move(aggs2));
    }
    return SigFor(catalog_, ba, da, std::move(conds));
  };

  const auto reference = make(false, false, "B", "D");
  ASSERT_TRUE(reference.has_value());
  for (const auto& variant :
       {make(true, false, "B", "D"), make(false, true, "B", "D"),
        make(true, true, "X", "Y")}) {
    ASSERT_TRUE(variant.has_value());
    EXPECT_EQ(CacheKeys(*reference), CacheKeys(*variant));
  }

  // A different theta is different work.
  std::vector<std::pair<ExprPtr, std::vector<AggSpec>>> other;
  std::vector<AggSpec> aggs;
  aggs.push_back(CountStar("c"));
  other.emplace_back(Ne(Col("B.bk"), Col("D.dk")), std::move(aggs));
  const auto different = SigFor(catalog_, "B", "D", std::move(other));
  ASSERT_TRUE(different.has_value());
  EXPECT_NE(CacheKeys(*reference), CacheKeys(*different));
}

TEST_F(SignatureTest, ShareKeyIncludesBothScans) {
  std::vector<std::pair<ExprPtr, std::vector<AggSpec>>> conds;
  std::vector<AggSpec> aggs;
  aggs.push_back(CountStar("c"));
  conds.emplace_back(nullptr, std::move(aggs));
  const auto sig = SigFor(catalog_, "B", "D", std::move(conds));
  ASSERT_TRUE(sig.has_value());
  ASSERT_EQ(sig->conditions.size(), 1u);
  EXPECT_EQ(sig->base_table, "Base");
  EXPECT_EQ(sig->detail_table, "Det");
  EXPECT_NE(sig->conditions[0].share_key.find("Base"), std::string::npos);
  EXPECT_NE(sig->conditions[0].share_key.find("Det"), std::string::npos);
  EXPECT_EQ(sig->conditions[0].theta_key, "true");
}

}  // namespace
}  // namespace gmdj
