// Deeper structural stress: three-level linear nesting, push-down inside
// push-down, many same-level subqueries (the 64-condition ceiling), and
// empty-table corners — all cross-checked against the native reference.

#include "common/str_util.h"
#include "engine/olap_engine.h"
#include "expr/expr_builder.h"
#include "gtest/gtest.h"
#include "nested/nested_builder.h"
#include "test_util.h"

namespace gmdj {
namespace {

using testutil::ExpectAllStrategiesAgree;
using testutil::MakeTable;
using testutil::SameRows;

class DeepNestingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.catalog()->PutTable(
        "A", MakeTable({"A.k", "A.x"}, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
    engine_.catalog()->PutTable(
        "B", MakeTable({"B.k", "B.a"},
                       {{1, 1}, {2, 1}, {3, 2}, {4, 3}, {5, 9}}));
    engine_.catalog()->PutTable(
        "C", MakeTable({"C.k", "C.b"},
                       {{1, 1}, {2, 2}, {3, 3}, {4, 5}, {5, 9}}));
    engine_.catalog()->PutTable(
        "D", MakeTable({"D.c"}, {{1}, {3}, {4}}));
  }
  OlapEngine engine_;
};

// A -> B -> C -> D, every correlation neighboring: a pure Theorem 3.2
// chain, three GMDJs threaded through the detail inputs and zero joins.
TEST_F(DeepNestingTest, ThreeLevelLinearChain) {
  NestedSelect q;
  q.source = From("A", "A");
  q.where = Exists(Sub(
      From("B", "B"),
      AndP(WherePred(Eq(Col("B.a"), Col("A.k"))),
           Exists(Sub(From("C", "C"),
                      AndP(WherePred(Eq(Col("C.b"), Col("B.k"))),
                           Exists(Sub(From("D", "D"),
                                      WherePred(Eq(Col("D.c"),
                                                   Col("C.k")))))))))));
  ExpectAllStrategiesAgree(&engine_, q, "three-level chain");
  ASSERT_TRUE(engine_.Execute(q, Strategy::kGmdj).ok());
  EXPECT_EQ(engine_.last_stats().gmdj_ops, 3u);
  EXPECT_EQ(engine_.last_stats().joins, 0u);
}

// Mixed quantifiers down the chain, with negations at two levels.
TEST_F(DeepNestingTest, MixedQuantifierChain) {
  NestedSelect q;
  q.source = From("A", "A");
  q.where = NotExists(Sub(
      From("B", "B"),
      AndP(WherePred(Eq(Col("B.a"), Col("A.k"))),
           AllSub(Col("B.k"), CompareOp::kNe,
                  SubSelect(From("C", "C"), Col("C.b"),
                            WherePred(Gt(Col("C.k"), Lit(3))))))));
  ExpectAllStrategiesAgree(&engine_, q, "mixed quantifier chain");
}

// The innermost block references BOTH the middle and the outermost
// scopes; the middle block also references the outermost: push-down with
// a second-level dependency.
TEST_F(DeepNestingTest, DoublyCorrelatedInnermost) {
  NestedSelect q;
  q.source = From("A", "A");
  q.where = Exists(Sub(
      From("B", "B"),
      AndP(WherePred(Le(Col("B.a"), Col("A.x"))),
           Exists(Sub(From("C", "C"),
                      WherePred(And(Eq(Col("C.b"), Col("B.k")),
                                    Ge(Col("C.k"), Col("A.k")))))))));
  const Table result =
      ExpectAllStrategiesAgree(&engine_, q, "doubly correlated innermost");
  EXPECT_GT(result.num_rows(), 0u);
  // The GMDJ path must have introduced exactly one join (Theorem 3.3/3.4).
  ASSERT_TRUE(engine_.Execute(q, Strategy::kGmdj).ok());
  EXPECT_EQ(engine_.last_stats().joins, 1u);
}

// Non-neighboring correlation at depth three (A referenced from D's
// block): two push-downs.
TEST_F(DeepNestingTest, NonNeighboringAtDepthThree) {
  NestedSelect q;
  q.source = From("A", "A");
  q.where = Exists(Sub(
      From("B", "B"),
      AndP(WherePred(Eq(Col("B.a"), Col("A.k"))),
           Exists(Sub(
               From("C", "C"),
               AndP(WherePred(Eq(Col("C.b"), Col("B.k"))),
                    Exists(Sub(From("D", "D"),
                               WherePred(Eq(Col("D.c"),
                                            Col("A.k")))))))))));
  ExpectAllStrategiesAgree(&engine_, q, "non-neighboring depth three");
}

// Twelve same-level EXISTS over the same table: coalescing folds them
// into a single GMDJ with twelve conditions.
TEST_F(DeepNestingTest, ManySameLevelSubqueries) {
  NestedSelect q;
  q.source = From("A", "A");
  PredPtr where;
  for (int i = 0; i < 12; ++i) {
    const std::string alias = StrCat({"B", std::to_string(i)});
    PredPtr leaf =
        i % 3 == 2
            ? NotExists(Sub(From("B", alias),
                            WherePred(And(Eq(Col(alias + ".a"), Col("A.k")),
                                          Gt(Col(alias + ".k"),
                                             Lit(100 + i))))))
            : Exists(Sub(From("B", alias),
                         WherePred(And(Eq(Col(alias + ".a"), Col("A.k")),
                                       Ge(Col(alias + ".k"), Lit(i / 4))))));
    where = where == nullptr ? std::move(leaf)
                             : AndP(std::move(where), std::move(leaf));
  }
  q.where = std::move(where);
  ExpectAllStrategiesAgree(&engine_, q, "twelve subqueries");
  ASSERT_TRUE(engine_.Execute(q, Strategy::kGmdjOptimized).ok());
  EXPECT_EQ(engine_.last_stats().gmdj_ops, 1u);  // All coalesced.
}

TEST_F(DeepNestingTest, EmptyTablesEverywhere) {
  engine_.catalog()->PutTable("Empty", MakeTable({"E.k"}, {}));
  // Empty inner at depth 2.
  NestedSelect q;
  q.source = From("A", "A");
  q.where = Exists(Sub(
      From("B", "B"),
      AndP(WherePred(Eq(Col("B.a"), Col("A.k"))),
           NotExists(Sub(From("Empty", "E"),
                         WherePred(Eq(Col("E.k"), Col("B.k"))))))));
  const Table r = ExpectAllStrategiesAgree(&engine_, q, "empty inner");
  EXPECT_GT(r.num_rows(), 0u);  // NOT EXISTS over empty is vacuously true.

  // Empty middle block: nothing can satisfy EXISTS.
  NestedSelect q2;
  q2.source = From("A", "A");
  q2.where = Exists(Sub(
      From("Empty", "E"),
      AndP(WherePred(Eq(Col("E.k"), Col("A.k"))),
           Exists(Sub(From("B", "B"),
                      WherePred(Eq(Col("B.k"), Col("E.k"))))))));
  const Table r2 = ExpectAllStrategiesAgree(&engine_, q2, "empty middle");
  EXPECT_EQ(r2.num_rows(), 0u);
}

// Subquery predicates on both sides of an OR, each itself nested — the
// counting translation's home turf (joins cannot express this).
TEST_F(DeepNestingTest, DisjunctionOfNestedSubqueries) {
  auto nested_exists = [](const char* mid_alias, const char* in_alias,
                          int threshold) {
    return Exists(Sub(
        From("B", mid_alias),
        AndP(WherePred(Eq(Col(std::string(mid_alias) + ".a"), Col("A.k"))),
             Exists(Sub(From("C", in_alias),
                        WherePred(And(Eq(Col(std::string(in_alias) + ".b"),
                                         Col(std::string(mid_alias) + ".k")),
                                      Gt(Col(std::string(in_alias) + ".k"),
                                         Lit(threshold)))))))));
  };
  NestedSelect q;
  q.source = From("A", "A");
  q.where = OrP(nested_exists("B1", "C1", 3), nested_exists("B2", "C2", 4));
  ExpectAllStrategiesAgree(&engine_, q, "disjunction of nested");
}

}  // namespace
}  // namespace gmdj
