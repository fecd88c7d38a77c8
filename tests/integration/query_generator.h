#ifndef GMDJ_TESTS_INTEGRATION_QUERY_GENERATOR_H_
#define GMDJ_TESTS_INTEGRATION_QUERY_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "expr/expr_builder.h"
#include "nested/nested_builder.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace gmdj {
namespace testutil {

/// Random nested-query generator shared by the property-based
/// differential suites: random subquery kinds, operators, boolean
/// structure, and correlation patterns over random NULL-bearing tables.
/// Every consumer runs the same queries under two engines (or two
/// strategies) and asserts identical rows.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  /// Random tables: B(k, x), R(k, y), S(k, z) with NULLs and skew.
  void PopulateCatalog(Catalog* catalog) {
    catalog->PutTable("B", RandomTable("B", {"k", "x"}, 2, 25));
    catalog->PutTable("R", RandomTable("R", {"k", "y"}, 0, 40));
    catalog->PutTable("S", RandomTable("S", {"k", "z"}, 0, 30));
  }

  NestedSelect RandomQuery() {
    NestedSelect q;
    q.source = From("B", "B");
    q.where = RandomPred(/*depth=*/0, /*enclosing=*/"B");
    return q;
  }

 private:
  Table RandomTable(const std::string& qual,
                    const std::vector<std::string>& cols, int min_rows,
                    int max_rows) {
    std::vector<std::string> specs;
    for (const std::string& c : cols) specs.push_back(qual + "." + c);
    Table out = MakeTable(specs, {});
    const int n = static_cast<int>(rng_.Uniform(min_rows, max_rows));
    for (int i = 0; i < n; ++i) {
      Row row;
      for (size_t c = 0; c < cols.size(); ++c) {
        row.push_back(rng_.Chance(0.12) ? Value::Null()
                                        : Value(rng_.Uniform(0, 6)));
      }
      out.AppendRow(std::move(row));
    }
    return out;
  }

  CompareOp RandomOp() {
    static constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                         CompareOp::kLt, CompareOp::kLe,
                                         CompareOp::kGt, CompareOp::kGe};
    return kOps[rng_.Uniform(0, 5)];
  }

  // A scalar leaf over the enclosing alias.
  PredPtr RandomLeaf(const std::string& enclosing) {
    return WherePred(Cmp(Col(enclosing + ".x"), RandomOp(),
                         Lit(rng_.Uniform(0, 6))));
  }

  std::string FreshAlias() {
    return StrCat({"T", std::to_string(++alias_counter_)});
  }

  std::unique_ptr<NestedSelect> RandomSubBlock(int depth,
                                               const std::string& enclosing,
                                               std::string* alias_out,
                                               const char** value_col) {
    const bool use_r = rng_.Chance(0.5);
    const std::string table = use_r ? "R" : "S";
    *value_col = use_r ? "y" : "z";
    const std::string alias = FreshAlias();
    *alias_out = alias;
    // Correlation: equality (indexable) or inequality, or none.
    PredPtr where;
    const int corr = static_cast<int>(rng_.Uniform(0, 3));
    if (corr == 0) {
      where = WherePred(Eq(Col(alias + ".k"), Col(enclosing + ".k")));
    } else if (corr == 1) {
      where = WherePred(Cmp(Col(alias + ".k"), RandomOp(),
                            Col(enclosing + ".k")));
    }
    // Optional local filter.
    if (rng_.Chance(0.4)) {
      PredPtr local = WherePred(Cmp(Col(alias + "." + *value_col), RandomOp(),
                                    Lit(rng_.Uniform(0, 6))));
      where = where == nullptr
                  ? std::move(local)
                  : AndP(std::move(where), std::move(local));
    }
    // Optional one level of nesting (kept shallow: the native reference is
    // exponential in depth). The inner block correlates to its parent, or
    // — with some probability — straight to the outermost block, which is
    // a *non-neighboring* predicate exercising the Theorem 3.3/3.4
    // push-down in the GMDJ translation.
    if (depth == 0 && rng_.Chance(0.3)) {
      const std::string inner_alias = FreshAlias();
      const std::string corr_target =
          rng_.Chance(0.3) ? std::string("B") : alias;
      PredPtr inner_where =
          WherePred(Eq(Col(inner_alias + ".k"), Col(corr_target + ".k")));
      PredPtr inner = rng_.Chance(0.5)
                          ? Exists(Sub(From("R", inner_alias),
                                       std::move(inner_where)))
                          : NotExists(Sub(From("R", inner_alias),
                                          std::move(inner_where)));
      where = where == nullptr
                  ? std::move(inner)
                  : AndP(std::move(where), std::move(inner));
    }
    return Sub(From(table, alias), std::move(where));
  }

  PredPtr RandomSubqueryPred(int depth, const std::string& enclosing) {
    std::string alias;
    const char* value_col = nullptr;
    auto sub = RandomSubBlock(depth, enclosing, &alias, &value_col);
    switch (rng_.Uniform(0, 4)) {
      case 0:
        return Exists(std::move(sub));
      case 1:
        return NotExists(std::move(sub));
      case 2: {
        sub->select_expr = Col(alias + "." + value_col);
        const QuantKind quant =
            rng_.Chance(0.5) ? QuantKind::kSome : QuantKind::kAll;
        return std::make_unique<QuantSubPred>(Col(enclosing + ".x"),
                                              RandomOp(), quant,
                                              std::move(sub));
      }
      default: {
        // Aggregate comparison (scalar comparisons would need singleton
        // guarantees; aggregates are total).
        AggSpec agg = [&] {
          switch (rng_.Uniform(0, 3)) {
            case 0:
              return CountStar("a");
            case 1:
              return SumOf(Col(alias + "." + value_col), "a");
            case 2:
              return MinOf(Col(alias + "." + value_col), "a");
            default:
              return AvgOf(Col(alias + "." + value_col), "a");
          }
        }();
        sub->select_agg = std::move(agg);
        return CompareSub(Col(enclosing + ".x"), RandomOp(), std::move(sub));
      }
    }
  }

  PredPtr RandomPred(int depth, const std::string& enclosing) {
    const int pick = static_cast<int>(rng_.Uniform(0, 9));
    if (depth >= 2 || pick <= 2) {
      return rng_.Chance(0.7) ? RandomSubqueryPred(depth, enclosing)
                              : RandomLeaf(enclosing);
    }
    if (pick <= 4) {
      return AndP(RandomPred(depth + 1, enclosing),
                  RandomPred(depth + 1, enclosing));
    }
    if (pick <= 6) {
      return OrP(RandomPred(depth + 1, enclosing),
                 RandomPred(depth + 1, enclosing));
    }
    if (pick == 7) {
      return NotP(RandomPred(depth + 1, enclosing));
    }
    return RandomSubqueryPred(depth, enclosing);
  }

  Rng rng_;
  int alias_counter_ = 0;
};

}  // namespace testutil
}  // namespace gmdj

#endif  // GMDJ_TESTS_INTEGRATION_QUERY_GENERATOR_H_
