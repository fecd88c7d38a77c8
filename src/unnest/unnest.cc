#include "unnest/unnest.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "exec/group_aggregate.h"
#include "exec/join.h"
#include "exec/nodes.h"
#include "exec/sort_merge_join.h"
#include "expr/expr_analysis.h"
#include "expr/expr_builder.h"
#include "nested/normalize.h"

namespace gmdj {
namespace {

ExprPtr AndMaybe(ExprPtr a, ExprPtr b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  return And(std::move(a), std::move(b));
}

class Unnester {
 public:
  Unnester(const Catalog& catalog, const UnnestOptions& options)
      : catalog_(catalog), options_(options) {}

  Result<PlanPtr> Run(std::unique_ptr<NestedSelect> query) {
    NormalizeSelect(query.get());
    GMDJ_RETURN_IF_ERROR(query->Bind(catalog_, {}));
    std::vector<const Schema*> frames = {&query->schema()};
    std::vector<ExprPtr> corr;
    GMDJ_ASSIGN_OR_RETURN(PlanPtr plan,
                          UnnestBlock(query.get(), frames, &corr));
    if (!corr.empty()) {
      return Status::Internal("top-level block produced correlated preds");
    }
    return plan;
  }

 private:
  std::string FreshName(const char* stem) {
    return "__" + std::string(stem) + std::to_string(++name_counter_);
  }

  ExprPtr CloneQualified(const Expr& expr,
                         const std::vector<const Schema*>& frames) const {
    ExprPtr out = expr.Clone();
    QualifyColumnRefs(out.get(), frames);
    return out;
  }

  /// Converts a subquery-free predicate subtree to one expression.
  Result<ExprPtr> PredAsExpr(const Pred& pred,
                             const std::vector<const Schema*>& frames) const {
    switch (pred.kind()) {
      case PredKind::kExpr:
        return CloneQualified(static_cast<const ExprPred&>(pred).expr(),
                              frames);
      case PredKind::kAnd: {
        const auto& p = static_cast<const AndPred&>(pred);
        GMDJ_ASSIGN_OR_RETURN(ExprPtr l, PredAsExpr(p.lhs(), frames));
        GMDJ_ASSIGN_OR_RETURN(ExprPtr r, PredAsExpr(p.rhs(), frames));
        return And(std::move(l), std::move(r));
      }
      case PredKind::kOr: {
        const auto& p = static_cast<const OrPred&>(pred);
        GMDJ_ASSIGN_OR_RETURN(ExprPtr l, PredAsExpr(p.lhs(), frames));
        GMDJ_ASSIGN_OR_RETURN(ExprPtr r, PredAsExpr(p.rhs(), frames));
        return Or(std::move(l), std::move(r));
      }
      case PredKind::kNot: {
        const auto& p = static_cast<const NotPred&>(pred);
        GMDJ_ASSIGN_OR_RETURN(ExprPtr in, PredAsExpr(p.input(), frames));
        return Not(std::move(in));
      }
      default:
        return Status::Internal("PredAsExpr on subquery predicate");
    }
  }

  static bool ContainsSubPred(const Pred& pred) {
    switch (pred.kind()) {
      case PredKind::kExpr:
        return false;
      case PredKind::kAnd: {
        const auto& p = static_cast<const AndPred&>(pred);
        return ContainsSubPred(p.lhs()) || ContainsSubPred(p.rhs());
      }
      case PredKind::kOr: {
        const auto& p = static_cast<const OrPred&>(pred);
        return ContainsSubPred(p.lhs()) || ContainsSubPred(p.rhs());
      }
      case PredKind::kNot:
        return ContainsSubPred(static_cast<const NotPred&>(pred).input());
      case PredKind::kExists:
      case PredKind::kCompareSub:
      case PredKind::kQuantSub:
        return true;
    }
    return false;
  }

  /// Unnests one block. Returns a plan producing the block's source rows
  /// filtered by all *local* predicates and with all nested subquery
  /// predicates already turned into joins; correlated scalar conjuncts
  /// (free references into enclosing scopes) are cloned into `corr` for
  /// the caller to fold into its join predicate.
  Result<PlanPtr> UnnestBlock(NestedSelect* block,
                              const std::vector<const Schema*>& frames,
                              std::vector<ExprPtr>* corr) {
    const size_t fs = frames.size() - 1;
    PlanPtr plan = block->SourcePlan();

    std::vector<ExprPtr> locals;
    std::vector<Pred*> sub_preds;
    if (block->where != nullptr) {
      GMDJ_RETURN_IF_ERROR(
          Classify(block->where.get(), frames, fs, &locals, corr, &sub_preds));
    }
    if (!locals.empty()) {
      plan = std::make_unique<FilterNode>(std::move(plan),
                                          AndAll(std::move(locals)));
    }
    for (Pred* sub : sub_preds) {
      GMDJ_ASSIGN_OR_RETURN(plan,
                            ApplySubPred(std::move(plan), *sub, frames));
    }
    return plan;
  }

  /// Splits the AND-chain of `pred` into local filters, correlated
  /// conjuncts, and subquery predicates.
  Status Classify(Pred* pred, const std::vector<const Schema*>& frames,
                  size_t fs, std::vector<ExprPtr>* locals,
                  std::vector<ExprPtr>* corr, std::vector<Pred*>* sub_preds) {
    if (pred->kind() == PredKind::kAnd) {
      auto* p = static_cast<AndPred*>(pred);
      GMDJ_RETURN_IF_ERROR(
          Classify(&p->lhs(), frames, fs, locals, corr, sub_preds));
      return Classify(&p->rhs(), frames, fs, locals, corr, sub_preds);
    }
    switch (pred->kind()) {
      case PredKind::kExists:
      case PredKind::kCompareSub:
      case PredKind::kQuantSub:
        sub_preds->push_back(pred);
        return Status::OK();
      default:
        break;
    }
    if (ContainsSubPred(*pred)) {
      return Status::Unimplemented(
          "join unnesting requires subquery predicates in conjunctive "
          "position (disjunctive/negated subqueries are not flattenable "
          "with joins)");
    }
    GMDJ_ASSIGN_OR_RETURN(ExprPtr expr, PredAsExpr(*pred, frames));
    // Split expression-level conjunctions too: `corr AND local` inside one
    // leaf must contribute a join key and a pushed-down filter separately.
    for (const Expr* conj : SplitConjuncts(*expr)) {
      ExprPtr piece = conj->Clone();
      size_t min_frame = fs;
      for (const size_t f : FramesUsed(*piece)) {
        min_frame = std::min(min_frame, f);
      }
      if (min_frame == fs) {
        locals->push_back(std::move(piece));
      } else if (min_frame + 1 == fs) {
        corr->push_back(std::move(piece));
      } else {
        return Status::Unimplemented(
            "join unnesting supports only neighboring correlation "
            "predicates");
      }
    }
    return Status::OK();
  }

  /// One equality correlation split into its two sides.
  struct KeyPair {
    ExprPtr outer;  // References frames <= fs.
    ExprPtr sub;    // References only the subquery frame.
  };

  /// Partitions correlated conjuncts into hash-join keys and residual
  /// predicates (bound over [left, right]).
  /// `extract` is false when the caller wants a pure predicate join (the
  /// nested-loop "no indexes" configuration); the aggregate path always
  /// extracts — it needs the keys for grouping, not for join dispatch.
  void SplitKeys(std::vector<ExprPtr> corr, size_t sub_frame, bool extract,
                 std::vector<KeyPair>* keys, std::vector<ExprPtr>* residual) {
    for (ExprPtr& e : corr) {
      if (extract && e->kind() == ExprKind::kCompare) {
        auto* cmp = static_cast<CompareExpr*>(e.get());
        if (cmp->op() == CompareOp::kEq) {
          const auto side = [&](const Expr& x) {
            // 0: outer-only, 1: sub-only, -1: mixed/none.
            const std::set<size_t> used = FramesUsed(x);
            if (used.empty()) return -1;
            bool outer = true, sub = true;
            for (const size_t f : used) {
              if (f >= sub_frame) outer = false;
              if (f < sub_frame) sub = false;
            }
            if (outer) return 0;
            if (sub) return 1;
            return -1;
          };
          const int ls = side(cmp->lhs());
          const int rs = side(cmp->rhs());
          if (ls == 0 && rs == 1) {
            keys->push_back(KeyPair{cmp->lhs().Clone(), cmp->rhs().Clone()});
            continue;
          }
          if (ls == 1 && rs == 0) {
            keys->push_back(KeyPair{cmp->rhs().Clone(), cmp->lhs().Clone()});
            continue;
          }
        }
      }
      residual->push_back(std::move(e));
    }
  }

  /// Builds a semi or anti join of `left` against `detail` over the
  /// correlated predicates.
  PlanPtr ExistentialJoin(PlanPtr left, PlanPtr detail, JoinKind kind,
                          std::vector<ExprPtr> corr, size_t sub_frame) {
    std::vector<KeyPair> keys;
    std::vector<ExprPtr> residual;
    SplitKeys(std::move(corr), sub_frame, options_.use_hash_joins, &keys,
              &residual);
    if (!keys.empty()) {
      std::vector<JoinKey> join_keys;
      join_keys.reserve(keys.size());
      for (KeyPair& k : keys) {
        join_keys.emplace_back(std::move(k.outer), std::move(k.sub));
      }
      ExprPtr res =
          residual.empty() ? nullptr : AndAll(std::move(residual));
      if (options_.use_sort_merge) {
        return std::make_unique<SortMergeJoinNode>(
            std::move(left), std::move(detail), kind, std::move(join_keys),
            std::move(res));
      }
      return std::make_unique<HashJoinNode>(std::move(left),
                                            std::move(detail), kind,
                                            std::move(join_keys),
                                            std::move(res));
    }
    ExprPtr pred = residual.empty() ? nullptr : AndAll(std::move(residual));
    return std::make_unique<NLJoinNode>(std::move(left), std::move(detail),
                                        kind, std::move(pred));
  }

  Result<PlanPtr> ApplySubPred(PlanPtr left, Pred& pred,
                               const std::vector<const Schema*>& frames) {
    const size_t fs = frames.size() - 1;  // Enclosing block's frame.
    switch (pred.kind()) {
      case PredKind::kExists: {
        auto& p = static_cast<ExistsPred&>(pred);
        std::vector<const Schema*> sub_frames = frames;
        sub_frames.push_back(&p.sub().schema());
        std::vector<ExprPtr> corr;
        GMDJ_ASSIGN_OR_RETURN(
            PlanPtr detail,
            UnnestBlock(&p.mutable_sub(), sub_frames, &corr));
        return ExistentialJoin(std::move(left), std::move(detail),
                               p.negated() ? JoinKind::kAnti : JoinKind::kSemi,
                               std::move(corr), fs + 1);
      }
      case PredKind::kQuantSub: {
        auto& p = static_cast<QuantSubPred&>(pred);
        std::vector<const Schema*> sub_frames = frames;
        sub_frames.push_back(&p.sub().schema());
        std::vector<ExprPtr> corr;
        GMDJ_ASSIGN_OR_RETURN(
            PlanPtr detail,
            UnnestBlock(&p.mutable_sub(), sub_frames, &corr));
        ExprPtr cmp = Cmp(CloneQualified(p.lhs(), frames), p.op(),
                          CloneQualified(*p.sub().select_expr, sub_frames));
        if (p.quant() == QuantKind::kSome) {
          corr.push_back(std::move(cmp));
          return ExistentialJoin(std::move(left), std::move(detail),
                                 JoinKind::kSemi, std::move(corr), fs + 1);
        }
        // ALL: the subquery rows whose comparison is FALSE *or UNKNOWN*
        // are witnesses of failure; a tuple qualifies iff it has none.
        corr.push_back(IsNotTrue(std::move(cmp)));
        if (options_.all_via_outer_join_count) {
          return AllViaOuterJoinCount(std::move(left), std::move(detail),
                                      std::move(corr), frames);
        }
        return ExistentialJoin(std::move(left), std::move(detail),
                               JoinKind::kAnti, std::move(corr), fs + 1);
      }
      case PredKind::kCompareSub: {
        auto& p = static_cast<CompareSubPred&>(pred);
        return ApplyCompareSub(std::move(left), p, frames);
      }
      default:
        return Status::Internal("ApplySubPred on non-subquery predicate");
    }
  }

  /// The historically faithful ALL unnesting: left-outer-join the failure
  /// witnesses, count them per outer tuple, keep tuples with zero. The
  /// full witness join is materialized — no early termination.
  Result<PlanPtr> AllViaOuterJoinCount(
      PlanPtr left, PlanPtr detail, std::vector<ExprPtr> witness_pred,
      const std::vector<const Schema*>& frames) {
    const size_t fs = frames.size() - 1;
    const Schema left_schema = *frames[fs];
    const std::string rid = FreshName("rid");
    PlanPtr rid_left =
        std::make_unique<AttachRowIdNode>(std::move(left), rid);

    // Mark detail rows so the outer join's NULL padding is countable.
    const std::string marker = FreshName("m");
    {
      std::vector<ProjItem> items;
      // Keep the detail columns (the witness predicate references them).
      // Prepare the detail to learn its schema.
      GMDJ_RETURN_IF_ERROR(detail->Prepare(catalog_));
      for (const Field& f : detail->output_schema().fields()) {
        items.emplace_back(Col(f.QualifiedName()), f.name, f.qualifier);
      }
      items.emplace_back(Lit(int64_t{1}), marker);
      detail = std::make_unique<ProjectNode>(std::move(detail),
                                             std::move(items));
    }

    PlanPtr joined = std::make_unique<NLJoinNode>(
        std::move(rid_left), std::move(detail), JoinKind::kLeftOuter,
        AndAll(std::move(witness_pred)));

    // Group by the outer tuple (rid + payload columns), counting markers.
    std::vector<GroupItem> groups;
    groups.emplace_back(Col(rid), rid);
    for (const Field& f : left_schema.fields()) {
      groups.emplace_back(Col(f.QualifiedName()), f.name);
    }
    std::vector<AggSpec> aggs;
    aggs.push_back(CountOf(Col(marker), FreshName("c")));
    const std::string count_name = aggs.back().output_name;
    PlanPtr agg = std::make_unique<GroupAggregateNode>(
        std::move(joined), std::move(groups), std::move(aggs));
    PlanPtr filtered = std::make_unique<FilterNode>(
        std::move(agg), Eq(Col(count_name), Lit(int64_t{0})));

    std::vector<ProjItem> restore;
    for (const Field& f : left_schema.fields()) {
      restore.emplace_back(Col(f.name), f.name, f.qualifier);
    }
    return PlanPtr(std::make_unique<ProjectNode>(std::move(filtered),
                                                 std::move(restore)));
  }

  /// Aggregate or scalar comparison subquery: group-by + left outer join
  /// (the Kim / Ganski-Wong / Muralikrishna rewrite, COUNT-bug safe).
  Result<PlanPtr> ApplyCompareSub(PlanPtr left, CompareSubPred& p,
                                  const std::vector<const Schema*>& frames) {
    const size_t fs = frames.size() - 1;
    const Schema left_schema = *frames[fs];
    std::vector<const Schema*> sub_frames = frames;
    sub_frames.push_back(&p.sub().schema());
    std::vector<ExprPtr> corr;
    GMDJ_ASSIGN_OR_RETURN(PlanPtr detail,
                          UnnestBlock(&p.mutable_sub(), sub_frames, &corr));

    std::vector<KeyPair> keys;
    std::vector<ExprPtr> residual;
    SplitKeys(std::move(corr), fs + 1, /*extract=*/true, &keys, &residual);
    if (!residual.empty()) {
      return Status::Unimplemented(
          "join unnesting of comparison subqueries requires pure equality "
          "correlation (aggregation cannot be grouped otherwise)");
    }

    // Group the subquery by its side of each correlation equality.
    std::vector<GroupItem> groups;
    std::vector<ExprPtr> outer_keys;
    std::vector<std::string> group_names;
    for (KeyPair& k : keys) {
      const std::string g = FreshName("g");
      groups.emplace_back(std::move(k.sub), g);
      outer_keys.push_back(std::move(k.outer));
      group_names.push_back(g);
    }

    std::vector<AggSpec> aggs;
    std::string agg_col;
    std::string count_col;
    AggKind agg_kind;
    if (p.is_aggregate()) {
      AggSpec spec = p.sub().select_agg->Clone();
      if (spec.arg != nullptr) QualifyColumnRefs(spec.arg.get(), sub_frames);
      agg_kind = spec.kind;
      agg_col = FreshName("a");
      spec.output_name = agg_col;
      aggs.push_back(std::move(spec));
    } else {
      // Scalar subquery: count for the cardinality check, min to extract
      // the single value.
      agg_kind = AggKind::kMin;
      count_col = FreshName("c");
      agg_col = FreshName("v");
      aggs.push_back(CountStar(count_col));
      aggs.push_back(
          MinOf(CloneQualified(*p.sub().select_expr, sub_frames), agg_col));
    }
    PlanPtr agg_plan = std::make_unique<GroupAggregateNode>(
        std::move(detail), std::move(groups), std::move(aggs));
    if (!count_col.empty()) {
      agg_plan = std::make_unique<AssertNode>(
          std::move(agg_plan), Le(Col(count_col), Lit(int64_t{1})),
          "scalar subquery returned more than one row");
    }

    // Left outer join B with the aggregated table on the correlation key.
    PlanPtr joined;
    if (!outer_keys.empty() && options_.use_hash_joins) {
      std::vector<JoinKey> join_keys;
      for (size_t i = 0; i < outer_keys.size(); ++i) {
        join_keys.emplace_back(std::move(outer_keys[i]),
                               Col(group_names[i]));
      }
      if (options_.use_sort_merge) {
        joined = std::make_unique<SortMergeJoinNode>(
            std::move(left), std::move(agg_plan), JoinKind::kLeftOuter,
            std::move(join_keys), nullptr);
      } else {
        joined = std::make_unique<HashJoinNode>(
            std::move(left), std::move(agg_plan), JoinKind::kLeftOuter,
            std::move(join_keys), nullptr);
      }
    } else {
      ExprPtr pred;
      for (size_t i = 0; i < outer_keys.size(); ++i) {
        pred = AndMaybe(std::move(pred),
                        Eq(std::move(outer_keys[i]), Col(group_names[i])));
      }
      joined = std::make_unique<NLJoinNode>(std::move(left),
                                            std::move(agg_plan),
                                            JoinKind::kLeftOuter,
                                            std::move(pred));
    }

    // COUNT of an empty group is 0, not NULL: patch the outer join.
    ExprPtr agg_ref = Col(agg_col);
    if (p.is_aggregate() && (agg_kind == AggKind::kCount ||
                             agg_kind == AggKind::kCountStar)) {
      agg_ref = std::make_unique<CoalesceExpr>(std::move(agg_ref),
                                               Lit(int64_t{0}));
    }
    PlanPtr filtered = std::make_unique<FilterNode>(
        std::move(joined),
        Cmp(CloneQualified(p.lhs(), frames), p.op(), std::move(agg_ref)));

    // Project the group/aggregate columns away.
    std::vector<ProjItem> items;
    for (const Field& f : left_schema.fields()) {
      items.emplace_back(Col(f.QualifiedName()), f.name, f.qualifier);
    }
    return PlanPtr(std::make_unique<ProjectNode>(std::move(filtered),
                                                 std::move(items)));
  }

  const Catalog& catalog_;
  UnnestOptions options_;
  int name_counter_ = 0;
};

}  // namespace

Result<PlanPtr> UnnestToJoins(std::unique_ptr<NestedSelect> query,
                              const Catalog& catalog,
                              const UnnestOptions& options) {
  Unnester unnester(catalog, options);
  return unnester.Run(std::move(query));
}

}  // namespace gmdj
