#include "planner/query_shape.h"

#include <algorithm>
#include <set>

#include "expr/expr_analysis.h"

namespace gmdj {
namespace planner {
namespace {

// Scalar-expression conjuncts of the AND spine of a predicate tree.
std::vector<const Expr*> ConjunctExprs(const Pred& pred) {
  std::vector<const Expr*> out;
  std::vector<const Pred*> stack = {&pred};
  while (!stack.empty()) {
    const Pred* p = stack.back();
    stack.pop_back();
    if (p->kind() == PredKind::kAnd) {
      const auto* a = static_cast<const AndPred*>(p);
      stack.push_back(&a->lhs());
      stack.push_back(&a->rhs());
    } else if (p->kind() == PredKind::kExpr) {
      for (const Expr* conj :
           SplitConjuncts(static_cast<const ExprPred*>(p)->expr())) {
        out.push_back(conj);
      }
    }
  }
  return out;
}

void CollectMinFrame(const Pred& pred, size_t* min_frame) {
  switch (pred.kind()) {
    case PredKind::kExpr: {
      const Expr& e = static_cast<const ExprPred&>(pred).expr();
      for (const size_t f : FramesUsed(e)) {
        *min_frame = std::min(*min_frame, f);
      }
      return;
    }
    case PredKind::kAnd: {
      const auto& p = static_cast<const AndPred&>(pred);
      CollectMinFrame(p.lhs(), min_frame);
      CollectMinFrame(p.rhs(), min_frame);
      return;
    }
    case PredKind::kOr: {
      const auto& p = static_cast<const OrPred&>(pred);
      CollectMinFrame(p.lhs(), min_frame);
      CollectMinFrame(p.rhs(), min_frame);
      return;
    }
    case PredKind::kNot:
      CollectMinFrame(static_cast<const NotPred&>(pred).input(), min_frame);
      return;
    case PredKind::kExists:
      if (static_cast<const ExistsPred&>(pred).sub().where != nullptr) {
        CollectMinFrame(*static_cast<const ExistsPred&>(pred).sub().where,
                        min_frame);
      }
      return;
    case PredKind::kCompareSub: {
      const auto& p = static_cast<const CompareSubPred&>(pred);
      for (const size_t f : FramesUsed(p.lhs())) {
        *min_frame = std::min(*min_frame, f);
      }
      if (p.sub().where != nullptr) {
        CollectMinFrame(*p.sub().where, min_frame);
      }
      return;
    }
    case PredKind::kQuantSub: {
      const auto& p = static_cast<const QuantSubPred&>(pred);
      for (const size_t f : FramesUsed(p.lhs())) {
        *min_frame = std::min(*min_frame, f);
      }
      if (p.sub().where != nullptr) {
        CollectMinFrame(*p.sub().where, min_frame);
      }
      return;
    }
  }
}

// Bare column name of a reference like "F.SourceIP" (alias qualifiers do
// not exist in the catalog table's schema).
std::string BareName(const std::string& ref) {
  const size_t dot = ref.rfind('.');
  return dot == std::string::npos ? ref : ref.substr(dot + 1);
}

bool IsFrameColumn(const Expr& e, size_t frame) {
  return e.kind() == ExprKind::kColumnRef &&
         static_cast<const ColumnRefExpr&>(e).bound_frame() == frame;
}

void AddTable(const std::string& name, QueryShape* shape) {
  if (std::find(shape->tables.begin(), shape->tables.end(), name) ==
      shape->tables.end()) {
    shape->tables.push_back(name);
  }
}

}  // namespace

Result<QueryShape> ShapeCollector::Collect(const NestedSelect& query) {
  QueryShape shape;
  base_table_ = query.source.table;
  shape.base_table = query.source.table;
  shape.base_rows = TableRows(query.source);
  AddTable(query.source.table, &shape);
  if (query.where != nullptr) {
    GMDJ_RETURN_IF_ERROR(
        Walk(*query.where, /*frame=*/0, /*conjunctive=*/true, &shape));
  }
  return shape;
}

double ShapeCollector::TableRows(const SourceSpec& source) const {
  if (stats_ != nullptr) {
    const auto tstats = stats_->GetFresh(*catalog_, source.table);
    if (tstats != nullptr) {
      double rows = static_cast<double>(tstats->row_count);
      if (source.distinct) {
        // DISTINCT projection: the true cardinality is the NDV of the
        // projected column when there is exactly one.
        if (source.project_cols.size() == 1) {
          const double ndv =
              ColumnNdv(source.table, source.project_cols[0]);
          if (ndv > 0) rows = std::min(rows, ndv);
        } else {
          rows = std::max(1.0, rows / 2);
        }
      }
      return rows;
    }
  }
  const auto table = catalog_->GetTable(source.table);
  if (!table.ok()) return 1000;  // Unknown: neutral default.
  double rows = static_cast<double>((*table)->num_rows());
  if (source.distinct) rows = std::max(1.0, rows / 2);  // Crude NDV guess.
  return rows;
}

double ShapeCollector::ColumnNdv(const std::string& table,
                                 const std::string& ref) const {
  if (stats_ == nullptr) return 0;
  const auto tstats = stats_->GetFresh(*catalog_, table);
  if (tstats == nullptr) return 0;
  const auto catalog_table = catalog_->GetTable(table);
  if (!catalog_table.ok()) return 0;
  const size_t col = (*catalog_table)->schema().TryResolve(BareName(ref));
  if (col == Schema::kNotFound) return 0;
  const stats::ColumnStats* cstats = tstats->column(col);
  return cstats == nullptr ? 0 : cstats->Ndv();
}

Status ShapeCollector::Walk(const Pred& pred, size_t frame, bool conjunctive,
                            QueryShape* shape) {
  switch (pred.kind()) {
    case PredKind::kExpr:
      return Status::OK();
    case PredKind::kAnd: {
      const auto& p = static_cast<const AndPred&>(pred);
      GMDJ_RETURN_IF_ERROR(Walk(p.lhs(), frame, conjunctive, shape));
      return Walk(p.rhs(), frame, conjunctive, shape);
    }
    case PredKind::kOr: {
      const auto& p = static_cast<const OrPred&>(pred);
      GMDJ_RETURN_IF_ERROR(Walk(p.lhs(), frame, false, shape));
      return Walk(p.rhs(), frame, false, shape);
    }
    case PredKind::kNot:
      return Walk(static_cast<const NotPred&>(pred).input(), frame, false,
                  shape);
    case PredKind::kExists:
      return AddSub(static_cast<const ExistsPred&>(pred).sub(), frame,
                    conjunctive, /*exists_like=*/true, shape);
    case PredKind::kQuantSub: {
      const auto& p = static_cast<const QuantSubPred&>(pred);
      const bool all_ne =
          p.quant() == QuantKind::kAll && p.op() == CompareOp::kNe &&
          IsFrameColumn(p.lhs(), frame) &&
          p.sub().select_expr != nullptr &&
          IsFrameColumn(*p.sub().select_expr, frame + 1);
      return AddSub(p.sub(), frame, conjunctive, /*exists_like=*/true, shape,
                    all_ne);
    }
    case PredKind::kCompareSub:
      return AddSub(static_cast<const CompareSubPred&>(pred).sub(), frame,
                    conjunctive, /*exists_like=*/false, shape);
  }
  return Status::OK();
}

Status ShapeCollector::AddSub(const NestedSelect& sub, size_t frame,
                              bool conjunctive, bool exists_like,
                              QueryShape* shape, bool all_ne) {
  SubInfo info;
  info.inner_rows = TableRows(sub.source);
  AddTable(sub.source.table, shape);
  info.exists_like = exists_like;
  info.conjunctive = conjunctive;
  info.top_level = frame == 0;
  info.detail_table = sub.source.table;
  if (!conjunctive) shape->has_disjunctive_sub = true;

  const size_t sub_frame = frame + 1;
  bool uncorrelated = true;
  if (sub.where != nullptr) {
    // Equality correlation: a conjunctive compare between the sub frame
    // and the enclosing frame.
    for (const Expr* conj : ConjunctExprs(*sub.where)) {
      if (conj->kind() != ExprKind::kCompare) continue;
      const auto& cmp = static_cast<const CompareExpr&>(*conj);
      if (cmp.op() != CompareOp::kEq) continue;
      const auto lf = FramesUsed(cmp.lhs());
      const auto rf = FramesUsed(cmp.rhs());
      const bool lhs_local = lf == std::set<size_t>{sub_frame};
      const bool rhs_local = rf == std::set<size_t>{sub_frame};
      const bool lhs_outer = !lf.empty() && *lf.rbegin() < sub_frame;
      const bool rhs_outer = !rf.empty() && *rf.rbegin() < sub_frame;
      if ((lhs_local && rhs_outer) || (rhs_local && lhs_outer)) {
        info.eq_correlated = true;
        // Correlation-column NDVs, when both sides are plain column refs
        // (the local side over this block's table; the outer side over
        // the outermost base — the only frame whose table we know here).
        const Expr& local = lhs_local ? cmp.lhs() : cmp.rhs();
        const Expr& outer = lhs_local ? cmp.rhs() : cmp.lhs();
        if (local.kind() == ExprKind::kColumnRef) {
          const auto& ref = static_cast<const ColumnRefExpr&>(local);
          info.detail_corr_ndv = ColumnNdv(sub.source.table, ref.ref());
        }
        if (outer.kind() == ExprKind::kColumnRef) {
          const auto& ref = static_cast<const ColumnRefExpr&>(outer);
          if (ref.bound_frame() == 0) {
            info.base_corr_ndv = ColumnNdv(base_table_, ref.ref());
          }
        }
      }
    }
    // Non-neighboring: any reference below the immediately enclosing
    // frame, anywhere in the block.
    size_t min_frame = sub_frame;
    CollectMinFrame(*sub.where, &min_frame);
    uncorrelated = min_frame == sub_frame;
    if (sub_frame >= 2 && min_frame < sub_frame - 1) {
      info.non_neighboring = true;
      shape->has_non_neighboring = true;
    }
    // Recurse into nested blocks.
    const size_t before = shape->subs.size();
    GMDJ_RETURN_IF_ERROR(Walk(*sub.where, sub_frame, conjunctive, shape));
    info.leaf = shape->subs.size() == before;
  }
  info.anti_probe = all_ne && conjunctive && uncorrelated && info.leaf;
  shape->has_anti_probe |= info.anti_probe;
  shape->subs.push_back(std::move(info));
  return Status::OK();
}

}  // namespace planner
}  // namespace gmdj
