#include "nested/nested_ast.h"

#include "common/str_util.h"
#include "exec/nodes.h"
#include "expr/expr_builder.h"

namespace gmdj {

// --------------------------------------------------------------- SourceSpec

PlanPtr SourceSpec::ToPlan() const {
  PlanPtr plan = std::make_unique<TableScanNode>(table, alias);
  if (!project_cols.empty()) {
    std::vector<ProjItem> items;
    items.reserve(project_cols.size());
    // Projected base columns are re-qualified with the block's alias (or
    // the table name when unaliased) so they never collide with same-named
    // subquery columns.
    const std::string qualifier = alias.empty() ? table : alias;
    for (const std::string& col : project_cols) {
      const size_t dot = col.find('.');
      items.emplace_back(Col(col),
                         dot == std::string::npos ? col : col.substr(dot + 1),
                         qualifier);
    }
    plan = std::make_unique<ProjectNode>(std::move(plan), std::move(items));
  }
  if (distinct) {
    plan = std::make_unique<DistinctNode>(std::move(plan));
  }
  return plan;
}

std::string SourceSpec::ToString() const {
  std::string inner = table;
  if (!alias.empty()) inner += " -> " + alias;
  std::string out;
  if (!project_cols.empty()) {
    out += "pi[" + Join(project_cols, ", ") + "]";
  }
  if (distinct) out += "distinct ";
  if (out.empty()) return inner;
  return out + "(" + inner + ")";
}

SourceSpec From(std::string table, std::string alias) {
  SourceSpec out;
  out.table = std::move(table);
  out.alias = std::move(alias);
  return out;
}

SourceSpec DistinctProject(std::string table, std::string alias,
                           std::vector<std::string> cols) {
  SourceSpec out;
  out.table = std::move(table);
  out.alias = std::move(alias);
  out.project_cols = std::move(cols);
  out.distinct = true;
  return out;
}

// ----------------------------------------------------------------- ExprPred

Status ExprPred::Bind(const Catalog& catalog,
                      const std::vector<const Schema*>& frames) {
  (void)catalog;
  return expr_->Bind(frames);
}

PredPtr ExprPred::Clone() const {
  return std::make_unique<ExprPred>(expr_->Clone());
}

// ---------------------------------------------------------------- And / Or

Status AndPred::Bind(const Catalog& catalog,
                     const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(lhs_->Bind(catalog, frames));
  return rhs_->Bind(catalog, frames);
}

PredPtr AndPred::Clone() const {
  return std::make_unique<AndPred>(lhs_->Clone(), rhs_->Clone());
}

std::string AndPred::ToString() const {
  return StrCat({"(", lhs_->ToString(), " AND ", rhs_->ToString(), ")"});
}

Status OrPred::Bind(const Catalog& catalog,
                    const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(lhs_->Bind(catalog, frames));
  return rhs_->Bind(catalog, frames);
}

PredPtr OrPred::Clone() const {
  return std::make_unique<OrPred>(lhs_->Clone(), rhs_->Clone());
}

std::string OrPred::ToString() const {
  return StrCat({"(", lhs_->ToString(), " OR ", rhs_->ToString(), ")"});
}

// --------------------------------------------------------------------- Not

Status NotPred::Bind(const Catalog& catalog,
                     const std::vector<const Schema*>& frames) {
  return input_->Bind(catalog, frames);
}

PredPtr NotPred::Clone() const {
  return std::make_unique<NotPred>(input_->Clone());
}

std::string NotPred::ToString() const {
  return "(NOT " + input_->ToString() + ")";
}

// ------------------------------------------------------------- NestedSelect

Status NestedSelect::Bind(const Catalog& catalog,
                          const std::vector<const Schema*>& outer_frames) {
  PlanPtr plan = source.ToPlan();
  GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog));
  schema_ = plan->output_schema();

  std::vector<const Schema*> frames = outer_frames;
  frames.push_back(&schema_);
  if (select_expr != nullptr) {
    GMDJ_RETURN_IF_ERROR(select_expr->Bind(frames));
  }
  if (select_agg.has_value()) {
    GMDJ_RETURN_IF_ERROR(select_agg->Bind(frames));
  }
  if (where != nullptr) {
    GMDJ_RETURN_IF_ERROR(where->Bind(catalog, frames));
  }
  return Status::OK();
}

std::unique_ptr<NestedSelect> NestedSelect::Clone() const {
  auto out = std::make_unique<NestedSelect>();
  out->source = source;
  if (where != nullptr) out->where = where->Clone();
  if (select_expr != nullptr) out->select_expr = select_expr->Clone();
  if (select_agg.has_value()) out->select_agg = select_agg->Clone();
  return out;
}

std::string NestedSelect::ToString() const {
  std::string out = "sigma[";
  out += where == nullptr ? "true" : where->ToString();
  out += "](" + source.ToString() + ")";
  if (select_agg.has_value()) {
    out = "pi[" + select_agg->ToString() + "]" + out;
  } else if (select_expr != nullptr) {
    out = "pi[" + select_expr->ToString() + "]" + out;
  }
  return out;
}

// ------------------------------------------------------------ PredTreeToExpr

Result<ExprPtr> PredTreeToExpr(const Pred& pred) {
  switch (pred.kind()) {
    case PredKind::kExpr:
      return static_cast<const ExprPred&>(pred).expr().Clone();
    case PredKind::kAnd: {
      const auto& p = static_cast<const AndPred&>(pred);
      GMDJ_ASSIGN_OR_RETURN(ExprPtr l, PredTreeToExpr(p.lhs()));
      GMDJ_ASSIGN_OR_RETURN(ExprPtr r, PredTreeToExpr(p.rhs()));
      return And(std::move(l), std::move(r));
    }
    case PredKind::kOr: {
      const auto& p = static_cast<const OrPred&>(pred);
      GMDJ_ASSIGN_OR_RETURN(ExprPtr l, PredTreeToExpr(p.lhs()));
      GMDJ_ASSIGN_OR_RETURN(ExprPtr r, PredTreeToExpr(p.rhs()));
      return Or(std::move(l), std::move(r));
    }
    case PredKind::kNot: {
      const auto& p = static_cast<const NotPred&>(pred);
      GMDJ_ASSIGN_OR_RETURN(ExprPtr in, PredTreeToExpr(p.input()));
      return Not(std::move(in));
    }
    default:
      return Status::InvalidArgument(
          "predicate contains nested subqueries where a plain condition "
          "is required");
  }
}

// ------------------------------------------------------------------ Exists

Status ExistsPred::Bind(const Catalog& catalog,
                        const std::vector<const Schema*>& frames) {
  return sub_->Bind(catalog, frames);
}

PredPtr ExistsPred::Clone() const {
  return std::make_unique<ExistsPred>(sub_->Clone(), negated_);
}

std::string ExistsPred::ToString() const {
  return std::string(negated_ ? "NOT EXISTS " : "EXISTS ") + sub_->ToString();
}

// -------------------------------------------------------------- CompareSub

Status CompareSubPred::Bind(const Catalog& catalog,
                            const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(lhs_->Bind(frames));
  if (sub_->select_expr == nullptr && !sub_->select_agg.has_value()) {
    return Status::InvalidArgument(
        "comparison subquery must select a column or aggregate");
  }
  return sub_->Bind(catalog, frames);
}

PredPtr CompareSubPred::Clone() const {
  return std::make_unique<CompareSubPred>(lhs_->Clone(), op_, sub_->Clone());
}

std::string CompareSubPred::ToString() const {
  return lhs_->ToString() + " " + CompareOpToString(op_) + " (" +
         sub_->ToString() + ")";
}

// ---------------------------------------------------------------- QuantSub

Status QuantSubPred::Bind(const Catalog& catalog,
                          const std::vector<const Schema*>& frames) {
  GMDJ_RETURN_IF_ERROR(lhs_->Bind(frames));
  if (sub_->select_expr == nullptr) {
    return Status::InvalidArgument(
        "quantified subquery must select a column");
  }
  if (sub_->select_agg.has_value()) {
    return Status::InvalidArgument(
        "quantified subquery cannot select an aggregate");
  }
  return sub_->Bind(catalog, frames);
}

PredPtr QuantSubPred::Clone() const {
  return std::make_unique<QuantSubPred>(lhs_->Clone(), op_, quant_,
                                        sub_->Clone());
}

std::string QuantSubPred::ToString() const {
  return lhs_->ToString() + " " + CompareOpToString(op_) +
         (quant_ == QuantKind::kSome ? " SOME (" : " ALL (") +
         sub_->ToString() + ")";
}

}  // namespace gmdj
