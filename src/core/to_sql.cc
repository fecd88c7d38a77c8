#include "core/to_sql.h"

#include <functional>

#include "common/str_util.h"
#include "core/translate.h"
#include "exec/nodes.h"
#include "nested/nested_ast.h"

namespace gmdj {
namespace {

/// Maps a bound column reference to its SQL spelling in the current
/// rendering context.
using RefMapper = std::function<std::string(const ColumnRefExpr&)>;

std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.') c = '_';
  }
  return out;
}

std::string SqlLiteral(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kString: {
      std::string out = "'";
      for (const char c : v.str()) {
        if (c == '\'') {
          out += "''";
        } else {
          out.push_back(c);
        }
      }
      out += "'";
      return out;
    }
    default:
      return v.ToString();
  }
}

Result<std::string> RenderExpr(const Expr& expr, const RefMapper& map_ref) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      return map_ref(static_cast<const ColumnRefExpr&>(expr));
    case ExprKind::kLiteral:
      return SqlLiteral(static_cast<const LiteralExpr&>(expr).value());
    case ExprKind::kCompare: {
      const auto& e = static_cast<const CompareExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string l, RenderExpr(e.lhs(), map_ref));
      GMDJ_ASSIGN_OR_RETURN(const std::string r, RenderExpr(e.rhs(), map_ref));
      return "(" + l + " " + CompareOpToString(e.op()) + " " + r + ")";
    }
    case ExprKind::kArith: {
      const auto& e = static_cast<const ArithExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string l, RenderExpr(e.lhs(), map_ref));
      GMDJ_ASSIGN_OR_RETURN(const std::string r, RenderExpr(e.rhs(), map_ref));
      const char* op = e.op() == ArithOp::kAdd   ? "+"
                       : e.op() == ArithOp::kSub ? "-"
                       : e.op() == ArithOp::kMul ? "*"
                                                 : "/";
      return "(" + l + " " + op + " " + r + ")";
    }
    case ExprKind::kAnd: {
      const auto& e = static_cast<const AndExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string l, RenderExpr(e.lhs(), map_ref));
      GMDJ_ASSIGN_OR_RETURN(const std::string r, RenderExpr(e.rhs(), map_ref));
      return "(" + l + " AND " + r + ")";
    }
    case ExprKind::kOr: {
      const auto& e = static_cast<const OrExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string l, RenderExpr(e.lhs(), map_ref));
      GMDJ_ASSIGN_OR_RETURN(const std::string r, RenderExpr(e.rhs(), map_ref));
      return "(" + l + " OR " + r + ")";
    }
    case ExprKind::kNot: {
      const auto& e = static_cast<const NotExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string in,
                            RenderExpr(e.input(), map_ref));
      return "(NOT " + in + ")";
    }
    case ExprKind::kIsNull: {
      const auto& e = static_cast<const IsNullExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string in,
                            RenderExpr(e.input(), map_ref));
      return "(" + in + (e.negated() ? " IS NOT NULL)" : " IS NULL)");
    }
    case ExprKind::kIsNotTrue: {
      const auto& e = static_cast<const IsNotTrueExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string in,
                            RenderExpr(e.input(), map_ref));
      return "(" + in + " IS NOT TRUE)";
    }
    case ExprKind::kCoalesce: {
      const auto& e = static_cast<const CoalesceExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string a,
                            RenderExpr(e.first(), map_ref));
      GMDJ_ASSIGN_OR_RETURN(const std::string b,
                            RenderExpr(e.second(), map_ref));
      return "COALESCE(" + a + ", " + b + ")";
    }
    case ExprKind::kLike: {
      const auto& e = static_cast<const LikeExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string in,
                            RenderExpr(e.input(), map_ref));
      return "(" + in + (e.negated() ? " NOT LIKE " : " LIKE ") +
             SqlLiteral(Value(e.pattern())) + ")";
    }
    case ExprKind::kCase: {
      const auto& e = static_cast<const CaseExpr&>(expr);
      GMDJ_ASSIGN_OR_RETURN(const std::string c,
                            RenderExpr(e.condition(), map_ref));
      GMDJ_ASSIGN_OR_RETURN(const std::string t,
                            RenderExpr(e.then_branch(), map_ref));
      GMDJ_ASSIGN_OR_RETURN(const std::string o,
                            RenderExpr(e.else_branch(), map_ref));
      return "CASE WHEN " + c + " THEN " + t + " ELSE " + o + " END";
    }
  }
  return Status::Internal("unknown expression kind");
}

class SqlRenderer {
 public:
  /// A FROM-clause item: the SQL text plus whether it is a bare table
  /// (whose columns keep their `alias.column` spellings) or a derived
  /// table (whose columns were flattened to `alias_column`).
  struct FromItem {
    std::string sql;
    bool bare;
    std::string derived_alias;  // Set for derived tables.
  };

  Result<std::string> RenderQuery(const PlanNode& plan) {
    if (const auto* gmdj = dynamic_cast<const GmdjNode*>(&plan)) {
      return RenderGmdj(*gmdj);
    }
    if (const auto* filter = dynamic_cast<const FilterNode*>(&plan)) {
      GMDJ_ASSIGN_OR_RETURN(const FromItem item,
                            RenderFromItem(filter->input()));
      GMDJ_ASSIGN_OR_RETURN(
          const std::string pred,
          RenderExpr(filter->predicate(), MapperFor(item, nullptr)));
      return "SELECT * FROM " + item.sql + " WHERE " + pred;
    }
    if (const auto* project = dynamic_cast<const ProjectNode*>(&plan)) {
      const auto* input = project->children()[0];
      GMDJ_ASSIGN_OR_RETURN(const FromItem item, RenderFromItem(*input));
      std::string select;
      for (const ProjItem& col : project->items()) {
        if (!select.empty()) select += ", ";
        GMDJ_ASSIGN_OR_RETURN(
            const std::string expr,
            RenderExpr(*col.expr, MapperFor(item, nullptr)));
        const std::string out_name =
            Sanitize(col.qualifier.empty() ? col.name
                                           : col.qualifier + "." + col.name);
        select += expr + " AS " + out_name;
      }
      return "SELECT " + select + " FROM " + item.sql;
    }
    if (const auto* distinct = dynamic_cast<const DistinctNode*>(&plan)) {
      const auto* input = distinct->children()[0];
      GMDJ_ASSIGN_OR_RETURN(const FromItem item, RenderFromItem(*input));
      return "SELECT DISTINCT * FROM " + item.sql;
    }
    if (const auto* scan = dynamic_cast<const TableScanNode*>(&plan)) {
      std::string select;
      for (const Field& f : scan->output_schema().fields()) {
        if (!select.empty()) select += ", ";
        select += f.QualifiedName() + " AS " + Sanitize(f.QualifiedName());
      }
      return "SELECT " + select + " FROM " + BareTable(*scan);
    }
    return Status::Unimplemented(
        "no SQL rendering for plan node: " + plan.label());
  }

 private:
  static std::string BareTable(const TableScanNode& scan) {
    return scan.alias().empty() ? scan.table_name()
                                : scan.table_name() + " AS " + scan.alias();
  }

  std::string FreshAlias() {
    return StrCat({"d", std::to_string(++alias_counter_)});
  }

  Result<FromItem> RenderFromItem(const PlanNode& plan) {
    if (const auto* scan = dynamic_cast<const TableScanNode*>(&plan)) {
      return FromItem{BareTable(*scan), /*bare=*/true, ""};
    }
    GMDJ_ASSIGN_OR_RETURN(const std::string query, RenderQuery(plan));
    const std::string alias = FreshAlias();
    return FromItem{StrCat({"(", query, ") ", alias}), /*bare=*/false, alias};
  }

  /// Reference mapper for expressions evaluated against one or two FROM
  /// items. `detail` may be null (single-input contexts). Uses the bound
  /// frame (0 = base/input, 1 = detail) to pick the side.
  RefMapper MapperFor(const FromItem& base, const FromItem* detail) {
    return [&base, detail](const ColumnRefExpr& ref) -> std::string {
      const FromItem& side =
          (detail != nullptr && ref.bound_frame() == 1) ? *detail : base;
      if (side.bare) return ref.ref();
      return side.derived_alias + "." + Sanitize(ref.ref());
    };
  }

  Result<std::string> RenderGmdj(const GmdjNode& gmdj) {
    GMDJ_ASSIGN_OR_RETURN(const FromItem base, RenderFromItem(gmdj.base()));
    GMDJ_ASSIGN_OR_RETURN(const FromItem detail,
                          RenderFromItem(gmdj.detail()));
    const RefMapper mapper = MapperFor(base, &detail);

    // Select list: base columns, then per-condition conditional aggregates.
    std::string select;
    std::string group_by;
    for (const Field& f : gmdj.base().output_schema().fields()) {
      if (!select.empty()) {
        select += ", ";
        group_by += ", ";
      }
      const std::string spelled =
          base.bare ? f.QualifiedName()
                    : base.derived_alias + "." + Sanitize(f.QualifiedName());
      select += spelled + " AS " + Sanitize(f.QualifiedName());
      group_by += spelled;
    }

    std::string on;
    for (size_t c = 0; c < gmdj.num_conditions(); ++c) {
      const GmdjCondition& cond = gmdj.condition(c);
      std::string theta = "1 = 1";
      if (cond.theta != nullptr) {
        GMDJ_ASSIGN_OR_RETURN(theta, RenderExpr(*cond.theta, mapper));
      }
      if (!on.empty()) on += " OR ";
      on += theta;
      for (const AggSpec& agg : cond.aggs) {
        std::string body;
        switch (agg.kind) {
          case AggKind::kCountStar:
            body = "COUNT(CASE WHEN " + theta + " THEN 1 END)";
            break;
          case AggKind::kCount:
          case AggKind::kSum:
          case AggKind::kMin:
          case AggKind::kMax:
          case AggKind::kAvg: {
            GMDJ_ASSIGN_OR_RETURN(const std::string arg,
                                  RenderExpr(*agg.arg, mapper));
            const char* fn = agg.kind == AggKind::kCount ? "COUNT"
                             : agg.kind == AggKind::kSum ? "SUM"
                             : agg.kind == AggKind::kMin ? "MIN"
                             : agg.kind == AggKind::kMax ? "MAX"
                                                         : "AVG";
            body = std::string(fn) + "(CASE WHEN " + theta + " THEN " + arg +
                   " END)";
            break;
          }
        }
        select += ", " + body + " AS " + Sanitize(agg.output_name);
      }
    }

    return "SELECT " + select + " FROM " + base.sql +
           " LEFT OUTER JOIN " + detail.sql + " ON " + on + " GROUP BY " +
           group_by;
  }

  int alias_counter_ = 0;
};

}  // namespace

Result<std::string> PlanToSql(const PlanNode& plan) {
  SqlRenderer renderer;
  return renderer.RenderQuery(plan);
}

Result<std::string> NestedQueryToSql(const NestedSelect& query,
                                     const Catalog& catalog) {
  GMDJ_ASSIGN_OR_RETURN(
      PlanPtr plan,
      SubqueryToGmdj(query.Clone(), catalog, TranslateOptions::Basic()));
  GMDJ_RETURN_IF_ERROR(plan->Prepare(catalog));
  return PlanToSql(*plan);
}

}  // namespace gmdj
