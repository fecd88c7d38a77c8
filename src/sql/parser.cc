#include "sql/parser.h"

#include <vector>

#include "expr/expr_builder.h"
#include "nested/nested_builder.h"
#include "sql/lexer.h"

namespace gmdj {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SqlStatement> ParseStatement() { return ParseStatementInternal(); }

  Result<std::unique_ptr<NestedSelect>> ParseTopLevel() {
    GMDJ_ASSIGN_OR_RETURN(auto statement, ParseStatementInternal());
    if (statement.kind != SqlStatement::Kind::kSelect) {
      return Error("non-SELECT statements need ParseStatement");
    }
    if (!statement.projections.empty()) {
      return Error("projection select lists need ParseStatement");
    }
    if (statement.explain != SqlStatement::ExplainMode::kNone) {
      return Error("EXPLAIN needs ParseStatement");
    }
    return std::move(statement.select);
  }

  Result<SqlStatement> ParseStatementInternal() {
    if (PeekKeyword("SAVE") || PeekKeyword("RESTORE")) {
      return ParseSnapshotStatement();
    }
    if (PeekKeyword("INSERT")) {
      return ParseInsertStatement();
    }
    // Standalone ANALYZE (statistics recollection). EXPLAIN ANALYZE does
    // not land here — its leading EXPLAIN is consumed below.
    if (PeekKeyword("ANALYZE")) {
      return ParseAnalyzeStatement();
    }
    SqlStatement::ExplainMode explain = SqlStatement::ExplainMode::kNone;
    if (ConsumeKeyword("EXPLAIN")) {
      explain = ConsumeKeyword("ANALYZE") ? SqlStatement::ExplainMode::kAnalyze
                                          : SqlStatement::ExplainMode::kPlan;
    }
    GMDJ_ASSIGN_OR_RETURN(auto statement,
                          ParseSelectStatement());
    if (!AtEnd()) {
      return Error("unexpected trailing input");
    }
    statement.explain = explain;
    return statement;
  }

 private:
  /// SAVE SNAPSHOT '<dir>' | RESTORE SNAPSHOT '<dir>'
  Result<SqlStatement> ParseSnapshotStatement() {
    SqlStatement statement;
    statement.kind = ConsumeKeyword("SAVE")
                         ? SqlStatement::Kind::kSaveSnapshot
                         : SqlStatement::Kind::kRestoreSnapshot;
    if (statement.kind == SqlStatement::Kind::kRestoreSnapshot) {
      GMDJ_RETURN_IF_ERROR(ExpectKeyword("RESTORE"));
    }
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("SNAPSHOT"));
    if (Peek().kind != TokenKind::kString) {
      return Error("expected a quoted snapshot directory");
    }
    statement.snapshot_dir = Advance().text;
    if (statement.snapshot_dir.empty()) {
      return Error("snapshot directory must not be empty");
    }
    if (!AtEnd()) return Error("unexpected trailing input");
    return statement;
  }

  /// ANALYZE [ident] — forced statistics recollection for one table, or
  /// for every catalog table when no name follows.
  Result<SqlStatement> ParseAnalyzeStatement() {
    SqlStatement statement;
    statement.kind = SqlStatement::Kind::kAnalyze;
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("ANALYZE"));
    if (Peek().kind == TokenKind::kIdent) {
      statement.analyze_table = Advance().text;
    }
    if (!AtEnd()) return Error("unexpected trailing input");
    return statement;
  }

  /// INSERT INTO ident VALUES (lit, ...) [, (lit, ...)]*
  ///
  /// Literal rows only — no expressions, no SELECT source. All rows must
  /// share one width; the engine checks it against the table schema.
  Result<SqlStatement> ParseInsertStatement() {
    SqlStatement statement;
    statement.kind = SqlStatement::Kind::kInsert;
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected a table name");
    }
    statement.insert_table = Advance().text;
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    do {
      GMDJ_RETURN_IF_ERROR(ExpectSymbol("("));
      Row row;
      do {
        GMDJ_ASSIGN_OR_RETURN(Value value, ParseLiteral());
        row.push_back(std::move(value));
      } while (ConsumeSymbol(","));
      GMDJ_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (!statement.insert_rows.empty() &&
          row.size() != statement.insert_rows.front().size()) {
        return Error("VALUES rows must all have the same width");
      }
      statement.insert_rows.push_back(std::move(row));
    } while (ConsumeSymbol(","));
    if (!AtEnd()) return Error("unexpected trailing input");
    return statement;
  }

  /// One VALUES literal: INT, DOUBLE, 'string', NULL, TRUE, FALSE, with
  /// an optional leading '-' on the numeric kinds.
  Result<Value> ParseLiteral() {
    const bool negated = ConsumeSymbol("-");
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        const int64_t v = Advance().int_value;
        return Value(negated ? -v : v);
      }
      case TokenKind::kDouble: {
        const double v = Advance().double_value;
        return Value(negated ? -v : v);
      }
      case TokenKind::kString: {
        if (negated) return Error("cannot negate a string literal");
        return Value(Advance().text);
      }
      case TokenKind::kKeyword: {
        if (negated) break;
        if (ConsumeKeyword("NULL")) return Value::Null();
        if (ConsumeKeyword("TRUE")) return Value(static_cast<int64_t>(1));
        if (ConsumeKeyword("FALSE")) return Value(static_cast<int64_t>(0));
        break;
      }
      default:
        break;
    }
    return Error("expected a literal value");
  }

  // ------------------------------------------------------------- utilities

  const Token& Peek(size_t ahead = 0) const {
    const size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  bool PeekKeyword(const char* kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kKeyword && t.text == kw;
  }
  bool PeekSymbol(const char* sym, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.kind == TokenKind::kSymbol && t.text == sym;
  }
  bool ConsumeKeyword(const char* kw) {
    if (!PeekKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  bool ConsumeSymbol(const char* sym) {
    if (!PeekSymbol(sym)) return false;
    ++pos_;
    return true;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
               message + " at offset " + std::to_string(Peek().position) +
               (Peek().kind == TokenKind::kEnd ? " (end of input)"
                                               : " near '" + Peek().text +
                                                     "'"))
        .WithOffset(Peek().position);
  }
  Status ExpectKeyword(const char* kw) {
    if (ConsumeKeyword(kw)) return Status::OK();
    return Error(std::string("expected ") + kw);
  }
  Status ExpectSymbol(const char* sym) {
    if (ConsumeSymbol(sym)) return Status::OK();
    return Error(std::string("expected '") + sym + "'");
  }

  // ----------------------------------------------------------- productions

  /// Top-level statement: '*', DISTINCT columns, or an expression list.
  Result<SqlStatement> ParseSelectStatement() {
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SqlStatement statement;
    statement.select = std::make_unique<NestedSelect>();
    NestedSelect* query = statement.select.get();

    bool distinct = false;
    std::vector<std::string> project_cols;
    if (ConsumeSymbol("*")) {
      // Plain base.
    } else if (PeekKeyword("DISTINCT")) {
      ++pos_;
      distinct = true;
      do {
        GMDJ_ASSIGN_OR_RETURN(const std::string col, ParseColumnName());
        project_cols.push_back(col);
      } while (ConsumeSymbol(","));
    } else {
      // Expression list with optional AS names; aggregate subqueries are
      // allowed here (and only here).
      select_subs_ = &statement.select_subqueries;
      int positional = 0;
      do {
        GMDJ_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
        std::string name;
        if (ConsumeKeyword("AS")) {
          if (Peek().kind != TokenKind::kIdent) {
            return Error("expected output column name after AS");
          }
          name = Advance().text;
        } else if (expr->kind() == ExprKind::kColumnRef) {
          const std::string& ref =
              static_cast<const ColumnRefExpr&>(*expr).ref();
          const size_t dot = ref.find('.');
          name = dot == std::string::npos ? ref : ref.substr(dot + 1);
        } else {
          name = "col" + std::to_string(++positional);
        }
        statement.projections.emplace_back(std::move(expr),
                                           std::move(name));
      } while (ConsumeSymbol(","));
      select_subs_ = nullptr;
    }

    GMDJ_RETURN_IF_ERROR(
        ParseFromWhere(query, distinct, std::move(project_cols)));
    return statement;
  }

  /// Subquery form: SELECT (column | aggregate | '*') FROM ...
  Result<std::unique_ptr<NestedSelect>> ParseSelect(bool as_subquery) {
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    auto query = std::make_unique<NestedSelect>();

    // Select list.
    bool distinct = false;
    std::vector<std::string> project_cols;
    if (ConsumeSymbol("*")) {
      // Plain base.
    } else if (PeekKeyword("DISTINCT")) {
      ++pos_;
      distinct = true;
      do {
        GMDJ_ASSIGN_OR_RETURN(const std::string col, ParseColumnName());
        project_cols.push_back(col);
      } while (ConsumeSymbol(","));
    } else if (as_subquery) {
      GMDJ_RETURN_IF_ERROR(ParseSubquerySelectItem(query.get()));
    } else {
      return Error("top-level SELECT supports '*' or DISTINCT columns");
    }

    GMDJ_RETURN_IF_ERROR(
        ParseFromWhere(query.get(), distinct, std::move(project_cols)));
    return query;
  }

  Status ParseFromWhere(NestedSelect* query, bool distinct,
                        std::vector<std::string> project_cols) {
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected table name");
    }
    query->source.table = Advance().text;
    ConsumeKeyword("AS");
    if (Peek().kind == TokenKind::kIdent) {
      query->source.alias = Advance().text;
    }
    query->source.distinct = distinct;
    query->source.project_cols = std::move(project_cols);

    if (ConsumeKeyword("WHERE")) {
      GMDJ_ASSIGN_OR_RETURN(query->where, ParseOrPred());
    }
    return Status::OK();
  }

  /// Subquery select list: a column or `agg(expr)` / COUNT(*).
  Status ParseSubquerySelectItem(NestedSelect* query) {
    const Token& t = Peek();
    if (t.kind == TokenKind::kKeyword &&
        (t.text == "COUNT" || t.text == "SUM" || t.text == "MIN" ||
         t.text == "MAX" || t.text == "AVG")) {
      const std::string fn = Advance().text;
      GMDJ_RETURN_IF_ERROR(ExpectSymbol("("));
      if (fn == "COUNT" && ConsumeSymbol("*")) {
        query->select_agg = CountStar("agg");
      } else {
        GMDJ_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        if (fn == "COUNT") {
          query->select_agg = CountOf(std::move(arg), "agg");
        } else if (fn == "SUM") {
          query->select_agg = SumOf(std::move(arg), "agg");
        } else if (fn == "MIN") {
          query->select_agg = MinOf(std::move(arg), "agg");
        } else if (fn == "MAX") {
          query->select_agg = MaxOf(std::move(arg), "agg");
        } else {
          query->select_agg = AvgOf(std::move(arg), "agg");
        }
      }
      return ExpectSymbol(")");
    }
    GMDJ_ASSIGN_OR_RETURN(ExprPtr col, ParseExpr());
    query->select_expr = std::move(col);
    return Status::OK();
  }

  Result<PredPtr> ParseOrPred() {
    GMDJ_ASSIGN_OR_RETURN(PredPtr lhs, ParseAndPred());
    while (ConsumeKeyword("OR")) {
      GMDJ_ASSIGN_OR_RETURN(PredPtr rhs, ParseAndPred());
      lhs = OrP(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<PredPtr> ParseAndPred() {
    GMDJ_ASSIGN_OR_RETURN(PredPtr lhs, ParseUnaryPred());
    while (ConsumeKeyword("AND")) {
      GMDJ_ASSIGN_OR_RETURN(PredPtr rhs, ParseUnaryPred());
      lhs = AndP(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<PredPtr> ParseUnaryPred() {
    if (ConsumeKeyword("NOT")) {
      // NOT EXISTS is folded directly; other NOTs stay as NotPred and are
      // eliminated by the translator's normalization pass.
      if (PeekKeyword("EXISTS")) {
        GMDJ_ASSIGN_OR_RETURN(PredPtr exists, ParseExistsPred());
        auto* node = static_cast<ExistsPred*>(exists.get());
        node->set_negated(!node->negated());
        return exists;
      }
      GMDJ_ASSIGN_OR_RETURN(PredPtr inner, ParseUnaryPred());
      return NotP(std::move(inner));
    }
    if (PeekKeyword("EXISTS")) {
      return ParseExistsPred();
    }
    return ParsePrimaryPred();
  }

  Result<PredPtr> ParseExistsPred() {
    GMDJ_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
    GMDJ_RETURN_IF_ERROR(ExpectSymbol("("));
    GMDJ_ASSIGN_OR_RETURN(auto sub, ParseSelect(/*as_subquery=*/true));
    GMDJ_RETURN_IF_ERROR(ExpectSymbol(")"));
    return Exists(std::move(sub));
  }

  // A '(' can open a parenthesized predicate or a parenthesized scalar
  // expression starting a comparison; we try the predicate first and
  // backtrack on failure (the grammar is small enough for this to stay
  // cheap and predictable).
  Result<PredPtr> ParsePrimaryPred() {
    if (PeekSymbol("(")) {
      const size_t saved = pos_;
      ++pos_;
      auto as_pred = ParseOrPred();
      if (as_pred.ok() && ConsumeSymbol(")")) {
        // Only a real predicate group if no comparison follows — else it
        // was a parenthesized expression like (a + b) > c.
        if (!PeekComparison() && !PeekKeyword("IN") && !PeekKeyword("IS") &&
            !PeekKeyword("NOT") && !PeekKeyword("BETWEEN")) {
          return std::move(*as_pred);
        }
      }
      pos_ = saved;  // Backtrack: parse as expression comparison.
    }
    GMDJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseExpr());
    return ParseComparisonTail(std::move(lhs));
  }

  bool PeekComparison() const {
    return PeekSymbol("=") || PeekSymbol("<>") || PeekSymbol("<") ||
           PeekSymbol("<=") || PeekSymbol(">") || PeekSymbol(">=");
  }

  Result<CompareOp> ParseCompareOp() {
    const Token& t = Peek();
    if (t.kind != TokenKind::kSymbol) return Error("expected comparison");
    CompareOp op;
    if (t.text == "=") {
      op = CompareOp::kEq;
    } else if (t.text == "<>") {
      op = CompareOp::kNe;
    } else if (t.text == "<") {
      op = CompareOp::kLt;
    } else if (t.text == "<=") {
      op = CompareOp::kLe;
    } else if (t.text == ">") {
      op = CompareOp::kGt;
    } else if (t.text == ">=") {
      op = CompareOp::kGe;
    } else {
      return Error("expected comparison");
    }
    ++pos_;
    return op;
  }

  Result<PredPtr> ParseComparisonTail(ExprPtr lhs) {
    // expr IS [NOT] NULL.
    if (ConsumeKeyword("IS")) {
      const bool negated = ConsumeKeyword("NOT");
      GMDJ_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return WherePred(negated ? IsNotNull(std::move(lhs))
                               : IsNull(std::move(lhs)));
    }
    // expr [NOT] LIKE 'pattern'.
    if (PeekKeyword("LIKE") ||
        (PeekKeyword("NOT") && PeekKeyword("LIKE", 1))) {
      const bool negated = ConsumeKeyword("NOT");
      GMDJ_RETURN_IF_ERROR(ExpectKeyword("LIKE"));
      if (Peek().kind != TokenKind::kString) {
        return Error("LIKE expects a string pattern literal");
      }
      std::string pattern = Advance().text;
      return WherePred(ExprPtr(std::make_unique<LikeExpr>(
          std::move(lhs), std::move(pattern), negated)));
    }
    // expr [NOT] IN (subquery).
    bool not_in = false;
    if (PeekKeyword("NOT") && PeekKeyword("IN", 1)) {
      pos_ += 2;
      not_in = true;
    } else if (ConsumeKeyword("IN")) {
      not_in = false;
    } else if (ConsumeKeyword("BETWEEN")) {
      // expr BETWEEN a AND b  ==  expr >= a AND expr <= b.
      GMDJ_ASSIGN_OR_RETURN(ExprPtr lo, ParseExpr());
      GMDJ_RETURN_IF_ERROR(ExpectKeyword("AND"));
      GMDJ_ASSIGN_OR_RETURN(ExprPtr hi, ParseExpr());
      ExprPtr lhs_copy = lhs->Clone();  // Clone before lhs is moved below.
      return WherePred(And(Ge(std::move(lhs_copy), std::move(lo)),
                           Le(std::move(lhs), std::move(hi))));
    } else {
      // Plain comparison, possibly quantified or against a subquery.
      GMDJ_ASSIGN_OR_RETURN(const CompareOp op, ParseCompareOp());
      if (PeekKeyword("SOME") || PeekKeyword("ANY") || PeekKeyword("ALL")) {
        const bool all = Advance().text == "ALL";
        GMDJ_RETURN_IF_ERROR(ExpectSymbol("("));
        GMDJ_ASSIGN_OR_RETURN(auto sub, ParseSelect(/*as_subquery=*/true));
        GMDJ_RETURN_IF_ERROR(ExpectSymbol(")"));
        return all ? AllSub(std::move(lhs), op, std::move(sub))
                   : SomeSub(std::move(lhs), op, std::move(sub));
      }
      if (PeekSymbol("(") && PeekKeyword("SELECT", 1)) {
        ++pos_;  // '('
        GMDJ_ASSIGN_OR_RETURN(auto sub, ParseSelect(/*as_subquery=*/true));
        GMDJ_RETURN_IF_ERROR(ExpectSymbol(")"));
        return CompareSub(std::move(lhs), op, std::move(sub));
      }
      GMDJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExpr());
      return WherePred(Cmp(std::move(lhs), op, std::move(rhs)));
    }
    // IN / NOT IN body.
    GMDJ_RETURN_IF_ERROR(ExpectSymbol("("));
    if (!PeekKeyword("SELECT")) {
      return Error("IN expects a subquery (value lists are not supported)");
    }
    GMDJ_ASSIGN_OR_RETURN(auto sub, ParseSelect(/*as_subquery=*/true));
    GMDJ_RETURN_IF_ERROR(ExpectSymbol(")"));
    return not_in ? NotInSub(std::move(lhs), std::move(sub))
                  : InSub(std::move(lhs), std::move(sub));
  }

  // -------------------------------------------------------- scalar exprs

  Result<ExprPtr> ParseExpr() {
    GMDJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseTerm());
    while (PeekSymbol("+") || PeekSymbol("-")) {
      const bool add = Advance().text == "+";
      GMDJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseTerm());
      lhs = add ? Add(std::move(lhs), std::move(rhs))
                : Sub(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseTerm() {
    GMDJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseFactor());
    while (PeekSymbol("*") || PeekSymbol("/")) {
      const bool mul = Advance().text == "*";
      GMDJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseFactor());
      lhs = mul ? Mul(std::move(lhs), std::move(rhs))
                : Div(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseFactor() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        const int64_t v = Advance().int_value;
        return Lit(v);
      }
      case TokenKind::kDouble: {
        const double v = Advance().double_value;
        return Lit(v);
      }
      case TokenKind::kString: {
        std::string v = Advance().text;
        return Lit(std::move(v));
      }
      case TokenKind::kIdent: {
        GMDJ_ASSIGN_OR_RETURN(const std::string name, ParseColumnName());
        return Col(name);
      }
      case TokenKind::kSymbol:
        if (t.text == "(") {
          // In the top-level select list, a parenthesized SELECT is an
          // aggregate subquery producing one value per outer row.
          if (select_subs_ != nullptr && PeekKeyword("SELECT", 1)) {
            ++pos_;
            GMDJ_ASSIGN_OR_RETURN(auto sub, ParseSelect(/*as_subquery=*/true));
            GMDJ_RETURN_IF_ERROR(ExpectSymbol(")"));
            if (!sub->select_agg.has_value()) {
              return Error(
                  "select-list subqueries must select an aggregate");
            }
            SelectSubquery entry;
            entry.column =
                "__sel" + std::to_string(select_subs_->size() + 1);
            sub->select_agg->output_name = entry.column;
            entry.sub = std::move(sub);
            select_subs_->push_back(std::move(entry));
            return Col(select_subs_->back().column);
          }
          ++pos_;
          GMDJ_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
          GMDJ_RETURN_IF_ERROR(ExpectSymbol(")"));
          return inner;
        }
        if (t.text == "-") {
          ++pos_;
          GMDJ_ASSIGN_OR_RETURN(ExprPtr inner, ParseFactor());
          return Sub(Lit(int64_t{0}), std::move(inner));
        }
        break;
      case TokenKind::kKeyword:
        if (t.text == "NULL") {
          ++pos_;
          return Lit(Value::Null());
        }
        if (t.text == "TRUE") {
          ++pos_;
          return Lit(int64_t{1});
        }
        if (t.text == "FALSE") {
          ++pos_;
          return Lit(int64_t{0});
        }
        if (t.text == "CASE") {
          ++pos_;
          GMDJ_RETURN_IF_ERROR(ExpectKeyword("WHEN"));
          GMDJ_ASSIGN_OR_RETURN(ExprPtr cond, ParseCaseCondition());
          GMDJ_RETURN_IF_ERROR(ExpectKeyword("THEN"));
          GMDJ_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
          ExprPtr otherwise = Lit(Value::Null());
          if (ConsumeKeyword("ELSE")) {
            GMDJ_ASSIGN_OR_RETURN(otherwise, ParseExpr());
          }
          GMDJ_RETURN_IF_ERROR(ExpectKeyword("END"));
          return ExprPtr(std::make_unique<CaseExpr>(
              std::move(cond), std::move(then), std::move(otherwise)));
        }
        if (t.text == "COALESCE") {
          ++pos_;
          GMDJ_RETURN_IF_ERROR(ExpectSymbol("("));
          GMDJ_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
          GMDJ_RETURN_IF_ERROR(ExpectSymbol(","));
          GMDJ_ASSIGN_OR_RETURN(ExprPtr b, ParseExpr());
          GMDJ_RETURN_IF_ERROR(ExpectSymbol(")"));
          return ExprPtr(
              std::make_unique<CoalesceExpr>(std::move(a), std::move(b)));
        }
        break;
      default:
        break;
    }
    return Error("expected expression");
  }

  /// Scalar CASE condition: a comparison, IS [NOT] NULL test, or truthy
  /// expression (subqueries are not allowed inside CASE here).
  Result<ExprPtr> ParseCaseCondition() {
    GMDJ_ASSIGN_OR_RETURN(ExprPtr lhs, ParseExpr());
    if (PeekComparison()) {
      GMDJ_ASSIGN_OR_RETURN(const CompareOp op, ParseCompareOp());
      GMDJ_ASSIGN_OR_RETURN(ExprPtr rhs, ParseExpr());
      return Cmp(std::move(lhs), op, std::move(rhs));
    }
    if (ConsumeKeyword("IS")) {
      const bool negated = ConsumeKeyword("NOT");
      GMDJ_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return negated ? IsNotNull(std::move(lhs)) : IsNull(std::move(lhs));
    }
    return lhs;
  }

  Result<std::string> ParseColumnName() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected column name");
    }
    std::string name = Advance().text;
    if (PeekSymbol(".") && Peek(1).kind == TokenKind::kIdent) {
      ++pos_;
      name += "." + Advance().text;
    }
    return name;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  // Non-null only while parsing a top-level expression select list.
  std::vector<SelectSubquery>* select_subs_ = nullptr;
};

}  // namespace

Result<std::unique_ptr<NestedSelect>> ParseQuery(std::string_view sql) {
  GMDJ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseTopLevel();
}

Result<SqlStatement> ParseStatement(std::string_view sql) {
  GMDJ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace gmdj
