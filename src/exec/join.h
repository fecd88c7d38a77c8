#ifndef GMDJ_EXEC_JOIN_H_
#define GMDJ_EXEC_JOIN_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/plan.h"
#include "expr/expr.h"

namespace gmdj {

/// Join variants used by the unnesting translator and by general plans.
enum class JoinKind : unsigned char {
  kInner,
  kLeftOuter,  // Unmatched left rows padded with NULLs.
  kSemi,       // Left rows with at least one match (no right columns).
  kAnti,       // Left rows with no match (no right columns).
};

const char* JoinKindToString(JoinKind kind);

/// Right-row index of a left-outer pair without a match.
inline constexpr uint32_t kNoMatch = UINT32_MAX;

/// Join output under `schema` (left columns then right columns): row k
/// is left row li[k] followed by right row ri[k], or by NULLs when ri[k]
/// is kNoMatch. Built column by column from the input columns.
Table JoinedRows(const Schema& schema, const Table& left,
                 std::span<const uint32_t> li, const Table& right,
                 std::span<const uint32_t> ri);

/// One equi-join key: `left_expr = right_expr`, with the left expression
/// bound over the left schema and the right over the right schema.
struct JoinKey {
  ExprPtr left;
  ExprPtr right;

  JoinKey(ExprPtr l, ExprPtr r) : left(std::move(l)), right(std::move(r)) {}
};

/// Hash join on equality keys plus an optional residual predicate bound
/// over [left, right] frames.
///
/// NULL join keys never match (SQL equality semantics): such left rows are
/// dropped by inner/semi joins, NULL-padded by left outer joins, and kept
/// by anti joins.
class HashJoinNode final : public PlanNode {
 public:
  HashJoinNode(PlanPtr left, PlanPtr right, JoinKind kind,
               std::vector<JoinKey> keys, ExprPtr residual = nullptr);

  Status Prepare(const Catalog& catalog) override;
  Result<Table> Execute(ExecContext* ctx) const override;
  std::string label() const override;
  std::vector<const PlanNode*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  /// Build-side spilling: partitions the right input into contiguous
  /// ranges, builds a hash table per range against the vacated budget, and
  /// probes the full left input each pass. Inner/left-outer match rows are
  /// staged in per-pass spill files tagged with their probe-row index and
  /// merged back in exact single-pass order; semi/anti only need the
  /// cross-pass match bitmap. Ranges that still do not fit split
  /// recursively; a single build row over budget is the hard
  /// ResourceExhausted fallback.
  Result<Table> ExecuteSpilled(ExecContext* ctx, OpScope* scope,
                               const Table& l, const Table& r,
                               size_t initial_partitions) const;

  PlanPtr left_;
  PlanPtr right_;
  JoinKind kind_;
  std::vector<JoinKey> keys_;
  ExprPtr residual_;
};

/// Nested-loop join with an arbitrary predicate bound over [left, right]
/// frames. Required for non-equi correlations (e.g. the `<>` ALL queries of
/// Figure 4, whose unnested form has no usable equality key).
class NLJoinNode final : public PlanNode {
 public:
  NLJoinNode(PlanPtr left, PlanPtr right, JoinKind kind, ExprPtr predicate);

  Status Prepare(const Catalog& catalog) override;
  Result<Table> Execute(ExecContext* ctx) const override;
  std::string label() const override;
  std::vector<const PlanNode*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PlanPtr left_;
  PlanPtr right_;
  JoinKind kind_;
  ExprPtr predicate_;
};

}  // namespace gmdj

#endif  // GMDJ_EXEC_JOIN_H_
