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
  /// Matches as (probe row, build row) index pairs, in probe-row order
  /// and, per probe row, build-row order.
  struct JoinPairs {
    std::vector<uint32_t> probe;
    std::vector<uint32_t> build;

    /// The pairs as a spill block: two int64 columns.
    static Schema SpillSchema();
    Table ToTable() const;
  };

  /// Inner and left-outer joins emit pairs; semi and anti joins only need
  /// each probe row's match count.
  bool EmitsPairs() const {
    return kind_ == JoinKind::kInner || kind_ == JoinKind::kLeftOuter;
  }

  /// One build range: reserves and builds the hash table over build rows
  /// [lo, hi), probes every left row against it, adds each row's matches
  /// to `matches`, and returns the pairs (none for semi/anti, which skip
  /// rows already matched).
  Result<JoinPairs> BuildAndProbe(ExecContext* ctx, const Table& l,
                                  const Table& r, size_t lo, size_t hi,
                                  std::vector<uint32_t>* matches) const;

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
