#ifndef GMDJ_MQO_SIGNATURE_H_
#define GMDJ_MQO_SIGNATURE_H_

#include <optional>
#include <string>
#include <vector>

#include "exec/plan.h"
#include "expr/aggregate.h"
#include "expr/expr.h"

namespace gmdj {

/// GMDJ signature canonicalization for multi-query optimization.
///
/// A production OLAP service sees the same `(base, detail, theta)` shapes
/// over and over across queries — spelled with different aliases, with the
/// conjuncts of theta in different orders, with aggregate lists permuted
/// or renamed. The canonicalizer maps all of those spellings to one stable
/// string key so the aggregate cache (mqo/agg_cache.h) can recognize
/// shared work.
///
/// Guarantees:
///  * Alias-independence: bound column references render as
///    `$frame.column`, so `Flow -> F` vs `Flow -> G` collide (desired).
///    All expressions must be bound before canonicalization.
///  * Commutation-stability: conjuncts (and disjuncts) are flattened and
///    sorted; comparison operands are oriented canonically with the
///    operator mirrored; +/* operands are sorted (IEEE addition and
///    multiplication are commutative, though not associative).
///  * NULL-sensitivity: IS NULL / IS NOT NULL / IS NOT TRUE / NOT and
///    Kleene connectives all render with distinct tags, so predicates
///    with different UNKNOWN behavior never collide.
///  * Injective encoding: strings are length-prefixed, so no crafted
///    literal or LIKE pattern can make two different trees render alike.

/// Canonical key of one bound scalar/predicate expression.
std::string CanonicalExprKey(const Expr& expr);

/// Canonical key of a theta condition; null means TRUE (all detail rows).
/// Top-level conjuncts are sorted, as at every nested AND/OR level.
std::string CanonicalThetaKey(const Expr* theta);

/// Canonical key of one aggregate: `sum($1.3)`, `count(*)`, ... The
/// output name is deliberately excluded — renamed or reordered aggregate
/// lists are the same work.
std::string CanonicalAggKey(const AggSpec& agg);

/// Fingerprint of a GMDJ input plan. Only bare catalog-table scans are
/// fingerprintable (the alias is dropped; references canonicalize by
/// index); anything else returns nullopt and the GMDJ is not cacheable.
std::optional<std::string> ScanFingerprint(const PlanNode& node);

/// One GMDJ condition as seen by the canonicalizer. `theta` may be null
/// (TRUE); `aggs` lists the condition's aggregate specs in node order.
struct GmdjConditionView {
  const Expr* theta = nullptr;
  std::vector<const AggSpec*> aggs;
};

/// Canonical signature of one GMDJ condition.
struct GmdjCondSignature {
  std::string theta_key;
  std::vector<std::string> agg_keys;  // One per AggSpec, node order.
  std::string share_key;  // base_fp | detail_fp | theta_key — cache key.
};

/// Canonical signature of a whole GMDJ node over catalog-table scans.
struct GmdjSignature {
  std::string base_table;    // Catalog name of the base scan.
  std::string detail_table;  // Catalog name of the detail scan.
  std::vector<GmdjCondSignature> conditions;  // Node order.
};

/// Builds the signature of a GMDJ whose inputs are catalog-table scans.
/// Returns nullopt when either input is not fingerprintable. All theta
/// and aggregate expressions must be bound over [base, detail] frames.
std::optional<GmdjSignature> BuildGmdjSignature(
    const PlanNode& base, const PlanNode& detail,
    const std::vector<GmdjConditionView>& conditions);

}  // namespace gmdj

#endif  // GMDJ_MQO_SIGNATURE_H_
