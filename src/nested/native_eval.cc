#include "nested/native_eval.h"

#include <algorithm>

#include "common/check.h"
#include "expr/expr_analysis.h"

namespace gmdj {

NativeEvaluator::NativeEvaluator(const Catalog* catalog, NativeOptions options)
    : catalog_(catalog), options_(options), ctx_(catalog) {}

Result<Table> NativeEvaluator::Run(NestedSelect* query) {
  GMDJ_RETURN_IF_ERROR(query->Bind(*catalog_, {}));
  substates_.clear();
  memos_.clear();
  if (query->where != nullptr) {
    GMDJ_RETURN_IF_ERROR(PrepareSubqueries(query->where.get(), 0));
  }

  PlanPtr source_plan = query->SourcePlan();
  GMDJ_RETURN_IF_ERROR(source_plan->Prepare(*catalog_));
  GMDJ_ASSIGN_OR_RETURN(Table base, source_plan->Execute(&ctx_));

  EvalContext ectx;
  ectx.PushFrame(&base);
  ctx_.stats().table_scans += 1;
  ctx_.stats().rows_scanned += base.num_rows();
  std::vector<uint32_t> keep_rows;
  for (size_t r = 0; r < base.num_rows(); ++r) {
    ectx.SetTopRow(r);
    TriBool keep = TriBool::kTrue;
    if (query->where != nullptr) {
      GMDJ_ASSIGN_OR_RETURN(keep, EvalPred(*query->where, &ectx));
    }
    if (IsTrue(keep)) keep_rows.push_back(static_cast<uint32_t>(r));
  }
  Table out = base.Gather(keep_rows);
  ctx_.stats().rows_output += out.num_rows();
  return out;
}

Status NativeEvaluator::PrepareBlock(NestedSelect* sub, size_t depth) {
  SubState state;
  state.frame = depth + 1;

  PlanPtr plan = sub->SourcePlan();
  GMDJ_RETURN_IF_ERROR(plan->Prepare(*catalog_));
  GMDJ_ASSIGN_OR_RETURN(state.table, plan->Execute(&ctx_));

  if (options_.use_indexes && sub->where != nullptr) {
    // Find equality conjuncts `local_col = outer_expr` in the top-level
    // AND chain; they become the probe key.
    std::vector<size_t> key_cols;
    std::vector<const Expr*> probes;
    auto consider = [&](const Expr& lhs, const Expr& rhs) {
      if (lhs.kind() != ExprKind::kColumnRef) return;
      const auto& col = static_cast<const ColumnRefExpr&>(lhs);
      if (col.bound_frame() != state.frame) return;
      if (!UsesOnlyFrames(rhs, 0, state.frame - 1)) return;
      key_cols.push_back(col.bound_column());
      probes.push_back(&rhs);
    };
    // Only ExprPred leaves of the conjunction are index candidates.
    std::vector<const Pred*> stack = {sub->where.get()};
    while (!stack.empty()) {
      const Pred* p = stack.back();
      stack.pop_back();
      if (p->kind() == PredKind::kAnd) {
        const auto* a = static_cast<const AndPred*>(p);
        stack.push_back(&a->lhs());
        stack.push_back(&a->rhs());
      } else if (p->kind() == PredKind::kExpr) {
        const Expr& e = static_cast<const ExprPred*>(p)->expr();
        for (const Expr* conj : SplitConjuncts(e)) {
          if (conj->kind() != ExprKind::kCompare) continue;
          const auto& cmp = static_cast<const CompareExpr&>(*conj);
          if (cmp.op() != CompareOp::kEq) continue;
          consider(cmp.lhs(), cmp.rhs());
          consider(cmp.rhs(), cmp.lhs());
        }
      }
    }
    if (!key_cols.empty()) {
      // Charge the build's peak before it allocates, then keep only the
      // built index's own size charged.
      const size_t bound = KeyIndex::BuildBytesBound(state.table.num_rows());
      GMDJ_RETURN_IF_ERROR(ctx_.ReserveMemory(bound));
      state.index = std::make_unique<KeyIndex>(state.table, key_cols);
      ctx_.ReleaseMemory(bound - state.index->bytes());
      state.probe_exprs = std::move(probes);
      for (const Expr* e : state.probe_exprs) {
        state.probe_cells.emplace_back(e->result_type());
        state.probe_cells.back().AppendNull();
      }
    }
  }

  SubState& placed = substates_[sub] = std::move(state);
  for (const Column& cell : placed.probe_cells) {
    placed.probe_cols.push_back(&cell);
  }
  if (sub->where != nullptr) {
    GMDJ_RETURN_IF_ERROR(PrepareSubqueries(sub->where.get(), depth + 1));
  }
  return Status::OK();
}

Status NativeEvaluator::PrepareSubqueries(Pred* pred, size_t depth) {
  switch (pred->kind()) {
    case PredKind::kExpr:
      return Status::OK();
    case PredKind::kAnd: {
      auto* p = static_cast<AndPred*>(pred);
      GMDJ_RETURN_IF_ERROR(PrepareSubqueries(&p->lhs(), depth));
      return PrepareSubqueries(&p->rhs(), depth);
    }
    case PredKind::kOr: {
      auto* p = static_cast<OrPred*>(pred);
      GMDJ_RETURN_IF_ERROR(PrepareSubqueries(&p->lhs(), depth));
      return PrepareSubqueries(&p->rhs(), depth);
    }
    case PredKind::kNot:
      return PrepareSubqueries(&static_cast<NotPred*>(pred)->input(), depth);
    case PredKind::kExists:
      return PrepareBlock(&static_cast<ExistsPred*>(pred)->mutable_sub(),
                          depth);
    case PredKind::kCompareSub:
      return PrepareBlock(&static_cast<CompareSubPred*>(pred)->mutable_sub(),
                          depth);
    case PredKind::kQuantSub:
      return PrepareBlock(&static_cast<QuantSubPred*>(pred)->mutable_sub(),
                          depth);
  }
  return Status::OK();
}

std::span<const uint32_t> NativeEvaluator::Candidates(
    const SubState& state, EvalContext* ctx, std::vector<uint32_t>* scratch) {
  if (state.index != nullptr) {
    // The outer key, as one cell per key column.
    for (size_t k = 0; k < state.probe_exprs.size(); ++k) {
      const Value v = state.probe_exprs[k]->Eval(*ctx);
      if (v.is_null()) return {};  // Equality is never TRUE on NULL.
      state.probe_cells[k].Set(0, v);
    }
    ctx_.stats().hash_probes += 1;
    return state.index->Probe(state.probe_cols, 0);
  }
  // Full scan of the materialized inner table per outer tuple: the
  // tuple-iteration cost profile.
  scratch->clear();
  scratch->reserve(state.table.num_rows());
  for (uint32_t i = 0; i < state.table.num_rows(); ++i) scratch->push_back(i);
  ctx_.stats().table_scans += 1;
  return *scratch;
}

Result<TriBool> NativeEvaluator::EvalPred(const Pred& pred, EvalContext* ctx) {
  switch (pred.kind()) {
    case PredKind::kExpr:
      ctx_.stats().predicate_evals += 1;
      return static_cast<const ExprPred&>(pred).expr().EvalPred(*ctx);
    case PredKind::kAnd: {
      const auto& p = static_cast<const AndPred&>(pred);
      GMDJ_ASSIGN_OR_RETURN(const TriBool a, EvalPred(p.lhs(), ctx));
      if (IsFalse(a)) return TriBool::kFalse;
      GMDJ_ASSIGN_OR_RETURN(const TriBool b, EvalPred(p.rhs(), ctx));
      return And(a, b);
    }
    case PredKind::kOr: {
      const auto& p = static_cast<const OrPred&>(pred);
      GMDJ_ASSIGN_OR_RETURN(const TriBool a, EvalPred(p.lhs(), ctx));
      if (IsTrue(a)) return TriBool::kTrue;
      GMDJ_ASSIGN_OR_RETURN(const TriBool b, EvalPred(p.rhs(), ctx));
      return Or(a, b);
    }
    case PredKind::kNot: {
      const auto& p = static_cast<const NotPred&>(pred);
      GMDJ_ASSIGN_OR_RETURN(const TriBool a, EvalPred(p.input(), ctx));
      return Not(a);
    }
    case PredKind::kExists:
      return EvalExists(static_cast<const ExistsPred&>(pred), ctx);
    case PredKind::kCompareSub:
      return EvalCompareSub(static_cast<const CompareSubPred&>(pred), ctx);
    case PredKind::kQuantSub:
      return EvalQuantSub(static_cast<const QuantSubPred&>(pred), ctx);
  }
  return Status::Internal("unknown predicate kind");
}

namespace {

// Collects the (frame, column) slots of every bound reference below
// `sub_frame` anywhere in the predicate subtree — the correlation
// parameters a subquery outcome depends on.
void CollectOuterSlots(const Expr& expr, size_t sub_frame,
                       std::vector<std::pair<size_t, size_t>>* out) {
  std::vector<const ColumnRefExpr*> refs;
  CollectColumnRefs(expr, &refs);
  for (const ColumnRefExpr* ref : refs) {
    if (ref->bound_frame() < sub_frame) {
      out->emplace_back(ref->bound_frame(), ref->bound_column());
    }
  }
}

void CollectOuterSlotsOfBlock(const NestedSelect& sub, size_t sub_frame,
                              std::vector<std::pair<size_t, size_t>>* out);

void CollectOuterSlotsOfPred(const Pred& pred, size_t sub_frame,
                             std::vector<std::pair<size_t, size_t>>* out) {
  switch (pred.kind()) {
    case PredKind::kExpr:
      CollectOuterSlots(static_cast<const ExprPred&>(pred).expr(), sub_frame,
                        out);
      return;
    case PredKind::kAnd: {
      const auto& p = static_cast<const AndPred&>(pred);
      CollectOuterSlotsOfPred(p.lhs(), sub_frame, out);
      CollectOuterSlotsOfPred(p.rhs(), sub_frame, out);
      return;
    }
    case PredKind::kOr: {
      const auto& p = static_cast<const OrPred&>(pred);
      CollectOuterSlotsOfPred(p.lhs(), sub_frame, out);
      CollectOuterSlotsOfPred(p.rhs(), sub_frame, out);
      return;
    }
    case PredKind::kNot:
      CollectOuterSlotsOfPred(static_cast<const NotPred&>(pred).input(),
                              sub_frame, out);
      return;
    case PredKind::kExists:
      CollectOuterSlotsOfBlock(static_cast<const ExistsPred&>(pred).sub(),
                               sub_frame, out);
      return;
    case PredKind::kCompareSub: {
      const auto& p = static_cast<const CompareSubPred&>(pred);
      CollectOuterSlots(p.lhs(), sub_frame, out);
      CollectOuterSlotsOfBlock(p.sub(), sub_frame, out);
      return;
    }
    case PredKind::kQuantSub: {
      const auto& p = static_cast<const QuantSubPred&>(pred);
      CollectOuterSlots(p.lhs(), sub_frame, out);
      CollectOuterSlotsOfBlock(p.sub(), sub_frame, out);
      return;
    }
  }
}

void CollectOuterSlotsOfBlock(const NestedSelect& sub, size_t sub_frame,
                              std::vector<std::pair<size_t, size_t>>* out) {
  if (sub.select_expr != nullptr) {
    CollectOuterSlots(*sub.select_expr, sub_frame, out);
  }
  if (sub.select_agg.has_value() && sub.select_agg->arg != nullptr) {
    CollectOuterSlots(*sub.select_agg->arg, sub_frame, out);
  }
  if (sub.where != nullptr) {
    CollectOuterSlotsOfPred(*sub.where, sub_frame, out);
  }
}

}  // namespace

NativeEvaluator::MemoState* NativeEvaluator::MemoFor(const Pred& pred,
                                                     size_t sub_frame,
                                                     const EvalContext& ctx,
                                                     Row* key,
                                                     bool block_params_only) {
  if (!options_.memoize_invariants) return nullptr;
  const auto [it, inserted] = memos_.try_emplace(&pred);
  MemoState& memo = it->second;
  if (inserted) {
    std::vector<std::pair<size_t, size_t>> slots;
    if (block_params_only) {
      // The lhs is excluded: only the block's own correlation parameters
      // determine the cached value.
      if (pred.kind() == PredKind::kCompareSub) {
        CollectOuterSlotsOfBlock(
            static_cast<const CompareSubPred&>(pred).sub(), sub_frame,
            &slots);
      } else {
        CollectOuterSlotsOfPred(pred, sub_frame, &slots);
      }
    } else {
      CollectOuterSlotsOfPred(pred, sub_frame, &slots);
    }
    // Dedupe while keeping order.
    for (const auto& slot : slots) {
      if (std::find(memo.param_slots.begin(), memo.param_slots.end(),
                    slot) == memo.param_slots.end()) {
        memo.param_slots.push_back(slot);
      }
    }
  }
  key->clear();
  key->reserve(memo.param_slots.size());
  for (const auto& [frame, column] : memo.param_slots) {
    key->push_back(ctx.ValueAt(frame, column));
  }
  return &memo;
}

Result<TriBool> NativeEvaluator::EvalExists(const ExistsPred& pred,
                                            EvalContext* ctx) {
  const auto it = substates_.find(&pred.sub());
  GMDJ_CHECK(it != substates_.end());
  const SubState& state = it->second;
  Row memo_key;
  MemoState* memo = MemoFor(pred, state.frame, *ctx, &memo_key);
  if (memo != nullptr) {
    ctx_.stats().hash_probes += 1;
    const auto hit = memo->cache.find(memo_key);
    if (hit != memo->cache.end()) return hit->second;
  }
  std::vector<uint32_t> scratch;
  const std::span<const uint32_t> candidates =
      Candidates(state, ctx, &scratch);

  bool found = false;
  ctx->PushFrame(&state.table);
  for (const uint32_t r : candidates) {
    ctx->SetTopRow(r);
    ctx_.stats().rows_scanned += 1;
    TriBool w = TriBool::kTrue;
    if (pred.sub().where != nullptr) {
      auto res = EvalPred(*pred.sub().where, ctx);
      if (!res.ok()) {
        ctx->PopFrame();
        return res.status();
      }
      w = *res;
    }
    if (IsTrue(w)) {
      found = true;
      if (options_.smart_termination) break;
    }
  }
  ctx->PopFrame();
  // EXISTS is two-valued: TRUE or FALSE, never UNKNOWN.
  const TriBool result = MakeTriBool(pred.negated() ? !found : found);
  if (memo != nullptr) memo->cache.emplace(std::move(memo_key), result);
  return result;
}

Result<TriBool> NativeEvaluator::EvalCompareSub(const CompareSubPred& pred,
                                                EvalContext* ctx) {
  const auto it = substates_.find(&pred.sub());
  GMDJ_CHECK(it != substates_.end());
  const SubState& state = it->second;
  Row memo_key;
  MemoState* memo = MemoFor(pred, state.frame, *ctx, &memo_key,
                            /*block_params_only=*/true);
  const Value lhs = pred.lhs().Eval(*ctx);
  if (memo != nullptr) {
    ctx_.stats().hash_probes += 1;
    const auto hit = memo->value_cache.find(memo_key);
    if (hit != memo->value_cache.end()) {
      return SqlCompare(lhs, pred.op(), hit->second);
    }
  }
  std::vector<uint32_t> scratch;
  const std::span<const uint32_t> candidates =
      Candidates(state, ctx, &scratch);

  const NestedSelect& sub = pred.sub();
  AggState agg_state;
  Value scalar;
  size_t matches = 0;

  ctx->PushFrame(&state.table);
  for (const uint32_t r : candidates) {
    ctx->SetTopRow(r);
    ctx_.stats().rows_scanned += 1;
    TriBool w = TriBool::kTrue;
    if (sub.where != nullptr) {
      auto res = EvalPred(*sub.where, ctx);
      if (!res.ok()) {
        ctx->PopFrame();
        return res.status();
      }
      w = *res;
    }
    if (!IsTrue(w)) continue;
    ++matches;
    if (sub.select_agg.has_value()) {
      const AggSpec& spec = *sub.select_agg;
      agg_state.Update(spec.kind, spec.kind == AggKind::kCountStar
                                      ? Value()
                                      : spec.arg->Eval(*ctx));
    } else {
      if (matches > 1) {
        ctx->PopFrame();
        return Status::RuntimeError(
            "scalar subquery returned more than one row");
      }
      scalar = sub.select_expr->Eval(*ctx);
    }
  }
  ctx->PopFrame();

  Value sub_value;
  if (sub.select_agg.has_value()) {
    const AggSpec& spec = *sub.select_agg;
    const ValueType arg_type =
        spec.arg != nullptr ? spec.arg->result_type() : ValueType::kInt64;
    sub_value = agg_state.Finalize(spec.kind, arg_type);
  } else if (matches == 0) {
    sub_value = Value::Null();  // Empty scalar subquery yields NULL.
  } else {
    sub_value = scalar;
  }
  if (memo != nullptr) {
    memo->value_cache.emplace(std::move(memo_key), sub_value);
  }
  return SqlCompare(lhs, pred.op(), sub_value);
}

Result<TriBool> NativeEvaluator::EvalQuantSub(const QuantSubPred& pred,
                                              EvalContext* ctx) {
  const auto it = substates_.find(&pred.sub());
  GMDJ_CHECK(it != substates_.end());
  const SubState& state = it->second;
  Row memo_key;
  MemoState* memo = MemoFor(pred, state.frame, *ctx, &memo_key);
  if (memo != nullptr) {
    ctx_.stats().hash_probes += 1;
    const auto hit = memo->cache.find(memo_key);
    if (hit != memo->cache.end()) return hit->second;
  }
  const Value lhs = pred.lhs().Eval(*ctx);
  std::vector<uint32_t> scratch;
  const std::span<const uint32_t> candidates =
      Candidates(state, ctx, &scratch);

  const NestedSelect& sub = pred.sub();
  bool any_true = false;
  bool any_false = false;
  bool any_unknown = false;

  ctx->PushFrame(&state.table);
  for (const uint32_t r : candidates) {
    ctx->SetTopRow(r);
    ctx_.stats().rows_scanned += 1;
    TriBool w = TriBool::kTrue;
    if (sub.where != nullptr) {
      auto res = EvalPred(*sub.where, ctx);
      if (!res.ok()) {
        ctx->PopFrame();
        return res.status();
      }
      w = *res;
    }
    if (!IsTrue(w)) continue;
    const TriBool c =
        SqlCompare(lhs, pred.op(), sub.select_expr->Eval(*ctx));
    if (IsTrue(c)) {
      any_true = true;
      // "Smart nested loop": SOME is decided by the first TRUE.
      if (options_.smart_termination && pred.quant() == QuantKind::kSome) {
        break;
      }
    } else if (IsFalse(c)) {
      any_false = true;
      // ... and ALL is decided by the first FALSE.
      if (options_.smart_termination && pred.quant() == QuantKind::kAll) {
        break;
      }
    } else {
      any_unknown = true;
    }
  }
  ctx->PopFrame();

  TriBool result;
  if (pred.quant() == QuantKind::kSome) {
    if (any_true) {
      result = TriBool::kTrue;
    } else if (any_unknown) {
      result = TriBool::kUnknown;
    } else {
      result = TriBool::kFalse;  // Empty range included.
    }
  } else {
    // ALL: TRUE when the range is empty or every comparison is TRUE.
    if (any_false) {
      result = TriBool::kFalse;
    } else if (any_unknown) {
      result = TriBool::kUnknown;
    } else {
      result = TriBool::kTrue;
    }
  }
  if (memo != nullptr) memo->cache.emplace(std::move(memo_key), result);
  return result;
}

}  // namespace gmdj
