#include "core/gmdj_node.h"

#include <map>

#include <algorithm>

#include "common/check.h"
#include "common/fault_injection.h"
#include "exec/range_spill.h"
#include "expr/program.h"
#include "parallel/parallel_gmdj.h"

namespace gmdj {
namespace {

/// The GMDJ output: `base` (its rows already selected) under the base half
/// of `schema`, its columns shared, extended by one column per aggregate;
/// `agg(k, a)` is flat aggregate a's value for output row k.
template <typename AggFn>
Result<Table> ExtendWithAggs(Table base, const Schema& schema,
                             size_t total_aggs, const AggFn& agg) {
  const size_t width = schema.num_fields() - total_aggs;
  base.SetSchema(Schema(std::vector<Field>(
      schema.fields().begin(), schema.fields().begin() + width)));
  const size_t n = base.num_rows();
  for (size_t a = 0; a < total_aggs; ++a) {
    const Field& field = schema.field(width + a);
    auto col = std::make_shared<Column>(field.type);
    col->Reserve(n);
    for (size_t k = 0; k < n; ++k) {
      GMDJ_RETURN_IF_ERROR(
          AppendCell(field.QualifiedName(), agg(k, a), col.get()));
    }
    base.AddColumn(field, std::move(col));
  }
  return base;
}

/// Reorders compiled runtimes by the planner's eval-order hint. Each
/// runtime carries its own agg_offset, freeze bit, and pair pointers, so
/// vector position only determines the per-detail-tuple probe order —
/// the emitted rows are identical. Must run after all index-based wiring
/// (pair fusion, program attachment, batch-column collection).
void ApplyEvalOrder(std::vector<GmdjCondRuntime>* runtimes,
                    const std::vector<size_t>& order) {
  if (order.size() != runtimes->size()) return;
  std::vector<GmdjCondRuntime> ordered;
  ordered.reserve(runtimes->size());
  for (const size_t i : order) ordered.push_back(std::move((*runtimes)[i]));
  *runtimes = std::move(ordered);
}

/// The fold the chunk kernel gives an aggregate argument of bound type
/// `type` with program `arg`: typed when the argument is numeric and reads
/// only detail columns — straight from the detail column when it is one,
/// else as one batch evaluation per chunk — and the per-pair Value fold
/// otherwise.
AggFold ChooseAggFold(const std::optional<ExprProgram>& arg, ValueType type) {
  if (!arg.has_value() || arg->result_type() != type ||
      (type != ValueType::kInt64 && type != ValueType::kDouble)) {
    return AggFold::kValue;
  }
  for (size_t i = 0; i < arg->num_ops(); ++i) {
    const ExprOp& op = arg->op(i);
    if ((op.code == OpCode::kLoadCol || op.code == OpCode::kCmpColLit) &&
        op.frame != 1) {
      return AggFold::kValue;
    }
  }
  return arg->num_ops() == 1 && arg->op(0).code == OpCode::kLoadCol
             ? AggFold::kColumn
             : AggFold::kBatch;
}

bool OnlyCountStar(const GmdjCondition& cond) {
  for (const AggSpec& agg : cond.aggs) {
    if (agg.kind != AggKind::kCountStar) return false;
  }
  return true;
}

/// Whether hash equality on keys of these column types agrees with the
/// comparison operators: the same type, or two numeric types (KeyIndex
/// equates int64 and double keys of equal value, as `=` does).
bool HashComparable(ValueType a, ValueType b) {
  const auto numeric = [](ValueType t) {
    return t == ValueType::kInt64 || t == ValueType::kDouble;
  };
  return a == b || (numeric(a) && numeric(b));
}

}  // namespace

GmdjNode::GmdjNode(PlanPtr base, PlanPtr detail,
                   std::vector<GmdjCondition> conditions,
                   GmdjStrategy strategy)
    : base_(std::move(base)),
      detail_(std::move(detail)),
      conditions_(std::move(conditions)),
      strategy_(strategy) {
  GMDJ_CHECK(!conditions_.empty());
  GMDJ_CHECK(conditions_.size() <= 64);  // Freeze bitmask width.
}

void GmdjNode::SetCompletion(CompletionSpec spec) {
  if (!spec.actions.empty()) {
    GMDJ_CHECK(spec.actions.size() == conditions_.size());
  }
  completion_ = std::move(spec);
}

void GmdjNode::SetEvalOrder(std::vector<size_t> order) {
  if (!order.empty()) {
    GMDJ_CHECK(order.size() == conditions_.size());
    std::vector<bool> seen(order.size(), false);
    for (const size_t i : order) {
      GMDJ_CHECK(i < order.size());
      GMDJ_CHECK(!seen[i]);
      seen[i] = true;
    }
  }
  eval_order_ = std::move(order);
}

Status GmdjNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(base_->Prepare(catalog));
  GMDJ_RETURN_IF_ERROR(detail_->Prepare(catalog));
  const Schema& bs = base_->output_schema();
  const Schema& ds = detail_->output_schema();
  const std::vector<const Schema*> frames = {&bs, &ds};

  output_schema_ = bs;
  agg_offsets_.clear();
  agg_arg_types_.clear();
  analyses_.clear();
  total_aggs_ = 0;
  for (GmdjCondition& cond : conditions_) {
    if (cond.theta != nullptr) {
      GMDJ_RETURN_IF_ERROR(cond.theta->Bind(frames));
    }
    agg_offsets_.push_back(total_aggs_);
    for (AggSpec& agg : cond.aggs) {
      GMDJ_RETURN_IF_ERROR(agg.Bind(frames));
      agg_arg_types_.push_back(agg.arg != nullptr ? agg.arg->result_type()
                                                  : ValueType::kInt64);
      output_schema_.AddField(Field{agg.output_name, agg.output_type(), ""});
      ++total_aggs_;
    }
  }
  ConditionAnalysisOptions analysis_options;
  analysis_options.allow_index = allow_index_bindings_;
  for (const GmdjCondition& cond : conditions_) {
    if (cond.theta != nullptr) {
      analyses_.push_back(AnalyzeCondition(*cond.theta, bs, ds,
                                           analysis_options));
    } else {
      ConditionAnalysis all;
      all.strategy = CondStrategy::kScan;
      analyses_.push_back(std::move(all));
    }
  }
  for (AllPairRule& pair : completion_.all_pairs) {
    if (pair.filtered >= conditions_.size() ||
        pair.unfiltered >= conditions_.size()) {
      return Status::InvalidArgument("ALL-pair condition index out of range");
    }
    GMDJ_RETURN_IF_ERROR(pair.cmp->Bind(frames));
  }

  // Canonical MQO signature over the now-bound conditions. Nullopt (not
  // an error) when an input is not a bare catalog scan — such nodes are
  // simply not shareable across queries.
  std::vector<GmdjConditionView> views;
  views.reserve(conditions_.size());
  for (const GmdjCondition& cond : conditions_) {
    GmdjConditionView view;
    view.theta = cond.theta.get();
    view.aggs.reserve(cond.aggs.size());
    for (const AggSpec& agg : cond.aggs) view.aggs.push_back(&agg);
    views.push_back(std::move(view));
  }
  signature_ = BuildGmdjSignature(*base_, *detail_, views);
  return Status::OK();
}

Result<Table> GmdjNode::Execute(ExecContext* ctx) const {
  // The span gets a short fixed name: the full label() renders every
  // condition, which only EXPLAIN needs.
  OpScope scope(ctx, this,
                strategy_ == GmdjStrategy::kNaive ? "GMDJ (naive)" : "GMDJ");
  GmdjCacheHook* cache = ctx->gmdj_cache();
  // Completion-enabled nodes never touch the cache: completion prunes
  // (discards/freezes) base tuples according to *this query's* selection,
  // so their output is not the query-independent full aggregate table the
  // cache holds. Storing it would poison later consumers; probing it would
  // skip the pruning. They fall through to normal evaluation.
  const bool cache_eligible =
      cache != nullptr && signature_.has_value() && !completion_.enabled();

  // Versions are observed *before* any table is read: a mutation racing
  // this query can only make the captured versions stale (a wasted store
  // or a spurious miss), never validate a stale entry.
  std::vector<GmdjCacheKey> keys;
  if (cache_eligible) {
    const TableVersion base_version =
        ctx->catalog().GetTableVersion(signature_->base_table);
    const TableVersion detail_version =
        ctx->catalog().GetTableVersion(signature_->detail_table);
    keys.reserve(signature_->conditions.size());
    for (const GmdjCondSignature& cs : signature_->conditions) {
      GmdjCacheKey key;
      key.share_key = cs.share_key;
      key.base_table = signature_->base_table;
      key.detail_table = signature_->detail_table;
      key.base_version = base_version;
      key.detail_version = detail_version;
      keys.push_back(std::move(key));
    }
  }

  GMDJ_ASSIGN_OR_RETURN(Table base, base_->Execute(ctx));
  GMDJ_RETURN_IF_ERROR(ctx->PollQuery());

  if (cache_eligible) {
    GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("mqo/probe"));
    for (GmdjCacheKey& key : keys) key.num_base_rows = base.num_rows();
    std::vector<std::vector<CachedAggColumn>> columns(conditions_.size());
    bool all_hit = true;
    for (size_t c = 0; c < conditions_.size(); ++c) {
      if (!cache->Probe(keys[c], signature_->conditions[c].agg_keys,
                        &columns[c])) {
        all_hit = false;
        break;
      }
    }
    if (all_hit) {
      // The detail relation is never read — the whole point of the MQO
      // cache: repeated GMDJ cost collapses to the base scan.
      ctx->stats().gmdj_ops += 1;
      ctx->stats().table_scans += 1;
      ctx->stats().rows_scanned += base.num_rows();
      ctx->stats().cache_hits += 1;
      if (scope.stats() != nullptr) {
        scope.stats()->cache_outcome = obs::CacheOutcome::kHit;
        scope.stats()->coalesced_conditions += conditions_.size();
      }
      scope.AddRowsIn(base.num_rows());
      scope.AddBatches(1);
      Result<Table> cached = BuildCachedOutput(ctx, base, columns);
      if (cached.ok()) scope.AddRowsOut(cached->num_rows());
      return cached;
    }
    ctx->stats().cache_misses += 1;
    if (scope.stats() != nullptr) {
      scope.stats()->cache_outcome = obs::CacheOutcome::kMiss;
    }
  }

  GMDJ_ASSIGN_OR_RETURN(Table detail, detail_->Execute(ctx));
  ctx->stats().gmdj_ops += 1;
  ctx->stats().table_scans += 2;
  ctx->stats().rows_scanned += base.num_rows() + detail.num_rows();
  GMDJ_METRIC_ADD(ctx->hot_metrics().rows_scanned,
                  base.num_rows() + detail.num_rows());
  scope.AddRowsIn(base.num_rows() + detail.num_rows());
  Result<Table> result = strategy_ == GmdjStrategy::kNaive
                             ? ExecuteNaive(ctx, base, detail)
                             : ExecuteAuto(ctx, &scope, base, detail);
  if (result.ok()) scope.AddRowsOut(result->num_rows());
  // A cancelled or failed evaluation never publishes: `result` is only a
  // complete aggregate table when it is ok, and partial aggregates in the
  // cache would silently corrupt every later subscriber.
  if (cache_eligible && result.ok()) {
    const Status store_gate = GMDJ_FAULT_POINT("mqo/store");
    if (!store_gate.ok()) return store_gate;
    StoreInCache(cache, keys, *result);
  }
  return result;
}

Result<Table> GmdjNode::BuildCachedOutput(
    ExecContext* ctx, const Table& base,
    const std::vector<std::vector<CachedAggColumn>>& columns) const {
  std::vector<const std::vector<Value>*> flat;
  for (const std::vector<CachedAggColumn>& cond_cols : columns) {
    for (const CachedAggColumn& col : cond_cols) flat.push_back(col.get());
  }
  GMDJ_ASSIGN_OR_RETURN(
      Table out,
      ExtendWithAggs(base, output_schema_, total_aggs_,
                     [&](size_t k, size_t a) { return (*flat[a])[k]; }));
  ctx->stats().rows_output += out.num_rows();
  return out;
}

void GmdjNode::StoreInCache(GmdjCacheHook* cache,
                            const std::vector<GmdjCacheKey>& keys,
                            const Table& out) const {
  // Without completion no base tuple is discarded, so the output rows are
  // exactly the base rows in scan order — the alignment the cache requires.
  const size_t n = out.num_rows();
  if (n != keys.front().num_base_rows) return;  // Defensive; see above.
  const size_t base_width = base_->output_schema().num_fields();
  for (size_t c = 0; c < conditions_.size(); ++c) {
    const GmdjCondSignature& cs = signature_->conditions[c];
    std::vector<CachedAggColumn> cols;
    cols.reserve(cs.agg_keys.size());
    for (size_t a = 0; a < cs.agg_keys.size(); ++a) {
      auto col = std::make_shared<std::vector<Value>>();
      col->reserve(n);
      const Column& agg_col = out.column(base_width + agg_offsets_[c] + a);
      for (size_t b = 0; b < n; ++b) col->push_back(agg_col.Get(b));
      cols.push_back(std::move(col));
    }
    cache->Store(keys[c], cs.agg_keys, std::move(cols));
  }
}

// Reference implementation: literal transcription of Definition 2.1.
Result<Table> GmdjNode::ExecuteNaive(ExecContext* ctx, const Table& base,
                                     const Table& detail) const {
  EvalContext ectx;
  ectx.PushFrame(&base);
  ectx.PushFrame(&detail);
  std::vector<AggState> all_states(base.num_rows() * total_aggs_);

  obs::OperatorStats* os = ctx->op_stats(this);
  std::vector<uint64_t> match_counts;  // Per condition, reset per base row.
  if (os != nullptr) {
    os->coalesced_conditions += conditions_.size();
    os->aggs += total_aggs_;  // All folded per pair (typed_aggs stays 0).
    os->batches += 1;
  }

  for (size_t b = 0; b < base.num_rows(); ++b) {
    GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
    ectx.SetRow(0, b);
    AggState* states = &all_states[b * total_aggs_];
    if (os != nullptr) match_counts.assign(conditions_.size(), 0);
    for (size_t r = 0; r < detail.num_rows(); ++r) {
      ectx.SetRow(1, r);
      for (size_t c = 0; c < conditions_.size(); ++c) {
        const GmdjCondition& cond = conditions_[c];
        if (cond.theta != nullptr) {
          ctx->stats().predicate_evals += 1;
          if (!IsTrue(cond.theta->EvalPred(ectx))) continue;
        }
        if (os != nullptr) ++match_counts[c];
        for (size_t a = 0; a < cond.aggs.size(); ++a) {
          const AggSpec& agg = cond.aggs[a];
          states[agg_offsets_[c] + a].Update(
              agg.kind,
              agg.kind == AggKind::kCountStar ? Value() : agg.arg->Eval(ectx));
        }
      }
    }
    if (os != nullptr) {
      for (const uint64_t count : match_counts) {
        os->rng_sizes.Record(count);
      }
    }
  }
  const std::vector<AggKind> kinds = FlatAggKinds();
  GMDJ_ASSIGN_OR_RETURN(
      Table out,
      ExtendWithAggs(base, output_schema_, total_aggs_,
                     [&](size_t b, size_t a) {
                       return all_states[b * total_aggs_ + a].Finalize(
                           kinds[a], agg_arg_types_[a]);
                     }));
  ctx->stats().rows_output += out.num_rows();
  return out;
}

std::vector<AggKind> GmdjNode::FlatAggKinds() const {
  std::vector<AggKind> kinds;
  kinds.reserve(total_aggs_);
  for (const GmdjCondition& cond : conditions_) {
    for (const AggSpec& agg : cond.aggs) kinds.push_back(agg.kind);
  }
  return kinds;
}

std::vector<GmdjNode::CondRoute> GmdjNode::RouteConditions() const {
  std::vector<CondRoute> routes(conditions_.size());
  const auto action = [&](size_t c) {
    return c < completion_.actions.size() ? completion_.actions[c]
                                          : CompletionAction::kNone;
  };
  ConditionAnalysisOptions options;
  options.allow_index = allow_index_bindings_;
  for (const AllPairRule& pair : completion_.all_pairs) {
    routes[pair.filtered].fused = true;
    const ConditionAnalysis& theta = analyses_[pair.unfiltered];
    if (strategy_ != GmdjStrategy::kAuto ||
        theta.strategy != CondStrategy::kScan || !theta.residual.empty() ||
        action(pair.unfiltered) != CompletionAction::kNone ||
        action(pair.filtered) != CompletionAction::kNone ||
        !OnlyCountStar(conditions_[pair.unfiltered]) ||
        !OnlyCountStar(conditions_[pair.filtered])) {
      continue;
    }
    const std::optional<EqBinding> key =
        AnalyzeAntiBinding(*pair.cmp, options);
    if (key.has_value() &&
        HashComparable(base_->output_schema().field(key->base_col).type,
                       detail_->output_schema().field(key->detail_col).type)) {
      routes[pair.unfiltered].anti_key = key;
    }
  }

  // Binding groups, keyed by dispatch kind plus every bound column.
  std::map<std::vector<size_t>, int> groups;
  for (size_t c = 0; c < conditions_.size(); ++c) {
    const ConditionAnalysis& a = analyses_[c];
    if (routes[c].fused || routes[c].anti_key.has_value() ||
        a.strategy == CondStrategy::kScan) {
      continue;
    }
    std::vector<size_t> key;
    if (a.strategy == CondStrategy::kHash) {
      key.push_back(0);
      for (const EqBinding& eq : a.eq_bindings) {
        key.push_back(eq.base_col);
        key.push_back(eq.detail_col);
      }
    } else {
      const IntervalBinding& iv = *a.interval;
      key = {1, iv.detail_col, iv.base_lo_col, iv.lo_strict, iv.base_hi_col,
             iv.hi_strict};
    }
    const int next = static_cast<int>(groups.size());
    routes[c].group = groups.emplace(std::move(key), next).first->second;
  }
  std::vector<size_t> sizes(groups.size(), 0);
  for (const CondRoute& route : routes) {
    if (route.group >= 0) ++sizes[static_cast<size_t>(route.group)];
  }
  for (CondRoute& route : routes) {
    if (route.group >= 0) {
      route.group_size = sizes[static_cast<size_t>(route.group)];
    }
  }
  return routes;
}

/// Wires the conditions into runtime dispatch form (binding routes,
/// completion, expression programs), read-only during evaluation and
/// shared by the sequential and morsel-parallel evaluators
/// (parallel/parallel_gmdj.h). Indexes are built per base range
/// (BuildIndexes).
std::vector<GmdjCondRuntime> GmdjNode::PrepareRuntimes(
    ExecContext* ctx, std::vector<GmdjCondPrograms>* programs) const {
  const std::vector<CondRoute> routes = RouteConditions();
  std::vector<GmdjCondRuntime> runtimes(conditions_.size());
  for (size_t c = 0; c < conditions_.size(); ++c) {
    runtimes[c].cond = &conditions_[c];
    runtimes[c].analysis = &analyses_[c];
    runtimes[c].agg_offset = agg_offsets_[c];
    runtimes[c].group = routes[c].group;
    runtimes[c].anti_key = routes[c].anti_key;
    if (c < completion_.actions.size()) {
      runtimes[c].action = completion_.actions[c];
      if (runtimes[c].action == CompletionAction::kSatisfyOnMatch) {
        runtimes[c].freeze_bit = uint64_t{1} << c;
      }
    }
  }
  if (completion_.enabled()) {
    for (const AllPairRule& pair : completion_.all_pairs) {
      runtimes[pair.filtered].skip = true;
      GmdjCondRuntime& u = runtimes[pair.unfiltered];
      u.pair_cmp = pair.cmp.get();
      u.pair_agg_offset = agg_offsets_[pair.filtered];
      u.pair_cond = &conditions_[pair.filtered];
    }
  }

  // ---- Batch programs, or none in interpreted mode —
  // GMDJ_EXPR_EVAL=interpret (the ablation baseline / test oracle), or an
  // armed "gmdj/expr-compile" fault, which degrades to the interpreter
  // rather than failing the query: compilation is an optimization, never
  // a correctness dependency.
  bool interpret =
      ctx->config().ResolvedExprEvalMode() == ExprEvalMode::kInterpret;
  if (!interpret && !GMDJ_FAULT_POINT("gmdj/expr-compile").ok()) {
    interpret = true;
    if (ctx->tracer() != nullptr) {
      // Leave a breadcrumb in the flight recorder naming this operator.
      ctx->tracer()->Event("fault:gmdj/expr-compile", label(),
                           ctx->current_span());
    }
  }
  const std::vector<const Schema*> frames = {&base_->output_schema(),
                                             &detail_->output_schema()};
  // Each tree without a program runs through the interpreter.
  const auto lower = [&](const Expr& e, bool* lowered) {
    std::optional<ExprProgram> prog;
    if (!interpret) prog = Compile(e, frames);
    *lowered &= prog.has_value();
    return prog;
  };
  programs->clear();
  programs->resize(conditions_.size());
  for (size_t c = 0; c < conditions_.size(); ++c) {
    GmdjCondPrograms& p = (*programs)[c];
    const GmdjCondRuntime& rt = runtimes[c];
    p.lowered = !interpret;
    if (!rt.skip) {
      // Skipped (filtered-pair) conditions never run their own θ; only
      // their aggregate arguments execute, after a TRUE pair comparison.
      for (const Expr* e : rt.analysis->detail_only) {
        p.detail_only.push_back(lower(*e, &p.lowered));
      }
    }
    for (size_t a = 0; a < conditions_[c].aggs.size(); ++a) {
      const AggSpec& agg = conditions_[c].aggs[a];
      if (agg.arg == nullptr) {
        p.agg_args.emplace_back();
        p.agg_folds.push_back(AggFold::kCountStar);
        continue;
      }
      p.agg_args.push_back(lower(*agg.arg, &p.lowered));
      p.agg_folds.push_back(ChooseAggFold(
          p.agg_args.back(), agg_arg_types_[agg_offsets_[c] + a]));
    }
  }

  // Each condition's outcome counts once per node execution, however
  // many base ranges it runs over.
  uint64_t compiled = 0;
  uint64_t fallbacks = 0;
  for (size_t c = 0; c < conditions_.size(); ++c) {
    GmdjCondRuntime& rt = runtimes[c];
    rt.progs = &(*programs)[c];
    if (rt.pair_cond != nullptr) {
      const size_t filtered =
          static_cast<size_t>(rt.pair_cond - conditions_.data());
      rt.pair_progs = &(*programs)[filtered];
    }
    if (rt.skip) continue;
    if (rt.progs->lowered &&
        (rt.pair_progs == nullptr || rt.pair_progs->lowered)) {
      ++compiled;
    } else {
      ++fallbacks;
    }
  }
  ctx->stats().compiled_conditions += compiled;
  ctx->stats().interpreter_fallbacks += fallbacks;
  if (obs::OperatorStats* os = ctx->op_stats(this); os != nullptr) {
    os->coalesced_conditions += conditions_.size();
    os->compiled_conditions += compiled;
    os->interpreter_fallbacks += fallbacks;
    for (const GmdjCondPrograms& p : *programs) {
      for (const AggFold fold : p.agg_folds) {
        os->typed_aggs += fold != AggFold::kValue;
      }
    }
    os->aggs += total_aggs_;
  }

  ApplyEvalOrder(&runtimes, eval_order_);
  return runtimes;
}

Status GmdjNode::BuildIndexes(ExecContext* ctx, const Table& base,
                              std::vector<GmdjCondRuntime>* runtimes) const {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("gmdj/index-build"));
  const size_t n = base.num_rows();

  // Key indexes on the base, shared between conditions with identical key
  // columns (the common case for coalesced conditions and ALL pairs), and
  // interval indexes shared within a binding group.
  std::map<std::vector<size_t>, std::shared_ptr<KeyIndex>> index_cache;
  std::map<int, std::shared_ptr<IntervalIndex>> interval_cache;
  for (GmdjCondRuntime& rt : *runtimes) {
    if (rt.skip) continue;
    if (rt.anti_key.has_value() ||
        rt.analysis->strategy == CondStrategy::kHash) {
      std::vector<size_t> key_cols;
      if (rt.anti_key.has_value()) {
        key_cols.push_back(rt.anti_key->base_col);
        const Column& key = base.column(rt.anti_key->base_col);
        for (size_t b = 0; b < n; ++b) {
          if (key.is_null(b)) {
            rt.anti_null_bases.push_back(static_cast<uint32_t>(b));
          }
        }
      }
      for (const EqBinding& eq : rt.analysis->eq_bindings) {
        key_cols.push_back(eq.base_col);
      }
      auto& cached = index_cache[key_cols];
      if (cached == nullptr) {
        // Charge the build's peak before it allocates, then keep only the
        // built index's own size charged.
        const size_t bound = KeyIndex::BuildBytesBound(n);
        GMDJ_RETURN_IF_ERROR(ctx->ReserveMemory(bound));
        cached = std::make_shared<KeyIndex>(base, key_cols);
        ctx->ReleaseMemory(bound - cached->bytes());
      }
      rt.index = cached;
    } else if (rt.analysis->strategy == CondStrategy::kInterval) {
      auto& cached = interval_cache[rt.group];
      if (cached != nullptr) {
        rt.interval = cached;
        continue;
      }
      GMDJ_RETURN_IF_ERROR(ctx->ReserveMemory(n * sizeof(IndexedInterval)));
      const IntervalBinding& iv = *rt.analysis->interval;
      std::vector<IndexedInterval> intervals;
      intervals.reserve(n);
      const Column& lo = base.column(iv.base_lo_col);
      const Column& hi = base.column(iv.base_hi_col);
      for (size_t b = 0; b < n; ++b) {
        if (lo.is_null(b) || hi.is_null(b)) continue;  // Can never match.
        intervals.push_back(IndexedInterval{lo.Get(b).AsDouble(),
                                            hi.Get(b).AsDouble(),
                                            static_cast<uint32_t>(b)});
      }
      cached = std::make_shared<IntervalIndex>(std::move(intervals),
                                               iv.lo_strict, iv.hi_strict);
      rt.interval = cached;
    }
  }
  return Status::OK();
}

Result<Table> GmdjNode::ExecuteAuto(ExecContext* ctx, OpScope* scope,
                                    const Table& base,
                                    const Table& detail) const {
  std::vector<GmdjCondPrograms> programs;
  const std::vector<GmdjCondRuntime> runtimes =
      PrepareRuntimes(ctx, &programs);
  RangeSpill ranges(ctx, scope, "gmdj", "base", base.num_rows(),
                    detail.num_rows());
  // A condition counts as slot path when any base range ran it so.
  std::vector<uint8_t> slot_path(runtimes.size(), 0);
  Result<std::optional<Table>> run = ranges.Run<Table>(
      [&](size_t lo, size_t hi) {
        return EvalRange(ctx, runtimes, base.Slice(lo, hi), detail,
                         &slot_path);
      },
      [&](const Table& part) { return ranges.Write(part); });
  if (obs::OperatorStats* os = ctx->op_stats(this); os != nullptr) {
    for (const uint8_t ran : slot_path) os->slot_path_conditions += ran;
  }
  GMDJ_ASSIGN_OR_RETURN(std::optional<Table> resident, std::move(run));
  if (resident.has_value()) return std::move(*resident);

  // Every spilled pass after the first re-scanned the detail relation.
  GMDJ_METRIC_ADD(ctx->hot_metrics().rows_scanned,
                  (ranges.passes() - 1) * detail.num_rows());
  // rows_output was already counted per range.
  Table out(output_schema_);
  GMDJ_RETURN_IF_ERROR(
      ranges.ReadBack(output_schema_, [&](std::vector<Column> block) {
        return out.AppendColumns(std::move(block));
      }));
  return out;
}

Result<Table> GmdjNode::EvalRange(ExecContext* ctx,
                                  std::vector<GmdjCondRuntime> runtimes,
                                  const Table& base, const Table& detail,
                                  std::vector<uint8_t>* slot_path) const {
  const size_t n = base.num_rows();
  const GmdjResultLayout layout = BuildResultLayout(runtimes, agg_arg_types_);

  // The base-results table is the operator's bounded intermediate state
  // (the paper's efficiency argument); charge it before allocating so a
  // budget-governed query aborts cleanly instead.
  {
    Status alloc = GMDJ_FAULT_POINT("gmdj/alloc");
    if (alloc.ok()) alloc = ctx->ReserveMemory(n * layout.BytesPerBase() + n);
    GMDJ_RETURN_IF_ERROR(alloc);
  }
  GMDJ_RETURN_IF_ERROR(BuildIndexes(ctx, base, &runtimes));
  obs::OperatorStats* os = ctx->op_stats(this);
  for (size_t c = 0; c < runtimes.size(); ++c) {
    if (UsesSlotPath(runtimes[c])) (*slot_path)[c] = 1;
  }

  GmdjEvalInput in;
  in.base = &base;
  in.detail = &detail;
  in.runtimes = &runtimes;
  in.layout = &layout;
  in.query = ctx->query_ctx();

  // Morsel-parallel dispatch when the detail relation is large enough to
  // amortize thread handoff, the config allows more than one thread, and
  // the completion spec is order-independent (see ParallelGmdjSupported).
  const ExecConfig& config = ctx->config();
  const bool parallel = config.ResolvedThreads() > 1 &&
                        detail.num_rows() >= config.min_parallel_rows &&
                        detail.num_rows() > config.morsel_rows &&
                        ParallelGmdjSupported(runtimes);

  GmdjEvalResult result;
  const uint64_t predicate_evals_before = ctx->stats().predicate_evals;
  if (parallel) {
    GMDJ_RETURN_IF_ERROR(
        ExecuteGmdjMorselParallel(in, config, &ctx->stats(), &result));
  } else {
    GMDJ_RETURN_IF_ERROR(ExecuteGmdjSequential(ctx, in, &result));
  }
  GMDJ_METRIC_ADD(ctx->hot_metrics().predicate_evals,
                  ctx->stats().predicate_evals - predicate_evals_before);

  if (os != nullptr) {
    os->batches += result.batches;
    if (parallel) os->morsels += result.batches;
    os->threads = std::max<uint64_t>(
        os->threads,
        parallel ? std::min<uint64_t>(config.ResolvedThreads(), result.batches)
                 : 1);
    os->completion_discards += result.num_discarded;
    os->completion_freezes += result.num_freezes;
  }
  // RNG(b, R, θ) range sizes: each condition's match counts over the
  // base tuples the node emits, recorded into the profile histogram and
  // the registry metric. A discarded tuple's counts stop wherever its
  // discard landed, which differs by route and thread count; an emitted
  // tuple's are final on every route.
  const bool want_rng =
      os != nullptr ||
      (obs::kMetricsEnabled && ctx->hot_metrics().rng_size != nullptr);
  if (want_rng) {
    for (size_t c = 0; c < runtimes.size(); ++c) {
      if (runtimes[c].skip) continue;  // Fused pairs never match directly.
      const uint32_t* counts = result.table.counts(layout.count_of[c]);
      for (size_t b = 0; b < n; ++b) {
        if (result.discarded[b]) continue;
        if (os != nullptr) os->rng_sizes.Record(counts[b]);
        GMDJ_METRIC_RECORD(ctx->hot_metrics().rng_size, counts[b]);
      }
    }
  }

  // ---- Emit surviving base tuples extended with their aggregates: the
  // base columns are shared (gathered when completion discarded some),
  // the aggregate columns appended. ----
  std::vector<uint32_t> survivors;
  survivors.reserve(n - result.num_discarded);
  for (uint32_t b = 0; b < n; ++b) {
    if (!result.discarded[b]) survivors.push_back(b);
  }
  GMDJ_ASSIGN_OR_RETURN(
      Table out,
      ExtendWithAggs(
          result.num_discarded == 0 ? base : base.Gather(survivors),
          output_schema_, total_aggs_, [&](size_t k, size_t a) {
            return result.table.Finalize(survivors[k], a);
          }));
  ctx->stats().rows_output += out.num_rows();
  return out;
}

std::string GmdjNode::RouteLabel(size_t c,
                                 const std::vector<CondRoute>& routes) const {
  if (routes[c].anti_key.has_value()) return "anti-probe";
  for (const AllPairRule& pair : completion_.all_pairs) {
    if (pair.filtered == c && routes[pair.unfiltered].anti_key.has_value()) {
      return "anti-probe";
    }
  }
  std::string out = CondStrategyToString(analyses_[c].strategy);
  if (routes[c].group_size > 1) {
    out.append(", shared probe ×")
        .append(std::to_string(routes[c].group_size));
  }
  return out;
}

std::string GmdjNode::label() const {
  const std::vector<CondRoute> routes =
      analyses_.empty() ? std::vector<CondRoute>() : RouteConditions();
  std::string out = "GMDJ[";
  for (size_t c = 0; c < conditions_.size(); ++c) {
    if (c > 0) out += "; ";
    out.append("l").append(std::to_string(c + 1)).append(": (");
    for (size_t a = 0; a < conditions_[c].aggs.size(); ++a) {
      if (a > 0) out += ", ";
      out += conditions_[c].aggs[a].ToString();
    }
    out.append(") theta").append(std::to_string(c + 1)).append(": ");
    out += conditions_[c].theta == nullptr ? "true"
                                           : conditions_[c].theta->ToString();
    if (!routes.empty()) {
      out.append(" {").append(RouteLabel(c, routes)).append("}");
    }
  }
  out += "]";
  if (completion_.enabled()) out += " +completion";
  if (strategy_ == GmdjStrategy::kNaive) out += " (naive)";
  return out;
}

}  // namespace gmdj
