#include "exec/plan.h"

#include <cstdio>

namespace gmdj {
namespace {

void Render(const PlanNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.label());
  out->push_back('\n');
  for (const PlanNode* child : node.children()) {
    Render(*child, depth + 1, out);
  }
}

}  // namespace

void ExecStats::Add(const ExecStats& other) {
  table_scans += other.table_scans;
  rows_scanned += other.rows_scanned;
  rows_output += other.rows_output;
  hash_probes += other.hash_probes;
  predicate_evals += other.predicate_evals;
  joins += other.joins;
  gmdj_ops += other.gmdj_ops;
  morsels += other.morsels;
  compiled_conditions += other.compiled_conditions;
  interpreter_fallbacks += other.interpreter_fallbacks;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  spill_partitions += other.spill_partitions;
  spill_passes += other.spill_passes;
  spill_bytes_written += other.spill_bytes_written;
  spill_bytes_read += other.spill_bytes_read;
}

std::string ExecStats::ToString() const {
  std::string out;
  out += "table_scans=" + std::to_string(table_scans);
  out += " rows_scanned=" + std::to_string(rows_scanned);
  out += " rows_output=" + std::to_string(rows_output);
  out += " hash_probes=" + std::to_string(hash_probes);
  out += " predicate_evals=" + std::to_string(predicate_evals);
  out += " joins=" + std::to_string(joins);
  out += " gmdj_ops=" + std::to_string(gmdj_ops);
  out += " morsels=" + std::to_string(morsels);
  if (compiled_conditions + interpreter_fallbacks > 0) {
    out += " compiled_conditions=" + std::to_string(compiled_conditions);
    out += " interpreter_fallbacks=" + std::to_string(interpreter_fallbacks);
  }
  if (cache_hits + cache_misses + cache_evictions + cache_invalidations +
          cache_bytes >
      0) {
    out += " cache_hits=" + std::to_string(cache_hits);
    out += " cache_misses=" + std::to_string(cache_misses);
    out += " cache_evictions=" + std::to_string(cache_evictions);
    out += " cache_invalidations=" + std::to_string(cache_invalidations);
    out += " cache_bytes=" + std::to_string(cache_bytes);
  }
  if (spill_partitions + spill_passes + spill_bytes_written + spill_bytes_read >
      0) {
    out += " spill_partitions=" + std::to_string(spill_partitions);
    out += " spill_passes=" + std::to_string(spill_passes);
    out += " spill_bytes_written=" + std::to_string(spill_bytes_written);
    out += " spill_bytes_read=" + std::to_string(spill_bytes_read);
  }
  return out;
}

std::string PlanNode::ToString() const {
  std::string out;
  Render(*this, 0, &out);
  return out;
}

OpScope::OpScope(ExecContext* ctx, const void* node, const std::string& label)
    : ctx_(ctx),
      stats_(ctx->op_stats(node)),
      parent_(ctx->active_scope_) {
  if (ctx_->tracer() != nullptr) {
    prev_span_ = ctx_->current_span();
    span_ = ctx_->tracer()->Start(label, prev_span_);
    ctx_->set_current_span(span_);
  }
  if (stats_ != nullptr) {
    ctx_->active_scope_ = this;
    start_nanos_ = ctx_->clock().NowNanos();
    start_predicate_evals_ = ctx_->stats().predicate_evals;
    start_hash_probes_ = ctx_->stats().hash_probes;
  }
}

OpScope::~OpScope() {
  if (stats_ != nullptr) {
    const uint64_t total_nanos = ctx_->clock().NowNanos() - start_nanos_;
    const uint64_t total_predicate_evals =
        ctx_->stats().predicate_evals - start_predicate_evals_;
    const uint64_t total_hash_probes =
        ctx_->stats().hash_probes - start_hash_probes_;
    stats_->exec_nanos += total_nanos - child_nanos_;
    stats_->predicate_evals += total_predicate_evals - child_predicate_evals_;
    stats_->hash_probes += total_hash_probes - child_hash_probes_;
    if (parent_ != nullptr && parent_->stats_ != nullptr) {
      parent_->child_nanos_ += total_nanos;
      parent_->child_predicate_evals_ += total_predicate_evals;
      parent_->child_hash_probes_ += total_hash_probes;
    }
    ctx_->active_scope_ = parent_;
  }
  if (span_ != obs::SpanTracer::kNoSpan) {
    ctx_->tracer()->End(span_);
    ctx_->set_current_span(prev_span_);
  }
}

namespace {

std::string FormatNanos(uint64_t nanos) {
  char buf[32];
  if (nanos >= 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fms",
                  static_cast<double>(nanos) / 1e6);
  } else if (nanos >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fus",
                  static_cast<double>(nanos) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(nanos));
  }
  return buf;
}

void RenderAnalyzed(const PlanNode& node, const obs::PlanProfile& profile,
                    const AnalyzeRenderOptions& options, int depth,
                    std::string* out) {
  const std::string indent(static_cast<size_t>(depth) * 2, ' ');
  out->append(indent);
  out->append(node.label());
  out->push_back('\n');
  const obs::OperatorStats* stats = profile.Find(&node);
  if (stats != nullptr) {
    out->append(indent);
    out->append("    stats: rows_in=" + std::to_string(stats->rows_in));
    out->append(" rows_out=" + std::to_string(stats->rows_out));
    out->append(" batches=" + std::to_string(stats->batches));
    out->append(" predicate_evals=" +
                std::to_string(stats->predicate_evals));
    out->append(" hash_probes=" + std::to_string(stats->hash_probes));
    out->push_back('\n');
    if (stats->coalesced_conditions > 0) {
      out->append(indent);
      out->append("    gmdj: conditions=" +
                  std::to_string(stats->coalesced_conditions));
      out->append(" compiled=" + std::to_string(stats->compiled_conditions));
      out->append(" fallbacks=" +
                  std::to_string(stats->interpreter_fallbacks));
      out->append(" typed_aggs=" + std::to_string(stats->typed_aggs) + "/" +
                  std::to_string(stats->aggs));
      out->append(" slot_path=" +
                  std::to_string(stats->slot_path_conditions) + "/" +
                  std::to_string(stats->coalesced_conditions));
      out->append(" discards=" + std::to_string(stats->completion_discards));
      out->append(" freezes=" + std::to_string(stats->completion_freezes));
      out->append(std::string(" cache=") +
                  obs::CacheOutcomeName(stats->cache_outcome));
      out->push_back('\n');
      out->append(indent);
      out->append("    rng: " + stats->rng_sizes.Summary());
      out->push_back('\n');
    }
    if (stats->spill_passes > 0) {
      out->append(indent);
      out->append("    spill: partitions=" +
                  std::to_string(stats->spill_partitions));
      out->append(" passes=" + std::to_string(stats->spill_passes));
      out->append(" bytes_written=" +
                  std::to_string(stats->spill_bytes_written));
      out->append(" bytes_read=" + std::to_string(stats->spill_bytes_read));
      out->push_back('\n');
    }
    if (options.include_timings) {
      out->append(indent);
      out->append("    time: exec=" + FormatNanos(stats->exec_nanos));
      if (stats->prepare_nanos > 0) {
        out->append(" prepare=" + FormatNanos(stats->prepare_nanos));
      }
      out->push_back('\n');
    }
  }
  for (const PlanNode* child : node.children()) {
    RenderAnalyzed(*child, profile, options, depth + 1, out);
  }
}

}  // namespace

std::string RenderAnalyzedPlan(const PlanNode& root,
                               const obs::PlanProfile& profile,
                               const AnalyzeRenderOptions& options) {
  std::string out;
  RenderAnalyzed(root, profile, options, 0, &out);
  return out;
}

}  // namespace gmdj
