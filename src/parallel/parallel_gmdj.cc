#include "parallel/parallel_gmdj.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <span>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "expr/expr.h"
#include "expr/program.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "types/tribool.h"

namespace gmdj {
namespace {

/// Detail rows per chunk: the kernel's unit of work, and the
/// liveness-poll stride of both evaluators.
constexpr size_t kChunkRows = 1024;
/// Interval stab output buffered per chunk; past it, the binding group's
/// members fold the rows stabbed so far before the next rows are stabbed,
/// so the buffer stays bounded whatever the key skew.
constexpr size_t kStabCap = 16 * 1024;
/// Matched base tuples buffered per condition before its aggregates fold
/// them (checked at row boundaries).
constexpr size_t kPairCap = 4 * 1024;

using Candidates = std::span<const uint32_t>;

/// Completion decisions of the sequential pass: plain flags.
class LocalCompletion {
 public:
  LocalCompletion(size_t n, std::vector<uint8_t>* discarded)
      : discarded_(*discarded), frozen_(n, 0), active_(n) {
    discarded_.assign(n, 0);
    std::iota(active_.begin(), active_.end(), 0);
  }

  bool Discarded(uint32_t b) const { return discarded_[b] != 0; }
  bool Frozen(uint32_t b, uint64_t bit) const {
    return (frozen_[b] & bit) != 0;
  }
  /// Retires `b`; false when it already was.
  bool Discard(uint32_t b) {
    if (discarded_[b]) return false;
    discarded_[b] = 1;
    ++num_discarded_;
    ++active_dead_;
    return true;
  }
  /// Sets `b`'s freeze bit; false when it already was set.
  bool Freeze(uint32_t b, uint64_t bit) {
    const bool fresh = (frozen_[b] & bit) == 0;
    frozen_[b] |= bit;
    return fresh;
  }
  bool AllDecided() const { return num_discarded_ == discarded_.size(); }
  /// Base tuples for scan dispatch, compacted when most are retired.
  Candidates Active() {
    if (active_dead_ > 0 && active_dead_ * 2 > active_.size()) {
      std::erase_if(active_, [this](uint32_t b) { return discarded_[b]; });
      active_dead_ = 0;
    }
    return active_;
  }

  size_t num_discarded() const { return num_discarded_; }
  size_t num_freezes() const {
    size_t total = 0;
    for (const uint64_t bits : frozen_) {
      total += static_cast<size_t>(__builtin_popcountll(bits));
    }
    return total;
  }

 private:
  std::vector<uint8_t>& discarded_;
  std::vector<uint64_t> frozen_;
  std::vector<uint32_t> active_;
  size_t num_discarded_ = 0;
  size_t active_dead_ = 0;
};

/// Shared, atomically updated state of a morsel-parallel pass. Decision
/// flags use relaxed ordering: correctness needs only the atomicity of the
/// RMW (exactly-once discard/freeze); a slot observing a flag late merely
/// does wasted work on a base tuple whose output is already decided or
/// whose extra updates land in partials that are never read.
struct SharedState {
  explicit SharedState(size_t n) : discarded(n), frozen(n) {}
  std::vector<std::atomic<uint8_t>> discarded;
  std::vector<std::atomic<uint64_t>> frozen;
  std::atomic<size_t> num_discarded{0};

  // First-error-wins abort channel. A worker that fails (cancellation,
  // deadline, injected fault) records its Status here exactly once; every
  // later morsel observes `failed` at its boundary and returns without
  // running, so the ParallelFor drains and completes — no hung workers, no
  // leaked pool slots, just wasted (already queued) no-op tasks.
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error;

  void RecordError(Status status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = std::move(status);
    failed.store(true, std::memory_order_release);
  }
};

/// Completion decisions of one morsel slot: the shared atomic flags, plus
/// the slot's own scan-dispatch list. A freeze is claimed with fetch_or,
/// so exactly one slot counts a satisfy-on-match base tuple's match.
class SharedCompletion {
 public:
  SharedCompletion(SharedState* shared, const std::vector<uint32_t>* active)
      : shared_(*shared), active_(*active) {}

  bool Discarded(uint32_t b) const {
    return shared_.discarded[b].load(std::memory_order_relaxed) != 0;
  }
  bool Frozen(uint32_t b, uint64_t bit) const {
    return (shared_.frozen[b].load(std::memory_order_relaxed) & bit) != 0;
  }
  bool Discard(uint32_t b) {
    if (shared_.discarded[b].exchange(1, std::memory_order_relaxed) != 0) {
      return false;
    }
    shared_.num_discarded.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool Freeze(uint32_t b, uint64_t bit) {
    return (shared_.frozen[b].fetch_or(bit, std::memory_order_relaxed) &
            bit) == 0;
  }
  bool AllDecided() const {
    return shared_.num_discarded.load(std::memory_order_relaxed) ==
           shared_.discarded.size();
  }
  Candidates Active() { return active_; }

 private:
  SharedState& shared_;
  const std::vector<uint32_t>& active_;
};

/// The matches of one condition over a row range, grouped by detail row
/// in row order: row `rows[k]` matched base tuples `bases[k]`. The spans
/// point into the candidate lists themselves when every candidate
/// matches, else into a buffer of the survivors.
struct Matches {
  std::vector<uint32_t> rows;  // Chunk-relative detail rows.
  std::vector<Candidates> bases;
  std::vector<uint32_t> buf;   // Survivors, when filtered.
  std::vector<uint32_t> ends;  // End of row k's survivors in `buf`.

  void Clear() {
    rows.clear();
    bases.clear();
    buf.clear();
    ends.clear();
  }
  /// Closes row `i`'s survivors in `buf` (if any).
  void EndRow(uint32_t i) {
    const uint32_t begin = ends.empty() ? 0 : ends.back();
    if (buf.size() == begin) return;
    rows.push_back(i);
    ends.push_back(static_cast<uint32_t>(buf.size()));
  }
  /// Points `bases` at the buffered survivors.
  void Seal() {
    if (ends.empty()) return;
    bases.clear();
    uint32_t begin = 0;
    for (const uint32_t end : ends) {
      bases.emplace_back(buf.data() + begin, end - begin);
      begin = end;
    }
  }
};

/// No candidate: a slot-vector entry of a row without a match.
constexpr uint32_t kNoBase = UINT32_MAX;

/// How a condition consumes its candidates (fixed per scan).
enum class Route : unsigned char {
  kSpan,      // Walks candidate spans, builds Matches.
  kScatter,   // Slot path: folds in its group's pass (FoldGroup).
  kComplete,  // Slot path: completion per row on its slot.
};

Route ChooseRoute(const GmdjCondRuntime& rt) {
  if (rt.group < 0 || rt.analysis->strategy != CondStrategy::kHash ||
      rt.index == nullptr || !rt.index->unique() ||
      !rt.analysis->residual.empty() || rt.pair_cmp != nullptr) {
    return Route::kSpan;
  }
  if (rt.action == CompletionAction::kNone) return Route::kScatter;
  if (rt.action == CompletionAction::kDiscardOnMatch) return Route::kComplete;
  // Satisfy-on-match folds its one match's aggregates, unless every one
  // is count(*), which the match count serves.
  for (const AggSpec& agg : rt.cond->aggs) {
    if (agg.kind != AggKind::kCountStar) return Route::kSpan;
  }
  return Route::kComplete;
}

/// Working state of one pass over detail rows — the sequential pass, or
/// one morsel slot — and the chunk kernel both evaluators run. Per chunk
/// the kernel runs every condition's detail-only conjuncts as masks over
/// the detail table's columns, read in place, then takes the conditions
/// in runtime order:
///  - a binding group runs one probe or stab per row that passes at least
///    one member's mask, then its members consume the candidates. Over a
///    unique index a row has at most one candidate, kept in the slot
///    vector `slot_`. The members on the slot path that scatter
///    (Route::kScatter) fold together in one pass over it (FoldGroup):
///    per row, every member's match count and typed aggregate, each under
///    its member's mask, with each argument read once; per-pair
///    aggregates then fold in their own row-order loop. Completion
///    members run their completion per row. Otherwise hash candidates are
///    spans into the index and stab output fills a capped buffer, flushed
///    by row sub-range;
///  - a scan condition walks the live base tuples per passing row;
///  - an anti-probe discards each passing row's violators.
/// A member on the span path applies its completion checks and residual
/// to each candidate and records the matches per row, which its
/// aggregates then fold one aggregate at a time with typed loops; a
/// member with nothing of its own to check takes its candidate lists as
/// its matches. Every match bumps the condition's match count, which is
/// also its count(*). Completion decisions go through the policy
/// (LocalCompletion or SharedCompletion). Per (base, aggregate) the fold
/// order is detail-row order, so sequential double sums match a
/// row-at-a-time fold bit for bit.
class GmdjScan {
 public:
  /// Sizes the state for `in`, which must outlive the scan.
  void Init(const GmdjEvalInput& in);
  bool initialized() const { return in_ != nullptr; }

  /// Evaluates detail rows [begin, begin+rows) into `out`.
  template <typename Completion>
  void RunChunk(size_t begin, size_t rows, Completion* done,
                GmdjResults* out);

  /// Anti-probe runtime `ci`: θ-passing detail rows seen so far.
  uint32_t anti_seen(size_t ci) const { return anti_seen_[ci]; }

  /// Work counters since the last flush; the owner folds and zeroes them.
  uint64_t predicate_evals = 0;
  uint64_t hash_probes = 0;

 private:
  /// An aggregate argument resolved to typed arrays for the current chunk.
  struct TypedArg {
    const uint8_t* null = nullptr;
    const int64_t* i64 = nullptr;  // Exactly one of i64 / dbl is set.
    const double* dbl = nullptr;
  };
  /// Per-chunk result of a kBatch argument (one per flat aggregate slot).
  struct BatchArg {
    uint64_t chunk = 0;  // chunk_seq_ it was evaluated for; 0 = never.
    const ExprVecReg* reg = nullptr;
    ExprVecScratch vec;
  };
  /// A typed aggregate of a scatter member: member runtime, aggregate
  /// index in its condition, and flat slot.
  struct MemberAgg {
    uint32_t member;
    uint32_t a;
    uint32_t flat;
  };
  /// The fold pass of one unique-key binding group, fixed per scan: the
  /// match counts its scatter members own, and their aggregates other
  /// than count(*), those that share an argument (a kColumn column, or a
  /// kBatch slot) adjacent.
  struct GroupPass {
    std::vector<uint32_t> counters;  // Members that own their count.
    std::vector<MemberAgg> aggs;
    std::vector<uint32_t> arg_ends;  // End in `aggs` of each argument's run.
    std::vector<MemberAgg> per_pair;  // AggFold::kValue.
  };
  /// Per chunk, FoldGroup's resolved form of a GroupPass: a match count
  /// or a typed aggregate under its member's mask (all ones when the
  /// member has none).
  struct CountLane {
    const uint8_t* mask;
    uint32_t* count;
  };
  struct AggLane {
    AggKind kind;  // The fold kind: AVG folds as SUM.
    const uint8_t* mask;
    TypedAggColumn* col;
  };
  struct ArgLanes {
    TypedArg arg;
    uint32_t end;  // End of the argument's lanes in agg_lanes_.
  };

  /// Starts chunk [begin, begin+rows) and computes the detail-only masks.
  void BeginChunk(size_t begin, size_t rows);
  /// Makes chunk row `i` the current detail row.
  void SetRow(size_t i) {
    detail_row_ = chunk_begin_ + i;
    ectx_.SetRow(1, detail_row_);
  }
  /// Detail column `col` from the chunk's first row on, in place.
  ColumnVector DetailColumn(size_t col) const {
    return ColumnVector::Of(in_->detail->column(col), chunk_begin_);
  }
  /// Runs binding group `g`'s lookups for rows [r0, rows) into `slot_`
  /// (unique index) or `cands_`, stopping early when the stab buffer
  /// fills; returns the end row.
  size_t CollectCandidates(size_t g, size_t r0, size_t rows);
  /// Probes hash group `g`'s index for rows [r0, rows); `put(i, found)`
  /// records row i's candidates.
  template <typename Put>
  void ProbeRows(size_t g, size_t r0, size_t rows, const Put& put);
  /// Walks runtime `ci`'s candidates over rows [r0, r1) and folds its
  /// matches (`cands(i)` = candidates of row i).
  template <typename Completion, typename CandFn>
  void FoldCondition(size_t ci, size_t r0, size_t r1, Completion* done,
                     const CandFn& cands);
  /// Slot path: unique group `g`'s fold pass over rows [r0, r1).
  void FoldGroup(size_t g, size_t r0, size_t r1);
  /// Slot path, completion runtime `ci`: rows [r0, r1) in row order.
  template <typename Completion>
  void CompleteCondition(size_t ci, size_t r0, size_t r1, Completion* done);
  /// Anti-probe runtime `ci` over the chunk's rows.
  template <typename Completion>
  void AntiProbe(size_t ci, size_t rows, Completion* done);
  /// Folds `cond`'s aggregates (flat offset `agg_offset`) over `matches`,
  /// one aggregate at a time in row order.
  void FoldMatches(const GmdjCondition& cond, const GmdjCondPrograms& progs,
                   size_t agg_offset, const Matches& matches);
  /// Resolves aggregate `a` of `progs` (flat slot `flat`), a kColumn or
  /// kBatch fold, to typed arrays for the current chunk.
  TypedArg ResolveArg(const GmdjCondPrograms& progs, size_t a, size_t flat);

  /// Makes base row `b` current and checks `rt`'s residual conjuncts.
  bool ResidualMatches(const GmdjCondRuntime& rt, uint32_t b);
  /// Evaluates a fused ALL pair's comparison ψ on the current pair.
  bool PairMatches(const GmdjCondRuntime& rt);
  /// Appends the current row's stab of `rt`'s interval index to `out`.
  void Stab(const GmdjCondRuntime& rt, std::vector<uint32_t>* out);

  const GmdjEvalInput* in_ = nullptr;
  // Hot-path copies of `in_` fields.
  const GmdjCondRuntime* runtimes_ = nullptr;
  const GmdjResultLayout* layout_ = nullptr;
  size_t num_runtimes_ = 0;
  EvalContext ectx_;
  ExprScratch batch_;
  ExprVecScratch vec_scratch_;
  // Per runtime: the chunk's detail-only pass mask, and a pointer to it
  // (null when the runtime has no detail-only conjunct).
  std::vector<std::vector<uint8_t>> pass_;
  std::vector<const uint8_t*> masks_;
  // Per runtime: its route, and whether its aggregates fold at all
  // (false when every one, its pair's too, is count(*)).
  std::vector<Route> routes_;
  std::vector<uint8_t> folds_;
  size_t chunk_begin_ = 0;
  size_t chunk_rows_ = 0;
  uint64_t chunk_seq_ = 0;
  size_t detail_row_ = 0;  // The current detail row.
  // Binding groups: member runtimes in runtime order, whether the group's
  // index is unique, and its detail key columns.
  std::vector<std::vector<uint32_t>> groups_;
  std::vector<uint8_t> group_unique_;
  std::vector<std::vector<const Column*>> group_keys_;
  // The current group's candidates per chunk row — the slot vector over a
  // unique index, else spans — the rows any member wants looked up, and
  // the stab buffer (row i's stab is stab_buf_[stab_off_[i],
  // stab_off_[i + 1])).
  std::vector<uint32_t> slot_;
  std::vector<Candidates> cands_;
  // Per unique group, its fold pass; FoldGroup's per-chunk lanes; and a
  // mask of ones for members without one.
  std::vector<GroupPass> passes_;
  std::vector<CountLane> count_lanes_;
  std::vector<AggLane> agg_lanes_;
  std::vector<ArgLanes> arg_lanes_;
  std::vector<uint8_t> ones_;
  std::vector<uint8_t> want_;
  std::vector<uint32_t> stab_buf_;
  std::vector<uint32_t> stab_off_;
  Matches matches_;       // Of the condition being walked.
  Matches pair_matches_;  // Of those, the fused pair's ψ-passing ones.
  std::vector<BatchArg> batch_args_;
  std::vector<uint32_t> anti_seen_;
  GmdjResults* out_ = nullptr;  // Destination of the chunk being run.
};

void GmdjScan::Init(const GmdjEvalInput& in) {
  in_ = &in;
  runtimes_ = in.runtimes->data();
  layout_ = in.layout;
  num_runtimes_ = in.runtimes->size();
  ectx_.PushFrame(in.base);
  ectx_.PushFrame(in.detail);
  batch_.batch_frame = 1;
  pass_.resize(num_runtimes_);
  masks_.assign(num_runtimes_, nullptr);
  routes_.resize(num_runtimes_);
  folds_.resize(num_runtimes_);
  for (size_t ci = 0; ci < num_runtimes_; ++ci) {
    const GmdjCondRuntime& rt = runtimes_[ci];
    routes_[ci] = ChooseRoute(rt);
    const auto any_fold = [](const GmdjCondition* cond) {
      if (cond == nullptr) return false;
      for (const AggSpec& agg : cond->aggs) {
        if (agg.kind != AggKind::kCountStar) return true;
      }
      return false;
    };
    folds_[ci] = any_fold(rt.cond) || any_fold(rt.pair_cond);
    const int g = rt.group;
    if (g < 0) continue;
    if (groups_.size() <= static_cast<size_t>(g)) {
      groups_.resize(g + 1);
      group_unique_.resize(g + 1);
      group_keys_.resize(g + 1);
    }
    if (groups_[g].empty()) {
      group_unique_[g] = rt.index != nullptr && rt.index->unique();
      for (const EqBinding& eq : rt.analysis->eq_bindings) {
        group_keys_[g].push_back(&in.detail->column(eq.detail_col));
      }
    }
    groups_[g].push_back(static_cast<uint32_t>(ci));
  }
  passes_.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    GroupPass& pass = passes_[g];
    // Per argument (kColumn: its detail column; kBatch: its flat slot),
    // its aggregates, in member order.
    std::vector<std::pair<uint64_t, std::vector<MemberAgg>>> by_arg;
    for (const uint32_t m : groups_[g]) {
      if (routes_[m] != Route::kScatter) continue;
      if (layout_->counts_owner[m]) pass.counters.push_back(m);
      const GmdjCondRuntime& rt = runtimes_[m];
      for (size_t a = 0; a < rt.cond->aggs.size(); ++a) {
        const MemberAgg agg{m, static_cast<uint32_t>(a),
                            static_cast<uint32_t>(rt.agg_offset + a)};
        const AggFold fold = rt.progs->agg_folds[a];
        if (fold == AggFold::kCountStar) continue;
        if (fold == AggFold::kValue) {
          pass.per_pair.push_back(agg);
          continue;
        }
        const uint64_t key =
            fold == AggFold::kColumn
                ? rt.progs->agg_args[a]->op(0).col
                : (uint64_t{1} << 32) | agg.flat;
        auto it = std::find_if(by_arg.begin(), by_arg.end(),
                               [key](const auto& e) { return e.first == key; });
        if (it == by_arg.end()) it = by_arg.insert(by_arg.end(), {key, {}});
        it->second.push_back(agg);
      }
    }
    for (const auto& [key, aggs] : by_arg) {
      pass.aggs.insert(pass.aggs.end(), aggs.begin(), aggs.end());
      pass.arg_ends.push_back(static_cast<uint32_t>(pass.aggs.size()));
    }
  }
  ones_.assign(kChunkRows, 1);
  slot_.resize(kChunkRows);
  cands_.resize(kChunkRows);
  stab_off_.resize(kChunkRows + 1);
  batch_args_.resize(layout_->homes.size());
  anti_seen_.assign(num_runtimes_, 0);
}

void GmdjScan::BeginChunk(size_t begin, size_t rows) {
  chunk_begin_ = begin;
  chunk_rows_ = rows;
  ++chunk_seq_;
  batch_.batch_begin = begin;
  // Each condition's detail-only conjuncts, as a pass mask over the chunk.
  // Conjunct j only counts rows that passed conjuncts < j, so
  // predicate_evals matches a short-circuiting row-at-a-time evaluation.
  for (size_t ci = 0; ci < num_runtimes_; ++ci) {
    const GmdjCondRuntime& rt = runtimes_[ci];
    masks_[ci] = nullptr;
    if (rt.skip || rt.analysis->detail_only.empty()) continue;
    std::vector<uint8_t>& mask = pass_[ci];
    mask.assign(rows, 1);
    masks_[ci] = mask.data();
    for (size_t j = 0; j < rt.analysis->detail_only.size(); ++j) {
      // Short-circuit bookkeeping first; the batch kernels evaluate every
      // lane (dead-lane results are discarded by the mask AND, and ops are
      // total, so this is invisible).
      size_t survivors = 0;
      for (size_t i = 0; i < rows; ++i) survivors += mask[i];
      if (survivors == 0) break;
      if (const std::optional<ExprProgram>& prog = rt.progs->detail_only[j];
          prog.has_value()) {
        prog->EvalPredMask(ectx_, batch_, &vec_scratch_, rows, mask.data());
        predicate_evals += survivors;
        continue;
      }
      const Expr& conjunct = *rt.analysis->detail_only[j];
      for (size_t i = 0; i < rows; ++i) {
        if (!mask[i]) continue;
        SetRow(i);
        predicate_evals += 1;
        if (!IsTrue(conjunct.EvalPred(ectx_))) mask[i] = 0;
      }
    }
  }
}

template <typename Completion>
void GmdjScan::RunChunk(size_t begin, size_t rows, Completion* done,
                        GmdjResults* out) {
  out_ = out;
  BeginChunk(begin, rows);
  for (size_t ci = 0; ci < num_runtimes_; ++ci) {
    const GmdjCondRuntime& rt = runtimes_[ci];
    if (rt.skip) continue;
    if (done->AllDecided()) return;
    if (rt.anti_key.has_value()) {
      AntiProbe(ci, rows, done);
      continue;
    }
    if (rt.group < 0) {
      const Candidates active = done->Active();
      FoldCondition(ci, 0, rows, done, [active](size_t) { return active; });
      continue;
    }
    const size_t g = static_cast<size_t>(rt.group);
    if (groups_[g].front() != ci) continue;  // Ran with its first member.
    for (size_t r0 = 0; r0 < rows;) {
      const size_t r1 = CollectCandidates(g, r0, rows);
      // The scatter members neither read nor decide completion, so their
      // one pass may run ahead of the group's other members.
      if (group_unique_[g]) FoldGroup(g, r0, r1);
      for (const uint32_t m : groups_[g]) {
        switch (routes_[m]) {
          case Route::kScatter:
            break;  // Folded by FoldGroup.
          case Route::kComplete:
            CompleteCondition(m, r0, r1, done);
            break;
          case Route::kSpan:
            if (group_unique_[g]) {
              FoldCondition(m, r0, r1, done, [this](size_t i) {
                return Candidates(&slot_[i], slot_[i] != kNoBase ? 1 : 0);
              });
            } else {
              FoldCondition(m, r0, r1, done,
                            [this](size_t i) { return cands_[i]; });
            }
            break;
        }
      }
      r0 = r1;
    }
  }
}

size_t GmdjScan::CollectCandidates(size_t g, size_t r0, size_t rows) {
  const std::vector<uint32_t>& members = groups_[g];
  const GmdjCondRuntime& rt = runtimes_[members.front()];
  // A row needs a lookup when at least one member passes its mask.
  want_.assign(rows, 0);
  for (const uint32_t m : members) {
    const uint8_t* mask = masks_[m];
    if (mask == nullptr) {
      std::fill(want_.begin(), want_.end(), 1);
      break;
    }
    for (size_t i = r0; i < rows; ++i) want_[i] |= mask[i];
  }

  if (rt.analysis->strategy == CondStrategy::kHash) {
    if (group_unique_[g]) {
      ProbeRows(g, r0, rows, [this](size_t i, KeyIndex::Rows found) {
        slot_[i] = found.empty() ? kNoBase : found[0];
      });
    } else {
      ProbeRows(g, r0, rows,
                [this](size_t i, KeyIndex::Rows found) { cands_[i] = found; });
    }
    return rows;
  }

  stab_buf_.clear();
  size_t end = r0;
  for (; end < rows; ++end) {
    stab_off_[end] = static_cast<uint32_t>(stab_buf_.size());
    if (end > r0 && stab_buf_.size() >= kStabCap) break;
    if (!want_[end]) continue;
    SetRow(end);
    Stab(rt, &stab_buf_);
  }
  stab_off_[end] = static_cast<uint32_t>(stab_buf_.size());
  for (size_t i = r0; i < end; ++i) {
    cands_[i] = Candidates(stab_buf_.data() + stab_off_[i],
                           stab_off_[i + 1] - stab_off_[i]);
  }
  return end;
}

template <typename Put>
void GmdjScan::ProbeRows(size_t g, size_t r0, size_t rows, const Put& put) {
  const KeyIndex& index = *runtimes_[groups_[g].front()].index;
  const std::vector<const Column*>& keys = group_keys_[g];
  if (index.direct() && keys[0]->type() == ValueType::kInt64) {
    // One dense int64 key read in place: the common correlation shape.
    const ColumnVector key = ColumnVector::Of(*keys[0], chunk_begin_);
    for (size_t i = r0; i < rows; ++i) {
      KeyIndex::Rows found;
      if (want_[i] && !key.null[i]) {  // NULL key: no match.
        hash_probes += 1;
        found = index.ProbeDirect(key.i64[i]);
      }
      put(i, found);
    }
    return;
  }
  for (size_t i = r0; i < rows; ++i) {
    KeyIndex::Rows found;
    const size_t row = chunk_begin_ + i;
    const bool has_null =
        std::any_of(keys.begin(), keys.end(),
                    [row](const Column* key) { return key->is_null(row); });
    if (want_[i] && !has_null) {
      hash_probes += 1;
      found = index.Probe(keys, row);
    }
    put(i, found);
  }
}

template <typename Completion, typename CandFn>
void GmdjScan::FoldCondition(size_t ci, size_t r0, size_t r1,
                             Completion* done, const CandFn& cands) {
  const GmdjCondRuntime& rt = runtimes_[ci];
  const uint8_t* mask = masks_[ci];
  // Residuals and the pair comparison read the current (base, detail) pair.
  const bool per_pair =
      !rt.analysis->residual.empty() || rt.pair_cmp != nullptr;
  const uint64_t freeze = rt.freeze_bit;
  // With nothing to check, every candidate matches: its aggregates fold
  // the candidate lists themselves. (A base tuple another condition has
  // discarded still gets folded; discarded tuples are never emitted.)
  const bool unfiltered =
      !per_pair && freeze == 0 && rt.action == CompletionAction::kNone;
  uint32_t* count = out_->counts(layout_->count_of[ci]);
  const bool owner = layout_->counts_owner[ci] != 0;
  uint32_t* pair_count = rt.pair_cmp != nullptr
                             ? out_->counts(layout_->pair_count_of[ci])
                             : nullptr;
  const bool fold = folds_[ci] != 0;
  auto flush = [&] {
    matches_.Seal();
    FoldMatches(*rt.cond, *rt.progs, rt.agg_offset, matches_);
    if (rt.pair_cmp != nullptr) {
      pair_matches_.Seal();
      FoldMatches(*rt.pair_cond, *rt.pair_progs, rt.pair_agg_offset,
                  pair_matches_);
    }
    matches_.Clear();
    pair_matches_.Clear();
  };
  for (size_t i = r0; i < r1; ++i) {
    if (mask != nullptr && !mask[i]) continue;
    const Candidates candidates = cands(i);
    if (candidates.empty()) continue;
    const uint32_t row = static_cast<uint32_t>(i);
    if (unfiltered) {
      if (owner) {
        for (const uint32_t b : candidates) ++count[b];
      }
      if (fold) {
        matches_.rows.push_back(row);
        matches_.bases.push_back(candidates);
      }
      continue;
    }
    if (per_pair) SetRow(i);
    for (const uint32_t b : candidates) {
      if (done->Discarded(b)) continue;
      if (freeze != 0 && done->Frozen(b, freeze)) continue;
      if (per_pair && !ResidualMatches(rt, b)) continue;
      if (rt.action == CompletionAction::kDiscardOnMatch) {
        ++count[b];
        done->Discard(b);
        continue;
      }
      if (rt.pair_cmp != nullptr && !PairMatches(rt)) {
        // The ALL quantifier is violated; counts diverge forever.
        ++count[b];
        done->Discard(b);
        continue;
      }
      // Satisfy-on-match: whoever sets the bit counts the one match.
      if (freeze != 0 && !done->Freeze(b, freeze)) continue;
      ++count[b];
      if (rt.pair_cmp != nullptr) ++pair_count[b];
      if (!fold) continue;
      matches_.buf.push_back(b);
      if (rt.pair_cmp != nullptr) pair_matches_.buf.push_back(b);
    }
    if (!fold) continue;
    matches_.EndRow(row);
    if (rt.pair_cmp != nullptr) pair_matches_.EndRow(row);
    if (matches_.buf.size() >= kPairCap) flush();
  }
  if (fold) flush();
}

/// One typed aggregate lane's step for a non-NULL argument value `v` of
/// base tuple `b`.
template <typename T>
inline void FoldLane(AggKind kind, TypedAggColumn* col, uint32_t b, T v) {
  switch (kind) {
    case AggKind::kCount:
      return col->Add<AggKind::kCount>(b, v);
    case AggKind::kMin:
      return col->Add<AggKind::kMin>(b, v);
    case AggKind::kMax:
      return col->Add<AggKind::kMax>(b, v);
    default:
      return col->Add<AggKind::kSum>(b, v);
  }
}

void GmdjScan::FoldGroup(size_t g, size_t r0, size_t r1) {
  const GroupPass& pass = passes_[g];
  if (pass.counters.empty() && pass.aggs.empty() && pass.per_pair.empty()) {
    return;  // No scatter member.
  }
  const auto mask_of = [this](uint32_t m) {
    return masks_[m] != nullptr ? masks_[m] : ones_.data();
  };
  count_lanes_.clear();
  for (const uint32_t m : pass.counters) {
    count_lanes_.push_back({mask_of(m), out_->counts(layout_->count_of[m])});
  }
  // Resolve each argument for the chunk.
  agg_lanes_.clear();
  arg_lanes_.clear();
  for (size_t k = 0, begin = 0; k < pass.arg_ends.size(); ++k) {
    const size_t end = pass.arg_ends[k];
    const MemberAgg& first = pass.aggs[begin];
    const TypedArg arg =
        ResolveArg(*runtimes_[first.member].progs, first.a, first.flat);
    for (; begin < end; ++begin) {
      const MemberAgg& agg = pass.aggs[begin];
      TypedAggColumn* col = &out_->typed(layout_->homes[agg.flat].index);
      const AggKind kind =
          col->kind() == AggKind::kAvg ? AggKind::kSum : col->kind();
      agg_lanes_.push_back({kind, mask_of(agg.member), col});
    }
    arg_lanes_.push_back({arg, static_cast<uint32_t>(agg_lanes_.size())});
  }

  // The pass: per row with a candidate, every lane, each argument read
  // once for all its lanes.
  const uint32_t* slot = slot_.data();
  for (size_t i = r0; i < r1; ++i) {
    const uint32_t b = slot[i];
    if (b == kNoBase) continue;
    for (const CountLane& lane : count_lanes_) lane.count[b] += lane.mask[i];
    const AggLane* lane = agg_lanes_.data();
    for (const ArgLanes& arg : arg_lanes_) {
      const AggLane* const end = agg_lanes_.data() + arg.end;
      if (arg.arg.null[i]) {
        lane = end;
        continue;
      }
      if (arg.arg.i64 != nullptr) {
        const int64_t v = arg.arg.i64[i];
        for (; lane != end; ++lane) {
          if (lane->mask[i]) FoldLane(lane->kind, lane->col, b, v);
        }
      } else {
        const double v = arg.arg.dbl[i];
        for (; lane != end; ++lane) {
          if (lane->mask[i]) FoldLane(lane->kind, lane->col, b, v);
        }
      }
    }
  }

  // Per-pair Value folds: strings, base-reading arguments, and arguments
  // without a program.
  for (const MemberAgg& agg : pass.per_pair) {
    const Expr& arg = *runtimes_[agg.member].cond->aggs[agg.a].arg;
    const uint8_t* mask = mask_of(agg.member);
    TypedAggColumn& col = out_->typed(layout_->homes[agg.flat].index);
    for (size_t i = r0; i < r1; ++i) {
      const uint32_t b = slot[i];
      if (b == kNoBase || !mask[i]) continue;
      SetRow(i);
      ectx_.SetRow(0, b);
      col.Add(b, arg.Eval(ectx_));
    }
  }
}

template <typename Completion>
void GmdjScan::CompleteCondition(size_t ci, size_t r0, size_t r1,
                                 Completion* done) {
  const GmdjCondRuntime& rt = runtimes_[ci];
  const uint8_t* mask = masks_[ci];
  uint32_t* count = out_->counts(layout_->count_of[ci]);
  const uint64_t freeze = rt.freeze_bit;
  for (size_t i = r0; i < r1; ++i) {
    if (mask != nullptr && !mask[i]) continue;
    const uint32_t b = slot_[i];
    if (b == kNoBase || done->Discarded(b)) continue;
    if (freeze == 0) {  // Discard-on-match.
      ++count[b];
      done->Discard(b);
      continue;
    }
    // Satisfy-on-match: whoever sets the bit counts the one match.
    if (done->Frozen(b, freeze) || !done->Freeze(b, freeze)) continue;
    ++count[b];
  }
}

template <typename Completion>
void GmdjScan::AntiProbe(size_t ci, size_t rows, Completion* done) {
  const GmdjCondRuntime& rt = runtimes_[ci];
  const uint8_t* mask = masks_[ci];
  const Column* key = &in_->detail->column(rt.anti_key->detail_col);
  uint32_t* count = out_->counts(layout_->count_of[ci]);
  for (size_t i = 0; i < rows; ++i) {
    if (done->AllDecided()) return;
    if (mask != nullptr && !mask[i]) continue;
    // θ holds and reads no base column, so every live base tuple matches
    // it; ψ fails exactly for the key's violators (all of them on a NULL
    // detail key, NULL base keys on the first row).
    const uint32_t seen = ++anti_seen_[ci];
    auto violate = [&](uint32_t b) {
      if (done->Discard(b)) count[b] = seen;
    };
    if (seen == 1) {
      for (const uint32_t b : rt.anti_null_bases) violate(b);
    }
    const size_t row = chunk_begin_ + i;
    if (key->is_null(row)) {
      for (const uint32_t b : done->Active()) violate(b);
      continue;
    }
    hash_probes += 1;
    for (const uint32_t b : rt.index->Probe(std::span(&key, 1), row)) {
      violate(b);
    }
  }
}

void GmdjScan::FoldMatches(const GmdjCondition& cond,
                           const GmdjCondPrograms& progs, size_t agg_offset,
                           const Matches& matches) {
  if (matches.rows.empty()) return;
  const auto each = [&](const auto& fn) {
    for (size_t k = 0; k < matches.rows.size(); ++k) {
      for (const uint32_t b : matches.bases[k]) fn(matches.rows[k], b);
    }
  };
  for (size_t a = 0; a < cond.aggs.size(); ++a) {
    const size_t flat = agg_offset + a;
    const GmdjResultLayout::Home home = layout_->homes[flat];
    if (home.store == GmdjResultLayout::Store::kMatchCount) continue;
    TypedAggColumn& col = out_->typed(home.index);
    if (progs.agg_folds[a] == AggFold::kValue) {
      // Per-pair Value fold: strings, base-reading arguments, and
      // arguments without a program.
      const Expr& arg = *cond.aggs[a].arg;
      each([&](uint32_t i, uint32_t b) {
        SetRow(i);
        ectx_.SetRow(0, b);
        col.Add(b, arg.Eval(ectx_));
      });
      continue;
    }
    const TypedArg arg = ResolveArg(progs, a, flat);
    WithFoldKind(col.kind(), [&](auto k) {
      constexpr AggKind K = decltype(k)::value;
      if (arg.i64 != nullptr) {
        each([&](uint32_t i, uint32_t b) {
          if (!arg.null[i]) col.Add<K>(b, arg.i64[i]);
        });
      } else {
        each([&](uint32_t i, uint32_t b) {
          if (!arg.null[i]) col.Add<K>(b, arg.dbl[i]);
        });
      }
    });
  }
}

GmdjScan::TypedArg GmdjScan::ResolveArg(const GmdjCondPrograms& progs,
                                        size_t a, size_t flat) {
  const ExprProgram& prog = *progs.agg_args[a];
  TypedArg arg;
  if (progs.agg_folds[a] == AggFold::kColumn) {
    const ColumnVector cv = DetailColumn(prog.op(0).col);
    arg.null = cv.null;
    if (cv.type == ValueType::kInt64) {
      arg.i64 = cv.i64;
    } else {
      arg.dbl = cv.dbl;
    }
    return arg;
  }
  GMDJ_DCHECK(progs.agg_folds[a] == AggFold::kBatch);
  BatchArg& batch = batch_args_[flat];
  if (batch.chunk != chunk_seq_) {
    batch.chunk = chunk_seq_;
    batch.reg = &prog.EvalBatch(ectx_, batch_, &batch.vec, chunk_rows_);
  }
  arg.null = batch.reg->null.data();
  if (prog.result_type() == ValueType::kInt64) {
    arg.i64 = batch.reg->i.data();
  } else {
    arg.dbl = batch.reg->d.data();
  }
  return arg;
}

bool GmdjScan::ResidualMatches(const GmdjCondRuntime& rt, uint32_t b) {
  ectx_.SetRow(0, b);
  for (const Expr* conjunct : rt.analysis->residual) {
    predicate_evals += 1;
    if (!IsTrue(conjunct->EvalPred(ectx_))) return false;
  }
  return true;
}

bool GmdjScan::PairMatches(const GmdjCondRuntime& rt) {
  predicate_evals += 1;
  return IsTrue(rt.pair_cmp->EvalPred(ectx_));
}

void GmdjScan::Stab(const GmdjCondRuntime& rt, std::vector<uint32_t>* out) {
  const Column& key = in_->detail->column(rt.analysis->interval->detail_col);
  if (key.is_null(detail_row_)) return;
  rt.interval->Stab(key.type() == ValueType::kInt64
                        ? static_cast<double>(key.i64(detail_row_))
                        : key.dbl(detail_row_),
                    out);
}

}  // namespace

template <typename Keep>
void GmdjResults::Merge(const GmdjResults& other, const Keep& keep) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  for (size_t b = 0; b < n_; ++b) {
    if (!keep(b)) continue;
    for (size_t t = 0; t < typed_.size(); ++t) {
      typed_[t].Merge(b, other.typed_[t], b);
    }
  }
}

namespace {

/// Thread-local evaluation state of one ParallelFor slot. A slot is
/// pinned to one thread for the whole loop, so nothing here needs locks.
struct SlotState {
  GmdjResults partial;           // This slot's base-results table.
  std::vector<uint32_t> active;  // Non-discarded bases for kScan dispatch.
  size_t active_rebuild_mark = 0;  // num_discarded at last rebuild.
  GmdjScan scan;  // The kernel's buffers and morsel-local work counters.
  std::vector<MorselTiming> timings;
};

void InitSlot(SlotState* slot, const GmdjEvalInput& in) {
  const size_t n = in.base->num_rows();
  slot->partial.Init(*in.layout, n);
  slot->active.resize(n);
  std::iota(slot->active.begin(), slot->active.end(), 0);
  slot->scan.Init(in);
}

/// Processes detail rows [begin, end) through the chunk kernel, with
/// completion decisions routed through the shared atomic flags and
/// aggregates into the slot-local table. Non-OK only on governance abort
/// (cancellation/deadline) or an injected fault; partial slot-local
/// updates are then simply never merged.
Status ProcessMorsel(const GmdjEvalInput& in, size_t begin, size_t end,
                     SlotState* slot, SharedState* shared) {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("parallel/morsel"));
  if (in.query != nullptr) GMDJ_RETURN_IF_ERROR(in.query->CheckAlive());

  // Rebuild the slot's active list when completion has retired a large
  // fraction of base tuples since the last rebuild (kScan dispatch cost
  // is proportional to the list length).
  const size_t retired =
      shared->num_discarded.load(std::memory_order_relaxed);
  if (retired > slot->active_rebuild_mark &&
      (retired - slot->active_rebuild_mark) * 2 > slot->active.size()) {
    std::erase_if(slot->active, [shared](uint32_t b) {
      return shared->discarded[b].load(std::memory_order_relaxed) != 0;
    });
    slot->active_rebuild_mark = retired;
  }

  // The chunk size doubles as the mid-morsel liveness stride: a sibling's
  // failure or this query's cancellation stops the scan within a chunk,
  // not a whole morsel.
  SharedCompletion done(shared, &slot->active);
  for (size_t chunk = begin; chunk < end; chunk += kChunkRows) {
    if (done.AllDecided()) return Status::OK();
    if (chunk != begin) {
      if (shared->failed.load(std::memory_order_acquire)) {
        return Status::OK();  // The recorded first error wins.
      }
      if (in.query != nullptr) GMDJ_RETURN_IF_ERROR(in.query->CheckAlive());
    }
    slot->scan.RunChunk(chunk, std::min(kChunkRows, end - chunk), &done,
                        &slot->partial);
  }
  return Status::OK();
}

}  // namespace

Status ExecuteGmdjSequential(ExecContext* ctx, const GmdjEvalInput& in,
                             GmdjEvalResult* out) {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("gmdj/scan"));
  const std::vector<GmdjCondRuntime>& runtimes = *in.runtimes;
  const GmdjResultLayout& layout = *in.layout;
  const size_t n = in.base->num_rows();
  out->table.Init(layout, n);
  LocalCompletion done(n, &out->discarded);
  GmdjScan scan;
  scan.Init(in);
  auto flush_counters = [&] {
    ctx->stats().predicate_evals += scan.predicate_evals;
    ctx->stats().hash_probes += scan.hash_probes;
    scan.predicate_evals = 0;
    scan.hash_probes = 0;
  };

  const size_t num_detail = in.detail->num_rows();
  for (size_t chunk = 0; chunk < num_detail; chunk += kChunkRows) {
    if (done.AllDecided()) break;  // Every base tuple is decided.
    if (chunk != 0) {
      flush_counters();
      GMDJ_RETURN_IF_ERROR(ctx->PollQuery());
    }
    out->batches += 1;
    scan.RunChunk(chunk, std::min(kChunkRows, num_detail - chunk), &done,
                  &out->table);
  }
  flush_counters();

  // Anti-probe survivors matched θ on every θ-passing detail tuple and ψ
  // never failed: both halves of the pair (count(*) only) count all of
  // those tuples.
  for (size_t ci = 0; ci < runtimes.size(); ++ci) {
    if (!runtimes[ci].anti_key.has_value()) continue;
    const uint32_t seen = scan.anti_seen(ci);
    uint32_t* count = out->table.counts(layout.count_of[ci]);
    uint32_t* pair_count = out->table.counts(layout.pair_count_of[ci]);
    for (uint32_t b = 0; b < n; ++b) {
      if (done.Discarded(b)) continue;
      count[b] = seen;
      pair_count[b] = seen;
    }
  }
  out->num_discarded = done.num_discarded();
  out->num_freezes = done.num_freezes();
  return Status::OK();
}

bool UsesSlotPath(const GmdjCondRuntime& rt) {
  return ChooseRoute(rt) != Route::kSpan;
}

GmdjResultLayout BuildResultLayout(
    const std::vector<GmdjCondRuntime>& runtimes,
    const std::vector<ValueType>& arg_types) {
  GmdjResultLayout layout;
  const size_t r = runtimes.size();
  layout.count_of.assign(r, 0);
  layout.counts_owner.assign(r, 1);
  layout.pair_count_of.assign(r, 0);
  layout.homes.resize(arg_types.size());
  std::vector<int> shared_count;  // Per binding group; -1 = none yet.
  for (size_t ci = 0; ci < r; ++ci) {
    const GmdjCondRuntime& rt = runtimes[ci];
    const bool shares = rt.group >= 0 && !rt.skip &&
                        rt.analysis->residual.empty() &&
                        rt.analysis->detail_only.empty() &&
                        rt.pair_cmp == nullptr &&
                        rt.action == CompletionAction::kNone;
    if (shares) {
      const size_t g = static_cast<size_t>(rt.group);
      if (shared_count.size() <= g) shared_count.resize(g + 1, -1);
      layout.counts_owner[ci] = shared_count[g] < 0;
      if (shared_count[g] < 0) {
        shared_count[g] = static_cast<int>(layout.num_counts++);
      }
      layout.count_of[ci] = static_cast<uint32_t>(shared_count[g]);
    } else {
      layout.count_of[ci] = static_cast<uint32_t>(layout.num_counts++);
    }
    for (size_t a = 0; a < rt.cond->aggs.size(); ++a) {
      const AggKind kind = rt.cond->aggs[a].kind;
      GmdjResultLayout::Home& home = layout.homes[rt.agg_offset + a];
      if (kind == AggKind::kCountStar) {
        home = {GmdjResultLayout::Store::kMatchCount, layout.count_of[ci]};
        continue;
      }
      home = {GmdjResultLayout::Store::kTyped,
              static_cast<uint32_t>(layout.typed.size())};
      // The bound type, not the program's: a predicate-rooted argument's
      // program has no scalar result type, yet it yields int64 0/1. A
      // per-pair MIN/MAX is typed kNull, a Value extreme: an interpreted or
      // constant-folded CASE may yield another branch's type.
      const bool value_extreme = (kind == AggKind::kMin ||
                                  kind == AggKind::kMax) &&
                                 rt.progs->agg_folds[a] == AggFold::kValue;
      layout.typed.push_back(
          {kind, value_extreme ? ValueType::kNull
                               : arg_types[rt.agg_offset + a]});
    }
  }
  // A fused pair's filtered condition counts the pair's ψ-passing matches.
  for (size_t ci = 0; ci < r; ++ci) {
    for (size_t f = 0; f < r; ++f) {
      if (runtimes[ci].pair_cond != nullptr &&
          runtimes[f].cond == runtimes[ci].pair_cond) {
        layout.pair_count_of[ci] = layout.count_of[f];
      }
    }
  }
  return layout;
}

size_t GmdjResultLayout::BytesPerBase() const {
  size_t bytes = num_counts * sizeof(uint32_t);
  for (const TypedSpec& spec : typed) {
    bytes += TypedAggColumn::BytesPerGroup(spec.kind, spec.arg_type);
  }
  return bytes;
}

void GmdjResults::Init(const GmdjResultLayout& layout, size_t n) {
  layout_ = &layout;
  n_ = n;
  counts_.assign(layout.num_counts * n, 0);
  typed_.clear();
  typed_.reserve(layout.typed.size());
  for (const GmdjResultLayout::TypedSpec& spec : layout.typed) {
    typed_.emplace_back(spec.kind, spec.arg_type, n);
  }
}

Value GmdjResults::Finalize(size_t b, size_t flat) const {
  const GmdjResultLayout::Home home = layout_->homes[flat];
  if (home.store == GmdjResultLayout::Store::kMatchCount) {
    return Value(static_cast<int64_t>(counts(home.index)[b]));
  }
  return typed_[home.index].Finalize(b);
}

bool ParallelGmdjSupported(const std::vector<GmdjCondRuntime>& runtimes) {
  for (const GmdjCondRuntime& rt : runtimes) {
    if (rt.skip) continue;
    if (rt.anti_key.has_value()) return false;
    if (rt.freeze_bit != 0) {
      // Satisfy-on-match emits the aggregates of the first match in scan
      // order; only count(*) makes that order-independent (always 1).
      for (const AggSpec& agg : rt.cond->aggs) {
        if (agg.kind != AggKind::kCountStar) return false;
      }
      if (rt.pair_cmp != nullptr) return false;
    }
    if (rt.pair_cmp != nullptr && rt.action != CompletionAction::kNone) {
      return false;  // Pair check against a scan-order-dependent match.
    }
  }
  return true;
}


Status ExecuteGmdjMorselParallel(const GmdjEvalInput& in,
                                 const ExecConfig& config, ExecStats* stats,
                                 GmdjEvalResult* out) {
  GMDJ_CHECK(ParallelGmdjSupported(*in.runtimes));
  const size_t n = in.base->num_rows();
  const size_t num_detail = in.detail->num_rows();
  const size_t morsel_rows = std::max<size_t>(1, config.morsel_rows);
  const size_t num_morsels = (num_detail + morsel_rows - 1) / morsel_rows;
  const size_t parallelism =
      std::max<size_t>(1, std::min(config.ResolvedThreads(), num_morsels));

  // Dispatch order of morsels. Work stealing already makes the execution
  // order nondeterministic; the explicit shuffle knob lets tests pin an
  // adversarial order deterministically.
  std::vector<size_t> order(num_morsels);
  std::iota(order.begin(), order.end(), 0);
  if (config.morsel_shuffle_seed != 0) {
    Rng rng(config.morsel_shuffle_seed);
    for (size_t i = num_morsels; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(
                    rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
  }

  // The dominant allocation: one partial base-results table per slot,
  // plus the shared completion flags. Charged against the query
  // budget before any worker touches data, so an over-budget query aborts
  // here with ResourceExhausted instead of thrashing the machine.
  if (in.query != nullptr) {
    const size_t partials_bytes =
        parallelism * n * in.layout->BytesPerBase();
    const size_t flags_bytes = n * (sizeof(std::atomic<uint8_t>) +
                                    sizeof(std::atomic<uint64_t>));
    Status reserve = GMDJ_FAULT_POINT("parallel/alloc");
    if (reserve.ok()) {
      reserve = in.query->ReserveMemory(partials_bytes + flags_bytes);
    }
    GMDJ_RETURN_IF_ERROR(reserve);
  }

  SharedState shared(n);
  std::vector<SlotState> slots(parallelism);

  // Worker counters route through sharded obs counters instead of an
  // ad-hoc per-slot merge: each morsel's slot-local tallies flush with one
  // relaxed fetch_add per counter (thread-private cache line), including
  // for morsels that completed before an abort, and the totals fold into
  // ExecStats exactly once below. Sequential and parallel runs of the
  // same completion-free plan therefore report identical totals.
  obs::ShardedCounter predicate_evals_counter;
  obs::ShardedCounter hash_probes_counter;

  // The configured thread count may exceed the machine's cores.
  ThreadPool::Shared()->EnsureWorkers(parallelism - 1);
  ThreadPool::Shared()->ParallelFor(
      num_morsels, parallelism, [&](size_t task, size_t slot_idx) {
        if (shared.failed.load(std::memory_order_acquire)) {
          return;  // First error won; drain the remaining morsels.
        }
        SlotState& slot = slots[slot_idx];
        if (!slot.scan.initialized()) InitSlot(&slot, in);
        const size_t morsel = order[task];
        const size_t begin = morsel * morsel_rows;
        const size_t end = std::min(begin + morsel_rows, num_detail);
        Stopwatch watch;
        const Status morsel_status =
            ProcessMorsel(in, begin, end, &slot, &shared);
        if (!morsel_status.ok()) shared.RecordError(morsel_status);
        predicate_evals_counter.Add(slot.scan.predicate_evals);
        hash_probes_counter.Add(slot.scan.hash_probes);
        slot.scan.predicate_evals = 0;
        slot.scan.hash_probes = 0;
        slot.timings.push_back(MorselTiming{
            static_cast<uint32_t>(slot_idx), static_cast<uint64_t>(begin),
            static_cast<uint64_t>(end - begin), watch.ElapsedMillis()});
      });

  if (shared.failed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(shared.error_mu);
    return shared.first_error;
  }
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("parallel/merge"));

  // ---- Merge thread-local partials (commutative, so slot order only
  // affects double-sum rounding, exactly as morsel order does). ----
  out->table.Init(*in.layout, n);
  for (const SlotState& slot : slots) {
    if (!slot.scan.initialized()) continue;
    out->table.Merge(slot.partial, [&shared](size_t b) {
      return shared.discarded[b].load(std::memory_order_relaxed) == 0;
    });
  }
  stats->predicate_evals += predicate_evals_counter.Total();
  stats->hash_probes += hash_probes_counter.Total();
  out->discarded.resize(n);
  size_t num_freezes = 0;
  for (size_t b = 0; b < n; ++b) {
    out->discarded[b] =
        shared.discarded[b].load(std::memory_order_relaxed);
    num_freezes += static_cast<size_t>(__builtin_popcountll(
        shared.frozen[b].load(std::memory_order_relaxed)));
  }
  out->num_discarded = shared.num_discarded.load(std::memory_order_relaxed);
  out->num_freezes = num_freezes;
  out->batches = num_morsels;

  stats->morsels += num_morsels;
  if (config.morsel_trace != nullptr) {
    for (const SlotState& slot : slots) {
      config.morsel_trace->insert(config.morsel_trace->end(),
                                  slot.timings.begin(), slot.timings.end());
    }
    std::sort(config.morsel_trace->begin(), config.morsel_trace->end(),
              [](const MorselTiming& a, const MorselTiming& b) {
                return a.first_row < b.first_row;
              });
  }
  return Status::OK();
}

}  // namespace gmdj
