#include "exec/sort_merge_join.h"

#include <algorithm>

#include "common/check.h"

namespace gmdj {
namespace {

// Key values + original row index, sortable by the internal total order.
struct Keyed {
  Row key;
  uint32_t row = 0;
  bool null_key = false;  // Any NULL component: can never match.
};

int CompareKeys(const Row& a, const Row& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  return 0;
}

std::vector<Keyed> ExtractAndSort(const Table& table,
                                  const std::vector<JoinKey>& keys,
                                  bool left_side) {
  std::vector<Keyed> out;
  out.reserve(table.num_rows());
  EvalContext ctx;
  ctx.PushFrame(&table);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ctx.SetTopRow(i);
    Keyed k;
    k.row = static_cast<uint32_t>(i);
    k.key.reserve(keys.size());
    for (const JoinKey& jk : keys) {
      Value v = (left_side ? jk.left : jk.right)->Eval(ctx);
      if (v.is_null()) k.null_key = true;
      k.key.push_back(std::move(v));
    }
    out.push_back(std::move(k));
  }
  std::sort(out.begin(), out.end(), [](const Keyed& a, const Keyed& b) {
    return CompareKeys(a.key, b.key) < 0;
  });
  return out;
}

}  // namespace

SortMergeJoinNode::SortMergeJoinNode(PlanPtr left, PlanPtr right,
                                     JoinKind kind, std::vector<JoinKey> keys,
                                     ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      kind_(kind),
      keys_(std::move(keys)),
      residual_(std::move(residual)) {
  GMDJ_CHECK(!keys_.empty());
}

Status SortMergeJoinNode::Prepare(const Catalog& catalog) {
  GMDJ_RETURN_IF_ERROR(left_->Prepare(catalog));
  GMDJ_RETURN_IF_ERROR(right_->Prepare(catalog));
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  for (JoinKey& key : keys_) {
    GMDJ_RETURN_IF_ERROR(key.left->Bind({&ls}));
    GMDJ_RETURN_IF_ERROR(key.right->Bind({&rs}));
  }
  if (residual_ != nullptr) {
    GMDJ_RETURN_IF_ERROR(residual_->Bind({&ls, &rs}));
  }
  switch (kind_) {
    case JoinKind::kInner:
    case JoinKind::kLeftOuter:
      output_schema_ = ls.Concat(rs);
      break;
    case JoinKind::kSemi:
    case JoinKind::kAnti:
      output_schema_ = ls;
      break;
  }
  return Status::OK();
}

Result<Table> SortMergeJoinNode::Execute(ExecContext* ctx) const {
  OpScope scope(ctx, this, label());
  GMDJ_ASSIGN_OR_RETURN(Table l, left_->Execute(ctx));
  GMDJ_ASSIGN_OR_RETURN(Table r, right_->Execute(ctx));
  scope.AddRowsIn(l.num_rows() + r.num_rows());
  scope.AddBatches(2);
  ctx->stats().joins += 1;
  ctx->stats().table_scans += 2;
  ctx->stats().rows_scanned += l.num_rows() + r.num_rows();

  const std::vector<Keyed> lk = ExtractAndSort(l, keys_, true);
  const std::vector<Keyed> rk = ExtractAndSort(r, keys_, false);

  EvalContext pctx;
  pctx.PushFrame(&l);
  pctx.PushFrame(&r);
  std::vector<uint32_t> out_l, out_r;  // Output pairs (or kept left rows).

  size_t ri = 0;
  for (size_t li = 0; li < lk.size();) {
    // One run of equal left keys at a time keeps anti/semi bookkeeping
    // simple; output order is by sorted key, which is fine for a bag.
    const size_t run_begin = li;
    size_t run_end = li + 1;
    while (run_end < lk.size() &&
           CompareKeys(lk[run_end].key, lk[run_begin].key) == 0) {
      ++run_end;
    }
    // Advance the right cursor to the run's key.
    while (ri < rk.size() && CompareKeys(rk[ri].key, lk[run_begin].key) < 0) {
      ++ri;
    }
    size_t rj_end = ri;
    const bool key_matches =
        !lk[run_begin].null_key && ri < rk.size() &&
        CompareKeys(rk[ri].key, lk[run_begin].key) == 0;
    if (key_matches) {
      while (rj_end < rk.size() &&
             CompareKeys(rk[rj_end].key, lk[run_begin].key) == 0) {
        ++rj_end;
      }
    }

    for (size_t i = run_begin; i < run_end; ++i) {
      const uint32_t lrow = lk[i].row;
      pctx.SetRow(0, lrow);
      bool any = false;
      if (key_matches && !lk[i].null_key) {
        for (size_t j = ri; j < rj_end; ++j) {
          const Keyed& rkey = rk[j];
          if (rkey.null_key) continue;
          if (residual_ != nullptr) {
            pctx.SetRow(1, rkey.row);
            ctx->stats().predicate_evals += 1;
            if (!IsTrue(residual_->EvalPred(pctx))) continue;
          }
          any = true;
          if (kind_ == JoinKind::kInner || kind_ == JoinKind::kLeftOuter) {
            out_l.push_back(lrow);
            out_r.push_back(rkey.row);
          } else {
            break;
          }
        }
      }
      if (kind_ == JoinKind::kLeftOuter && !any) {
        out_l.push_back(lrow);
        out_r.push_back(kNoMatch);
      }
      if ((kind_ == JoinKind::kSemi && any) ||
          (kind_ == JoinKind::kAnti && !any)) {
        out_l.push_back(lrow);
      }
    }
    li = run_end;
  }
  Table out;
  if (kind_ == JoinKind::kInner || kind_ == JoinKind::kLeftOuter) {
    out = JoinedRows(output_schema_, l, out_l, r, out_r);
  } else {
    out = l.Gather(out_l);
    out.SetSchema(output_schema_);
  }
  ctx->stats().rows_output += out.num_rows();
  scope.AddRowsOut(out.num_rows());
  return out;
}

std::string SortMergeJoinNode::label() const {
  std::string out = "SortMergeJoin(";
  out += JoinKindToString(kind_);
  out += ")[";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += keys_[i].left->ToString() + " = " + keys_[i].right->ToString();
  }
  if (residual_ != nullptr) out += " AND " + residual_->ToString();
  out += "]";
  return out;
}

}  // namespace gmdj
