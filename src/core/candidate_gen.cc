#include "core/candidate_gen.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <set>
#include <unordered_map>

#include "expr/implication.h"
#include "optimizer/cost_model.h"
#include "util/string_util.h"

namespace subshare {

namespace {

// out = a ∪ b for sorted column lists.
void UnionInto(const std::vector<ColId>& a, const std::vector<ColId>& b,
               std::vector<ColId>* out) {
  out->clear();
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(*out));
}

// Widens `hull` to cover `member`: lo = min of the los, hi = max of the his,
// an unbounded side wins. Returns false when `hull` is left untouched.
bool Widen(const ValueRange& member, ValueRange* hull) {
  bool changed = false;
  if (!member.lo.has_value() || !hull->lo.has_value()) {
    changed |= hull->lo.has_value();
    hull->lo.reset();
  } else {
    int c = member.lo->Compare(*hull->lo);
    if (c < 0 || (c == 0 && member.lo_inclusive)) {
      hull->lo = member.lo;
      hull->lo_inclusive = member.lo_inclusive || hull->lo_inclusive;
      changed = true;
    }
  }
  if (!member.hi.has_value() || !hull->hi.has_value()) {
    changed |= hull->hi.has_value();
    hull->hi.reset();
  } else {
    int c = member.hi->Compare(*hull->hi);
    if (c > 0 || (c == 0 && member.hi_inclusive)) {
      hull->hi = member.hi;
      hull->hi_inclusive = member.hi_inclusive || hull->hi_inclusive;
      changed = true;
    }
  }
  return changed;
}

// s ← s ∨ sc under independence, the step ConjunctSelectivity folds over
// the children of an OR.
void OrFold(double sc, double* s) { *s = *s + sc - *s * sc; }

}  // namespace

// Covering state of a consumer subset (§4.2 steps 1–5), kept so that
// Algorithm 1 can evaluate `members ∪ {j}` without starting over.
//
// Three parts, each exactly what the from-scratch construction computes:
//  * the frame — what every member's residual depends on: the intersected
//    classes (which absorb join conjuncts), the conjuncts common to every
//    residual, and the hull columns (ranged in every residual);
//  * the cover — a left fold of the members' residuals under a frame:
//    compensation columns, hull ranges, the OR'ed residual selectivity;
//  * the grouping — a left fold independent of the frame: grouping or
//    required columns, aggregates, the C_E estimate.
// Adding j folds j into the grouping and into a cover of the current
// members under the frame of members ∪ {j}. When j's classes imply the
// running ones, that frame follows from j alone — the common conjuncts j
// lacks drop out (their range columns become hull candidates) and hull
// columns j has no range on drop out — and is usually the current frame
// itself, so the attempt costs O(|j|). A different frame needs the current
// members re-folded under it; that cover is kept for the rest of the round,
// which has few distinct frames. When j's classes do not imply the running
// ones, absorbed join conjuncts become residual, and the frame is rebuilt
// from the members (one more Intersect — the flat classes make it
// associative). Conjuncts are interned, so re-folds compare integers, not
// expression trees, and selectivities are multiplied in the order
// Selectivity() multiplies them over the spec's conjuncts: the costs match
// the from-scratch construction bit for bit.
class CandidateGenerator::Covering {
 public:
  Covering(CandidateGenerator* gen,
           const std::vector<SpjgNormalForm>& consumers)
      : gen_(gen),
        consumers_(consumers),
        reg_(gen->manager_->ctx()->columns()),
        facts_(consumers.size()) {}

  // Rebuilds the state for `members` (indexes into the consumers).
  void Reset(const std::vector<int>& members) {
    members_ = members;
    Variant current;
    current.frame.eq = consumers_[members[0]].canon_eq;
    for (size_t i = 1; i < members.size(); ++i) {
      current.frame.eq = EquivalenceClasses::Intersect(
          current.frame.eq, consumers_[members[i]].canon_eq);
    }
    SetJoin(&current.frame);
    Reframe(members_, &current.frame);
    Refold(members_, current.frame, &current.cover);
    variants_.clear();
    variants_.push_back(std::move(current));
    grouping_ = Grouping();
    for (int m : members_) FoldGrouping(m, &grouping_);
  }

  // Shared cost C_E + C_W + N·C_R of members ∪ {j}.
  double TryMerge(int j) {
    trial_grouping_ = grouping_;
    FoldGrouping(j, &trial_grouping_);
    const Variant* base;
    if (variants_[0].frame.eq.ImpliedBy(consumers_[j].canon_eq)) {
      trial_variant_ = VariantFor(j);
      base = &variants_[trial_variant_];
    } else {
      trial_variant_ = -1;
      rebuilt_.frame.eq = EquivalenceClasses::Intersect(
          variants_[0].frame.eq, consumers_[j].canon_eq);
      SetJoin(&rebuilt_.frame);
      scratch_members_ = members_;
      scratch_members_.push_back(j);
      Reframe(scratch_members_, &rebuilt_.frame);
      Refold(members_, rebuilt_.frame, &rebuilt_.cover);
      ++refolds_;
      base = &rebuilt_;
    }
    trial_cover_ = base->cover;
    FoldCover(j, base->frame, &trial_cover_);
    return SharedCost(base->frame, &trial_cover_, trial_grouping_);
  }

  // Adds j to the members.
  void Merge(int j) {
    TryMerge(j);
    members_.push_back(j);
    Variant next;
    next.frame = std::move(trial_variant_ >= 0
                               ? variants_[trial_variant_].frame
                               : rebuilt_.frame);
    next.cover = std::move(trial_cover_);
    variants_.clear();
    variants_.push_back(std::move(next));
    std::swap(grouping_, trial_grouping_);
  }

  // Times the current members were re-folded under another frame.
  int refolds() const { return refolds_; }

  // "[T;{...}] N consumers γ{...}" for the current members.
  std::string Description() {
    const TableSignature& sig = consumers_[members_[0]].signature;
    std::string out =
        sig.ToString(gen_->manager_->ctx()->catalog()) +
        StrFormat(" %d consumers", static_cast<int>(members_.size()));
    if (sig.has_groupby) {
      UnionInto(variants_[0].cover.covering, grouping_.cols, &cols_);
      std::vector<std::string> g;
      for (ColId c : cols_) g.push_back(reg_.info(c).name);
      out += " γ{" + Join(g, ",") + "}";
    }
    return out;
  }

  // The full spec for the current members.
  CseSpec ToSpec() {
    const Frame& frame = variants_[0].frame;
    Cover& cover = variants_[0].cover;
    CseSpec spec;
    spec.signature = consumers_[members_[0]].signature;
    for (int m : members_) spec.consumers.push_back(consumers_[m].group);
    spec.has_groupby = frame.groupby;
    spec.eq = frame.eq;
    spec.conjuncts = frame.join;
    for (const CommonConjunct& c : frame.common) {
      spec.conjuncts.push_back(c.expr);
    }
    for (size_t h = 0; h < frame.hull_cols.size(); ++h) {
      const ColId col = frame.hull_cols[h];
      for (ExprPtr& e :
           RangeToConjuncts(col, reg_.info(col).type, cover.hull[h].range)) {
        spec.conjuncts.push_back(std::move(e));
      }
    }
    if (!cover.any_empty) {
      std::vector<ExprPtr> disjuncts;
      for (int m : members_) {
        FinalResidual(m, frame, &residual_);
        std::vector<ExprPtr> r;
        for (int k : residual_) r.push_back(consumers_[m].canon_conjuncts[k]);
        disjuncts.push_back(CombineConjuncts(r));
      }
      spec.conjuncts.push_back(Expr::Or(std::move(disjuncts)));
    }
    const Costing cost = Cost(frame, &cover, grouping_);
    UnionInto(cover.covering, grouping_.cols, &cols_);
    if (spec.has_groupby) {
      spec.group_cols = cols_;
      spec.aggs = grouping_.aggs;
    }
    spec.output_cols = cols_;
    spec.est_rows = cost.rows;
    spec.width_bytes = cost.width;
    spec.spool_write_cost = cost.write;
    spec.spool_read_cost = cost.read;
    spec.description = Description();
    return spec;
  }

 private:
  // What the construction reads of one consumer conjunct, derived once.
  struct ConjunctFacts {
    int id = -1;                         // equal ids <=> ExprEquals
    double sel = 1;                      // ConjunctSelectivity
    std::vector<ColId> cols;             // referenced columns, sorted
    ColId eq_a = kInvalidColId;          // column equality a = b
    ColId eq_b = kInvalidColId;
    ColId vs_col = kInvalidColId;        // column-vs-constant `vs_col op c`
    CmpOp op = CmpOp::kEq;
    Value constant;
    bool range = false;                  // ... with op other than <>
  };
  struct CommonConjunct {
    int id;
    ExprPtr expr;
    double sel;
    ColId range_col;                     // kInvalidColId unless a range
  };
  struct Frame {
    EquivalenceClasses eq;               // intersected classes
    std::vector<ExprPtr> join;           // eq.ToConjuncts()
    double join_sel = 1;                 // Π sel over join
    std::vector<CommonConjunct> common;  // in every residual, first's order
    double prefix_sel = 1;               // Π sel over join ++ common
    std::vector<ColId> hull_cols;        // ranged in every residual, sorted
    bool groupby = false;                // the signature's G_e
    double table_rows = 1;               // product of base-table rows
  };
  struct HullRange {
    ValueRange range;
    bool stale = true;                   // sels not yet derived from range
    int num_sels = 0;                    // selectivities of
    double sels[2] = {1, 1};             //   RangeToConjuncts(range)
  };
  struct Cover {
    int size = 0;
    std::vector<ColId> covering;         // compensation columns, sorted
    std::vector<HullRange> hull;         // parallel to Frame::hull_cols
    bool any_empty = false;              // a residual is TRUE: no OR
    double or_sel = 0;                   // OR over the residual disjuncts
  };
  // The current members under one frame.
  struct Variant {
    Frame frame;
    Cover cover;
  };
  struct Grouping {
    int size = 0;
    std::vector<ColId> cols;             // grouping (γ) / required columns
    std::vector<std::pair<AggFn, ExprPtr>> aggs;  // union, first occurrence
    double max_lower = 0;                // C_E estimate
  };
  struct Costing {
    double rows = 0, width = 0, write = 0, read = 0;
  };

  const std::vector<ConjunctFacts>& Facts(int m) {
    std::optional<std::vector<ConjunctFacts>>& slot = facts_[m];
    if (slot.has_value()) return *slot;
    slot.emplace();
    for (const ExprPtr& conj : consumers_[m].canon_conjuncts) {
      ConjunctFacts f;
      f.id = Intern(conj);
      f.sel = gen_->cards_->ConjunctSelectivity(conj);
      std::set<ColId> cols;
      CollectColumns(conj, &cols);
      f.cols.assign(cols.begin(), cols.end());
      ColId a, b;
      if (IsColumnEquality(conj, &a, &b)) {
        f.eq_a = a;
        f.eq_b = b;
      }
      if (IsColumnVsConstant(conj, &f.vs_col, &f.op, &f.constant)) {
        f.range = f.op != CmpOp::kNe;
      } else {
        f.vs_col = kInvalidColId;
      }
      slot->push_back(std::move(f));
    }
    return *slot;
  }

  int Intern(const ExprPtr& conj) {
    std::vector<std::pair<ExprPtr, int>>& bucket = interned_[ExprHash(conj)];
    for (const auto& [e, id] : bucket) {
      if (ExprEquals(e, conj)) return id;
    }
    bucket.emplace_back(conj, next_id_);
    return next_id_++;
  }

  static bool InCommon(const std::vector<CommonConjunct>& common, int id) {
    for (const CommonConjunct& c : common) {
      if (c.id == id) return true;
    }
    return false;
  }

  // Consumer m's conjuncts left once `eq` absorbs its equalities and, with
  // `common` given, the common conjuncts are factored out (indexes into its
  // conjuncts).
  void Residual(int m, const EquivalenceClasses& eq,
                const std::vector<CommonConjunct>* common,
                std::vector<int>* out) {
    out->clear();
    const std::vector<ConjunctFacts>& facts = Facts(m);
    for (size_t k = 0; k < facts.size(); ++k) {
      const ConjunctFacts& f = facts[k];
      if (f.eq_a != kInvalidColId && eq.AreEquivalent(f.eq_a, f.eq_b)) {
        continue;  // part of the common join predicate
      }
      if (common != nullptr && InCommon(*common, f.id)) continue;
      out->push_back(static_cast<int>(k));
    }
  }

  // ... minus the range conjuncts on hull columns: m's disjunct of the OR.
  void FinalResidual(int m, const Frame& frame, std::vector<int>* out) {
    Residual(m, frame.eq, &frame.common, out);
    const std::vector<ConjunctFacts>& facts = Facts(m);
    out->erase(std::remove_if(out->begin(), out->end(),
                              [&](int k) {
                                return facts[k].range &&
                                       std::binary_search(
                                           frame.hull_cols.begin(),
                                           frame.hull_cols.end(),
                                           facts[k].vs_col);
                              }),
               out->end());
  }

  bool HasRangeOn(int m, const std::vector<int>& residual, ColId col) {
    const std::vector<ConjunctFacts>& facts = Facts(m);
    for (int k : residual) {
      if (facts[k].range && facts[k].vs_col == col) return true;
    }
    return false;
  }

  // Index into variants_ of the current members under the frame of
  // members ∪ {j}, given that j's classes imply the running ones (so the
  // members' residuals before factoring are unchanged).
  int VariantFor(int j) {
    const Frame& current = variants_[0].frame;
    const std::vector<ConjunctFacts>& facts = Facts(j);
    // Common conjuncts j lacks drop out; a dropped range conjunct is now in
    // every member's residual, so its column may become a hull column.
    Residual(j, current.eq, nullptr, &residual_);
    common_.clear();
    hull_.assign(current.hull_cols.begin(), current.hull_cols.end());
    for (const CommonConjunct& c : current.common) {
      bool kept = false;
      for (int k : residual_) kept |= facts[k].id == c.id;
      if (kept) {
        common_.push_back(c);
      } else if (c.range_col != kInvalidColId &&
                 gen_->options_.enable_range_hull) {
        hull_.push_back(c.range_col);
      }
    }
    std::sort(hull_.begin(), hull_.end());
    hull_.erase(std::unique(hull_.begin(), hull_.end()), hull_.end());
    // Hull columns j has no range on drop out.
    Residual(j, current.eq, &common_, &residual_);
    hull_.erase(std::remove_if(hull_.begin(), hull_.end(),
                               [&](ColId col) {
                                 return !HasRangeOn(j, residual_, col);
                               }),
                hull_.end());

    for (size_t v = 0; v < variants_.size(); ++v) {
      const Frame& f = variants_[v].frame;
      if (f.hull_cols == hull_ && f.common.size() == common_.size() &&
          std::equal(f.common.begin(), f.common.end(), common_.begin(),
                     [](const CommonConjunct& a, const CommonConjunct& b) {
                       return a.id == b.id;
                     })) {
        return static_cast<int>(v);
      }
    }
    Variant next;
    next.frame.eq = current.eq;
    next.frame.join = current.join;
    next.frame.join_sel = current.join_sel;
    next.frame.prefix_sel = current.join_sel;
    for (const CommonConjunct& c : common_) next.frame.prefix_sel *= c.sel;
    next.frame.common = common_;
    next.frame.hull_cols = hull_;
    next.frame.groupby = current.groupby;
    next.frame.table_rows = current.table_rows;
    Refold(members_, next.frame, &next.cover);
    ++refolds_;
    variants_.push_back(std::move(next));
    return static_cast<int>(variants_.size()) - 1;
  }

  // Join conjuncts of frame->eq (step 1).
  void SetJoin(Frame* frame) {
    frame->join =
        frame->eq.ToConjuncts([this](ColId c) { return reg_.info(c).type; });
    frame->join_sel = 1.0;
    for (const ExprPtr& conj : frame->join) {
      frame->join_sel *= gen_->cards_->ConjunctSelectivity(conj);
    }
  }

  // The rest of the frame for `members` given frame->eq / join: the common
  // conjuncts (3a) and the hull columns (3b).
  void Reframe(const std::vector<int>& members, Frame* frame) {
    const SpjgNormalForm& first = consumers_[members[0]];
    const std::vector<ConjunctFacts>& first_facts = Facts(members[0]);

    // 3a. Conjuncts of the first residual present in every other one.
    Residual(members[0], frame->eq, nullptr, &first_residual_);
    everywhere_.assign(first_residual_.size(), true);
    for (size_t i = 1; i < members.size(); ++i) {
      Residual(members[i], frame->eq, nullptr, &residual_);
      const std::vector<ConjunctFacts>& facts = Facts(members[i]);
      for (size_t c = 0; c < first_residual_.size(); ++c) {
        if (!everywhere_[c]) continue;
        bool has = false;
        for (int k : residual_) {
          has |= facts[k].id == first_facts[first_residual_[c]].id;
        }
        everywhere_[c] = has;
      }
    }
    frame->common.clear();
    frame->prefix_sel = frame->join_sel;
    for (size_t c = 0; c < first_residual_.size(); ++c) {
      if (!everywhere_[c]) continue;
      const int k = first_residual_[c];
      const ConjunctFacts& f = first_facts[k];
      frame->common.push_back({f.id, first.canon_conjuncts[k], f.sel,
                               f.range ? f.vs_col : kInvalidColId});
      frame->prefix_sel *= f.sel;
    }

    // 3b. Hull columns: ranged in the first residual and in every other.
    frame->hull_cols.clear();
    if (gen_->options_.enable_range_hull) {
      Residual(members[0], frame->eq, &frame->common, &first_residual_);
      for (int k : first_residual_) {
        if (first_facts[k].range) {
          frame->hull_cols.push_back(first_facts[k].vs_col);
        }
      }
      std::sort(frame->hull_cols.begin(), frame->hull_cols.end());
      frame->hull_cols.erase(
          std::unique(frame->hull_cols.begin(), frame->hull_cols.end()),
          frame->hull_cols.end());
      for (size_t i = 1; i < members.size() && !frame->hull_cols.empty();
           ++i) {
        Residual(members[i], frame->eq, &frame->common, &residual_);
        frame->hull_cols.erase(
            std::remove_if(frame->hull_cols.begin(), frame->hull_cols.end(),
                           [&](ColId col) {
                             return !HasRangeOn(members[i], residual_, col);
                           }),
            frame->hull_cols.end());
      }
    }

    frame->groupby = first.signature.has_groupby;
    frame->table_rows = 1;
    const Catalog* catalog = gen_->manager_->ctx()->catalog();
    for (TableId t : first.signature.tables) {
      const Table* table = catalog->GetTable(t);
      frame->table_rows *=
          table != nullptr ? std::max<double>(1.0, table->row_count()) : 1e3;
    }
  }

  // Folds every member into a fresh cover.
  void Refold(const std::vector<int>& members, const Frame& frame,
              Cover* cover) {
    cover->size = 0;
    cover->covering.clear();
    cover->hull.assign(frame.hull_cols.size(), HullRange());
    cover->any_empty = false;
    cover->or_sel = 0;
    for (int m : members) FoldCover(m, frame, cover);
    RefreshHullSels(frame, cover);
  }

  // Folds consumer m's residual into `cover` as the next member (3b–3c).
  void FoldCover(int m, const Frame& frame, Cover* cover) {
    const SpjgNormalForm& nf = consumers_[m];
    const std::vector<ConjunctFacts>& facts = Facts(m);

    // Compensation columns: everything left in the residual.
    Residual(m, frame.eq, &frame.common, &residual_);
    for (int k : residual_) {
      UnionInto(cover->covering, facts[k].cols, &cols_);
      std::swap(cover->covering, cols_);
    }

    // 3b. Widen every hull column's range by m's (DeriveRange over the
    // residual: every column-vs-constant conjunct on the column applies).
    for (size_t h = 0; h < frame.hull_cols.size(); ++h) {
      ValueRange range;
      for (int k : residual_) {
        if (facts[k].vs_col == frame.hull_cols[h]) {
          range.Apply(facts[k].op, facts[k].constant);
        }
      }
      HullRange& hull = cover->hull[h];
      if (cover->size == 0) {
        hull.range = std::move(range);
        hull.stale = true;
      } else {
        hull.stale |= Widen(range, &hull.range);
      }
    }

    // 3c. m's disjunct of the OR'ed covering predicate: the conjunction of
    // its residual, flattened the way Expr::And / Expr::Or flatten.
    FinalResidual(m, frame, &residual_);
    if (residual_.empty()) {
      cover->any_empty = true;
    } else if (!cover->any_empty) {
      if (residual_.size() == 1) {
        const ExprPtr& d = nf.canon_conjuncts[residual_[0]];
        if (d->kind == ExprKind::kOr) {
          OrLeaves(d, &cover->or_sel);
        } else {
          OrFold(facts[residual_[0]].sel, &cover->or_sel);
        }
      } else {
        double sc = 1.0;
        for (int k : residual_) {
          const ExprPtr& c = nf.canon_conjuncts[k];
          if (c->kind == ExprKind::kAnd) {
            AndLeaves(c, &sc);
          } else {
            sc *= facts[k].sel;
          }
        }
        OrFold(sc, &cover->or_sel);
      }
    }
    ++cover->size;
  }

  // Selectivities of the hull conjuncts whose range changed.
  void RefreshHullSels(const Frame& frame, Cover* cover) {
    for (size_t h = 0; h < cover->hull.size(); ++h) {
      HullRange& hull = cover->hull[h];
      if (!hull.stale) continue;
      const ColId col = frame.hull_cols[h];
      hull.num_sels = 0;
      for (const ExprPtr& e :
           RangeToConjuncts(col, reg_.info(col).type, hull.range)) {
        hull.sels[hull.num_sels++] = gen_->cards_->ConjunctSelectivity(e);
      }
      hull.stale = false;
    }
  }

  // Steps 4–5 for consumer m: grouping columns and aggregates, or required
  // columns, and the C_E estimate.
  void FoldGrouping(int m, Grouping* grouping) {
    const SpjgNormalForm& nf = consumers_[m];
    if (nf.signature.has_groupby) {
      UnionInto(grouping->cols, nf.canon_group_cols, &cols_);
      for (const auto& [fn, arg] : nf.canon_aggs) {
        bool dup = false;
        for (const auto& [efn, earg] : grouping->aggs) {
          dup |= (efn == fn && ExprEquals(earg, arg));
        }
        if (!dup) grouping->aggs.emplace_back(fn, arg);
      }
    } else {
      cols_.clear();
      std::set_union(grouping->cols.begin(), grouping->cols.end(),
                     nf.canon_required.begin(), nf.canon_required.end(),
                     std::back_inserter(cols_));
    }
    std::swap(grouping->cols, cols_);
    grouping->max_lower =
        std::max(grouping->max_lower, gen_->ConsumerLowerBound(nf.group));
    ++grouping->size;
  }

  void OrLeaves(const ExprPtr& e, double* s) {
    if (e->kind != ExprKind::kOr) {
      OrFold(gen_->cards_->ConjunctSelectivity(e), s);
      return;
    }
    for (const ExprPtr& c : e->children) OrLeaves(c, s);
  }

  void AndLeaves(const ExprPtr& e, double* p) {
    if (e->kind != ExprKind::kAnd) {
      *p *= gen_->cards_->ConjunctSelectivity(e);
      return;
    }
    for (const ExprPtr& c : e->children) AndLeaves(c, p);
  }

  // Rows: product of table cardinalities times predicate selectivity, then
  // a distinct-count cap for aggregation. Canonical columns carry their
  // (table, column) identity, so the shared estimator applies unchanged.
  Costing Cost(const Frame& frame, Cover* cover, const Grouping& grouping) {
    RefreshHullSels(frame, cover);
    double sel = frame.prefix_sel;
    for (const HullRange& hull : cover->hull) {
      for (int i = 0; i < hull.num_sels; ++i) sel *= hull.sels[i];
    }
    if (!cover->any_empty) sel *= cover->or_sel;
    Costing out;
    double rows = std::max(frame.table_rows * std::max(sel, 1e-18), 1.0);
    UnionInto(cover->covering, grouping.cols, &cols_);
    if (frame.groupby) {
      double groups = 1;
      for (ColId g : cols_) {
        groups *= gen_->cards_->ColumnNdv(g, std::sqrt(rows));
        if (groups > rows) break;
      }
      rows = std::clamp(groups, 1.0, rows);
    }
    out.rows = rows;
    double width = 0;
    for (ColId c : cols_) width += DataTypeWidth(reg_.info(c).type);
    width += 8.0 * grouping.aggs.size();
    out.width = std::max(width, 8.0);
    out.write = CostModel::SpoolWriteCost(out.rows, out.width);
    out.read = CostModel::SpoolReadCost(out.rows, out.width);
    return out;
  }

  double SharedCost(const Frame& frame, Cover* cover,
                    const Grouping& grouping) {
    const Costing cost = Cost(frame, cover, grouping);
    return grouping.max_lower + cost.write +
           static_cast<double>(grouping.size) * cost.read;
  }

  CandidateGenerator* gen_;
  const std::vector<SpjgNormalForm>& consumers_;
  const ColumnRegistry& reg_;
  std::vector<std::optional<std::vector<ConjunctFacts>>> facts_;
  std::unordered_map<size_t, std::vector<std::pair<ExprPtr, int>>> interned_;
  int next_id_ = 0;

  std::vector<int> members_;
  // [0]: the current frame and cover; then, for this round, the current
  // members under each other frame a merge attempt induced.
  std::vector<Variant> variants_;
  Grouping grouping_;
  int refolds_ = 0;

  // The last TryMerge: the variant it extended (-1: rebuilt_), the cover
  // and grouping with j folded in.
  int trial_variant_ = 0;
  Variant rebuilt_;
  Cover trial_cover_;
  Grouping trial_grouping_;

  // Scratch buffers reused across attempts.
  std::vector<int> scratch_members_, residual_, first_residual_;
  std::vector<bool> everywhere_;
  std::vector<CommonConjunct> common_;
  std::vector<ColId> hull_, cols_;
};

CseSpec CandidateGenerator::BuildSpec(
    const std::vector<SpjgNormalForm>& consumers,
    const std::vector<int>& members) {
  Covering covering(this, consumers);
  covering.Reset(members);
  return covering.ToSpec();
}

double CandidateGenerator::ConsumerLowerBound(GroupId g) const {
  double c = manager_->memo()->group(g).best_cost;
  return c >= 0 ? c : 0;
}

double CandidateGenerator::ConsumerUpperBound(GroupId g) const {
  const Group& group = manager_->memo()->group(g);
  double c = std::max(group.upper_cost, group.best_cost);
  return c >= 0 ? c : 0;
}

double CandidateGenerator::NetBenefit(const CseSpec& spec) const {
  double sum = 0;
  for (GroupId g : spec.consumers) sum += ConsumerLowerBound(g);
  return sum - SharedCost(spec);
}

double CandidateGenerator::SharedCost(const CseSpec& spec) const {
  // C_E (approximated from below by the highest consumer lower bound, as in
  // §4.3.3) + C_W + N * C_R.
  double ce = 0;
  for (GroupId g : spec.consumers) ce = std::max(ce, ConsumerLowerBound(g));
  return ce + spec.spool_write_cost +
         static_cast<double>(spec.consumers.size()) * spec.spool_read_cost;
}

void CandidateGenerator::GenerateForCompatibleSet(
    const std::vector<SpjgNormalForm>& consumers, const CompatibleGroup& set,
    std::vector<CseSpec>* out, GenDiagnostics* diag, OptTrace* trace) {
  std::vector<int> members = set.members;

  if (!options_.heuristics) {
    // No pruning: a single covering candidate over all consumers (the
    // paper's Figure 6 shape).
    if (members.size() >= 2) out->push_back(BuildSpec(consumers, members));
    return;
  }

  // Heuristic 1 (after compatibility): total consumer lower bounds must be
  // a significant fraction of the query cost.
  double sum_lower = 0;
  for (int m : members) sum_lower += ConsumerLowerBound(consumers[m].group);
  if (options_.query_cost > 0 &&
      sum_lower < options_.alpha * options_.query_cost) {
    if (diag != nullptr) ++diag->sets_pruned_h1;
    if (trace != nullptr) {
      trace->prunes.push_back(
          {StrFormat("compatible set of %d consumer(s)",
                     static_cast<int>(members.size())),
           "H1",
           StrFormat("sum of lower bounds %.2f < alpha * query cost %.2f",
                     sum_lower, options_.alpha * options_.query_cost)});
    }
    return;
  }

  // Heuristic 2: exclude consumers whose own result is so large that
  // spooling it cannot beat recomputation. The singleton specs built here
  // name the consumers in the Algorithm-1 trace below.
  Covering covering(this, consumers);
  std::vector<std::string> singles;
  {
    const double n = static_cast<double>(members.size());
    std::vector<int> kept;
    for (int m : members) {
      covering.Reset({m});
      CseSpec trivial = covering.ToSpec();
      double upper = ConsumerUpperBound(consumers[m].group);
      if (upper < trivial.spool_read_cost +
                      (upper + trivial.spool_write_cost) / n) {
        if (diag != nullptr) ++diag->consumers_pruned_h2;
        if (trace != nullptr) {
          trace->prunes.push_back(
              {trivial.description, "H2",
               StrFormat("consumer upper bound %.2f below spool cost",
                         upper)});
        }
        continue;
      }
      kept.push_back(m);
      singles.push_back(std::move(trivial.description));
    }
    members = std::move(kept);
  }
  if (members.size() < 2) return;

  // Algorithm 1: greedy merging by benefit Δ (Heuristic 3). A singleton
  // costs its consumer's lower bound (computed from scratch); a merged
  // candidate its shared cost.
  std::vector<bool> consumed(members.size(), false);
  for (size_t seed = 0; seed < members.size(); ++seed) {
    if (consumed[seed]) continue;
    consumed[seed] = true;
    covering.Reset({members[seed]});
    double current_cost = ConsumerLowerBound(consumers[members[seed]].group);
    std::string current_description = singles[seed];
    bool is_candidate = false;
    while (true) {
      double best_delta = 0;
      double best_cost = 0;
      int best_j = -1;
      int best_attempt = -1;
      for (size_t j = 0; j < members.size(); ++j) {
        if (consumed[j]) continue;
        const double merged_cost = covering.TryMerge(members[j]);
        double delta = current_cost +
                       ConsumerLowerBound(consumers[members[j]].group) -
                       merged_cost;
        if (trace != nullptr) {
          trace->merges.push_back(
              {current_description, singles[j], delta, false});
        }
        if (delta > best_delta) {
          best_delta = delta;
          best_cost = merged_cost;
          best_j = static_cast<int>(j);
          best_attempt =
              trace != nullptr ? static_cast<int>(trace->merges.size()) - 1
                               : -1;
        }
      }
      if (best_j < 0) {
        if (diag != nullptr && !is_candidate) ++diag->merges_rejected_h3;
        if (trace != nullptr && !is_candidate) {
          trace->prunes.push_back({current_description, "H3",
                                   "no merge with positive benefit"});
        }
        break;
      }
      if (best_attempt >= 0) trace->merges[best_attempt].accepted = true;
      consumed[best_j] = true;
      covering.Merge(members[best_j]);
      current_cost = best_cost;
      current_description = covering.Description();
      is_candidate = true;
    }
    if (is_candidate) out->push_back(covering.ToSpec());
  }
  if (diag != nullptr) diag->covering_refolds += covering.refolds();
}

std::vector<CseSpec> CandidateGenerator::GenerateAll(GenDiagnostics* diag,
                                                     OptTrace* trace) {
  std::vector<CseSpec> out;
  const ColumnRegistry& reg = manager_->ctx()->columns();
  const Catalog* catalog = manager_->ctx()->catalog();
  for (const std::vector<GroupId>& set : manager_->SharableSets()) {
    if (diag != nullptr) ++diag->sharable_sets;
    if (trace != nullptr) {
      trace->signatures.push_back(
          {manager_->signature(set[0]).ToString(catalog),
           static_cast<int>(set.size()), false});
    }
    // Heuristic 1 before compatibility analysis: discard obviously trivial
    // sets immediately.
    if (options_.heuristics && options_.query_cost > 0) {
      double sum_lower = 0;
      for (GroupId g : set) sum_lower += ConsumerLowerBound(g);
      if (sum_lower < options_.alpha * options_.query_cost) {
        if (diag != nullptr) ++diag->sets_pruned_h1;
        if (trace != nullptr) trace->signatures.back().pruned_h1 = true;
        continue;
      }
    }
    std::vector<SpjgNormalForm> consumers;
    for (GroupId g : set) {
      std::optional<SpjgNormalForm> nf = manager_->Normalize(g);
      if (nf.has_value()) consumers.push_back(std::move(*nf));
    }
    if (consumers.size() < 2) continue;
    for (const CompatibleGroup& compatible :
         PartitionJoinCompatible(consumers, reg)) {
      if (compatible.members.size() < 2) continue;
      GenerateForCompatibleSet(consumers, compatible, &out, diag, trace);
    }
  }
  return out;
}

}  // namespace subshare
