#include "physical/operators.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <set>

#include "physical/column_kernels.h"
#include "storage/btree_index.h"
#include "util/check.h"
#include "util/hash.h"

namespace subshare {

namespace {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Index mapping from a source layout to a target layout.
std::vector<int> MappingTo(const Layout& source, const Layout& target) {
  std::vector<int> map;
  map.reserve(target.size());
  for (ColId c : target.cols()) {
    int idx = source.IndexOf(c);
    CHECK(idx >= 0) << "column c" << c << " not produced by child";
    map.push_back(idx);
  }
  return map;
}

// True if `map` is the identity over rows of width `source_width` (output
// rows can then be moved through instead of re-gathered).
bool IsIdentityMapping(const std::vector<int>& map, int source_width) {
  if (static_cast<int>(map.size()) != source_width) return false;
  for (size_t i = 0; i < map.size(); ++i) {
    if (map[i] != static_cast<int>(i)) return false;
  }
  return true;
}

Row ApplyMapping(const Row& source, const std::vector<int>& map) {
  Row out;
  out.reserve(map.size());
  for (int idx : map) out.push_back(source[idx]);
  return out;
}

// Hash of the key columns `idx` of `row` (Value::Hash agrees with
// Value::Compare across int/double and -0.0).
size_t HashRowAt(const Row& row, const std::vector<int>& idx) {
  size_t seed = 0;
  for (int i : idx) HashCombine(&seed, row[i].Hash());
  return seed;
}

// Key equality: Value::Compare semantics, except that nulls equal each other.
// Same-type cells (every key column in practice) compare inline.
bool KeyValueEq(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.type() != b.type()) return a.Compare(b) == 0;
  switch (a.type()) {
    case DataType::kString:
      return a.AsString() == b.AsString();
    case DataType::kDouble:
      return a.AsDouble() == b.AsDouble();
    default:
      return a.AsInt64() == b.AsInt64();
  }
}

bool HasNullAt(const Row& row, const std::vector<int>& idx) {
  for (int i : idx) {
    if (row[i].is_null()) return true;
  }
  return false;
}

// Output assembly shared by the join operators. Each output column copies
// straight from the left (probe / outer) or the right (build / inner) row
// through per-side copy lists; a residual predicate is evaluated over the
// concatenated left ++ right row, built in a reused scratch row.
class JoinOutput {
 public:
  struct OutCopy {
    int dst;  // output column
    int src;  // index on the source side
  };

  // `left` / `right` are the layouts of the rows Emit receives.
  void Bind(const Layout& left, const Layout& right, const ExprPtr& residual,
            const Layout& output) {
    std::vector<ColId> concat = left.cols();
    concat.insert(concat.end(), right.cols().begin(), right.cols().end());
    Layout concat_layout(std::move(concat));
    residual_ = residual ? BindExpr(residual, concat_layout) : nullptr;
    left_width_ = left.size();
    width_ = output.size();
    left_.clear();
    right_.clear();
    const std::vector<int> map = MappingTo(concat_layout, output);
    for (size_t j = 0; j < map.size(); ++j) {
      if (map[j] < left_width_) {
        left_.push_back({static_cast<int>(j), map[j]});
      } else {
        right_.push_back({static_cast<int>(j), map[j] - left_width_});
      }
    }
  }

  bool has_residual() const { return residual_ != nullptr; }
  // Output columns copied from the left row.
  const std::vector<OutCopy>& left_copies() const { return left_; }

  // Appends the join of (l, r) to `out` unless the residual rejects it.
  void Emit(const Row& l, const Row& r, RowBatch* out) {
    if (residual_ != nullptr) {
      concat_.resize(static_cast<size_t>(left_width_) + r.size());
      std::copy(l.begin(), l.begin() + left_width_, concat_.begin());
      std::copy(r.begin(), r.end(), concat_.begin() + left_width_);
      if (!EvalPredicate(residual_, concat_)) return;
    }
    Row& dst = out->AppendSlot();
    dst.resize(static_cast<size_t>(width_));
    for (const OutCopy& c : left_) dst[c.dst] = l[c.src];
    for (const OutCopy& c : right_) dst[c.dst] = r[c.src];
  }

 private:
  ExprPtr residual_;
  int left_width_ = 0;
  int width_ = 0;
  std::vector<OutCopy> left_;
  std::vector<OutCopy> right_;
  Row concat_;
};

// Open-addressed hash table over one uint64 key: maps key -> chain of ids
// (power-of-two capacity, linear probing). The executor's one hash table.
// As the batch engine's equi-join probe table the ids are build-row indexes:
// the int fast path stores the exact int64 key bits (chains are per-key),
// the generic path stores the key hash (chains may interleave
// hash-colliding keys; callers filter at emit). As the hash aggregation's
// group table (ResetGroups / FindOrInsert) the ids are group ids, keyed the
// same two ways. Building and probing do no per-row allocation.
//
// Probes run per window through FindBatch (DESIGN.md §11), an AMAC-style
// state machine: up to kInFlight lookups in flight, each issuing a prefetch
// for its next slot line and yielding, so the DRAM latencies of a window's
// cache misses overlap instead of serializing.
struct ChainTable {
  struct Slot {
    uint64_t key;       // valid where head >= 0
    int32_t head = -1;  // first build-row index, -1 = empty
  };
  std::vector<Slot> slots;
  std::vector<int32_t> next;  // build row -> next row with the same slot key
  size_t mask = 0;
  size_t used_slots = 0;  // occupied slots (grouping use only)

  static constexpr int kInFlight = 8;        // AMAC probe states per window
  static constexpr int kBuildLookahead = 8;  // build-side prefetch distance

  static uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // Inserts keys[i] -> rows[i] chains. `num_rows` sizes next (row indexes
  // index into it); n <= num_rows since null-key rows are pre-filtered by
  // the caller. The slot line of the insert kBuildLookahead ahead is
  // requested before probing the current one.
  void Build(const uint64_t* keys, const int32_t* rows, int n, int num_rows) {
    size_t cap = 16;
    while (cap < static_cast<size_t>(num_rows) * 2) cap <<= 1;
    mask = cap - 1;
    slots.assign(cap, Slot());
    next.assign(static_cast<size_t>(num_rows), -1);
    for (int i = 0; i < n; ++i) {
      if (i + kBuildLookahead < n) {
        PrefetchRead(&slots[Mix(keys[i + kBuildLookahead]) & mask]);
      }
      const uint64_t k = keys[i];
      size_t s = Mix(k) & mask;
      while (slots[s].head >= 0 && slots[s].key != k) s = (s + 1) & mask;
      slots[s].key = k;
      next[static_cast<size_t>(rows[i])] = slots[s].head;
      slots[s].head = rows[i];
    }
  }

  // Grouping use (hash aggregation): the table maps key -> chain of group
  // ids and grows as groups are inserted. Empties the table.
  void ResetGroups() {
    mask = 15;
    slots.assign(mask + 1, Slot());
    next.clear();
    used_slots = 0;
  }

  // Returns the id chained under `k` for which same(id) holds; otherwise
  // chains `fresh` under `k` and returns it (the caller then creates group
  // `fresh`). Exact-key callers pass a `same` that is always true; hash-key
  // callers check the group's key, and colliding keys share a chain.
  template <typename SameKey>
  int32_t FindOrInsert(uint64_t k, int32_t fresh, const SameKey& same) {
    size_t s = Mix(k) & mask;
    while (slots[s].head >= 0 && slots[s].key != k) s = (s + 1) & mask;
    if (slots[s].head >= 0) {
      for (int32_t id = slots[s].head; id >= 0;
           id = next[static_cast<size_t>(id)]) {
        if (same(id)) return id;
      }
    }
    if (next.size() <= static_cast<size_t>(fresh)) {
      next.resize(static_cast<size_t>(fresh) + 1, -1);
    }
    const bool new_slot = slots[s].head < 0;
    slots[s].key = k;
    next[static_cast<size_t>(fresh)] = slots[s].head;
    slots[s].head = fresh;
    if (new_slot && ++used_slots * 2 > mask) Grow();
    return fresh;
  }

  // Doubles the slot array, re-placing every occupied slot (chains are
  // indexed by id and survive unchanged).
  void Grow() {
    std::vector<Slot> old = std::move(slots);
    mask = old.size() * 2 - 1;
    slots.assign(mask + 1, Slot());
    for (const Slot& o : old) {
      if (o.head < 0) continue;
      size_t s = Mix(o.key) & mask;
      while (slots[s].head >= 0) s = (s + 1) & mask;
      slots[s] = o;
    }
  }

  // Resolves the chain head for each of keys[0, n) into heads[0, n).
  // Returns the in-flight depth used (for the probe counters).
  int FindBatch(const uint64_t* keys, int n, int32_t* heads) const {
    if (n == 0) return 0;
    struct State {
      int idx;      // index into keys/heads
      size_t slot;  // current slot under inspection
    };
    State st[kInFlight];
    int feed = 0;  // next key to launch
    int live = 0;  // states in flight
    auto launch = [&](State* s) {
      s->idx = feed;
      s->slot = Mix(keys[feed]) & mask;
      PrefetchRead(&slots[s->slot]);
      ++feed;
    };
    while (live < kInFlight && feed < n) launch(&st[live++]);
    const int depth = live;
    while (live > 0) {
      for (int k = 0; k < live;) {
        State& s = st[k];
        const Slot& sl = slots[s.slot];
        if (sl.head >= 0 && sl.key != keys[s.idx]) {
          s.slot = (s.slot + 1) & mask;  // occupied by another key: step on
          PrefetchRead(&slots[s.slot]);
          ++k;  // yield — let the prefetch land while siblings advance
          continue;
        }
        heads[s.idx] = sl.head;  // hit (key match) or miss (empty slot)
        if (sl.head >= 0) PrefetchRead(&next[static_cast<size_t>(sl.head)]);
        if (feed < n) {
          launch(&s);
          ++k;
        } else {
          st[k] = st[--live];  // retire; re-examine the swapped-in state
        }
      }
    }
    return depth;
  }
};

// ---------------------------------------------------------------- scans ---

// Filters one window of a scan — [start, start+n) dense rows, or that slice
// of `pos` — into `sel` (absolute row ids): compiled kernels first, then the
// row-level residual (gathered into *scratch only for kernel survivors).
// Returns the survivor count. Shared by the scan operators and both fused
// consumers (hash-join probe, hash aggregation).
int FilterWindow(const ColumnStore& store, const std::vector<int64_t>* pos,
                 const CompiledPredicate& pred, int64_t start, int n,
                 int32_t* sel, Row* scratch) {
  int count = pos != nullptr
                  ? pred.FilterPositions(pos->data() + start, n, sel)
                  : pred.FilterDense(start, n, sel);
  return ApplyRowResidual(store, pred.residual(), sel, count, scratch);
}

// Table scan and spool scan share the same shape: iterate a backing
// ColumnStore, apply the scan predicate, emit rows in the output layout.
// The batched path runs the compiled kernels over a window of rows into a
// selection vector and gathers only the surviving rows' output columns —
// row materialization happens exclusively at this columnar/row boundary.
class ScanBase : public Operator {
 public:
  ScanBase(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node) {}

  ScanSource* AsScanSource() override {
    if (store_ == nullptr) return nullptr;  // not opened yet
    source_info_.store = store_;
    source_info_.positions = use_positions_ ? &positions_ : nullptr;
    source_info_.pred = &pred_;
    source_info_.storage = storage_layout_;
    source_info_.count_spool_reads = count_spool_reads_;
    source_info_.stats = stats_;
    return &source_info_;
  }

 protected:
  // Subclasses set these in OpenImpl (store_ before OpenScan).
  const ColumnStore* store_ = nullptr;  // backing columns
  std::vector<int64_t> positions_;      // index-scan row positions
  bool use_positions_ = false;
  bool count_spool_reads_ = false;
  CompiledPredicate pred_;
  std::vector<int> map_;  // output col -> store col
  int64_t cursor_ = 0;

  void OpenScan(const Layout& storage_layout) {
    storage_layout_ = storage_layout;
    pred_ = CompiledPredicate::Compile(
        node_.filter ? BindExpr(node_.filter, storage_layout) : nullptr,
        *store_);
    map_ = MappingTo(storage_layout, node_.output);
    cursor_ = 0;
  }

  bool NextBatchImpl(RowBatch* out) override {
    int64_t limit = use_positions_ ? static_cast<int64_t>(positions_.size())
                                   : store_->num_rows();
    while (out->empty() && cursor_ < limit) {
      int window = static_cast<int>(
          std::min<int64_t>(out->capacity(), limit - cursor_));
      ctx_->rows_scanned += window;
      if (count_spool_reads_) ctx_->spool_rows_read += window;
      sel_.resize(static_cast<size_t>(window));
      int count = FilterWindow(*store_, use_positions_ ? &positions_ : nullptr,
                               pred_, cursor_, window, sel_.data(), &scratch_);
      GatherInto(*store_, sel_.data(), count, map_, out);
      cursor_ += window;
    }
    return !out->empty();
  }

  const PhysicalNode& node_;

 private:
  Layout storage_layout_;
  ScanSource source_info_;
  std::vector<int32_t> sel_;
  Row scratch_;
};

class TableScanOp : public ScanBase {
 public:
  using ScanBase::ScanBase;

  void OpenImpl() override {
    store_ = &node_.table->columns();
    Layout storage_layout(node_.input_cols);
    OpenScan(storage_layout);
    if (node_.kind == PhysOpKind::kIndexScan) {
      const SortedIndex* idx = node_.table->GetIndex(node_.index_range.column_idx);
      CHECK(idx != nullptr) << "missing index on " << node_.table->name();
      const Value* lo = node_.index_range.lo ? &*node_.index_range.lo : nullptr;
      const Value* hi = node_.index_range.hi ? &*node_.index_range.hi : nullptr;
      positions_ = idx->RangeLookup(lo, node_.index_range.lo_inclusive, hi,
                                    node_.index_range.hi_inclusive);
      use_positions_ = true;
    }
  }
};

class SpoolScanOp : public ScanBase {
 public:
  using ScanBase::ScanBase;

  void OpenImpl() override {
    const WorkTable* work_table = ctx_->work_tables->Get(node_.cse_id);
    CHECK(work_table != nullptr)
        << "CSE " << node_.cse_id << " was not materialized before use";
    store_ = &work_table->columns();
    Layout storage_layout(node_.input_cols);
    OpenScan(storage_layout);
    count_spool_reads_ = true;
  }
};

// --------------------------------------------------------------- filter ---

class FilterOp : public Operator {
 public:
  FilterOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    Layout child_layout = node_.children[0]->output;
    bound_pred_ = BindExpr(node_.filter, child_layout);
    map_ = MappingTo(child_layout, node_.output);
    identity_map_ = IsIdentityMapping(map_, child_layout.size());
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (out->empty()) {
      if (!child_->NextBatch(&input_)) return false;
      int n = input_.size();
      keep_.assign(static_cast<size_t>(n), 1);
      EvalPredicateBatch(bound_pred_, &input_.row(0), n, keep_.data());
      for (int i = 0; i < n; ++i) {
        if (!keep_[i]) continue;
        if (identity_map_) {
          out->AppendMove(std::move(input_.row(i)));
        } else {
          out->AppendMapped(input_.row(i), map_);
        }
      }
    }
    return true;
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  ExprPtr bound_pred_;
  std::vector<int> map_;
  bool identity_map_ = false;
  RowBatch input_;
  std::vector<uint8_t> keep_;
};

// ---------------------------------------------------------------- joins ---

// Hash join: builds on the right child, probes with the left. Batched
// probes extract keys per window (in place, no key row allocated) and
// resolve all chain heads through ChainTable::FindBatch (AMAC-interleaved).
// When the probe child is a scan over stable storage (ScanSource), the probe
// fuses with it: windows of the backing rows are filtered and probed in
// place, skipping the scan's per-row output copies entirely.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        left_(BuildOperator(*node.children[0], ctx)),
        right_(BuildOperator(*node.children[1], ctx)) {}

  void OpenImpl() override {
    const Layout& right_layout = node_.children[1]->output;
    right_key_idx_.clear();
    for (const auto& [l, r] : node_.join_keys) {
      int ri = right_layout.IndexOf(r);
      CHECK(ri >= 0) << "join key missing from build child layout";
      right_key_idx_.push_back(ri);
    }
    build_rows_.clear();
    DrainChild(right_.get(), &build_rows_);
    // The common single integer-backed join key (every TPC-H equi-join)
    // stores the exact int64 key bits, skipping the variant dispatch of
    // Value::Hash/Compare and all per-row allocation on both build and
    // probe. The generic path (multi-column, double, string keys) stores
    // the key hash; its chains may interleave hash-colliding keys, so
    // emission filters through ChainKeysMatch.
    int_key_ = right_key_idx_.size() == 1;
    if (int_key_) {
      for (const Row& row : build_rows_) {
        const Value& v = row[right_key_idx_[0]];
        if (!v.is_null() && (v.type() == DataType::kDouble ||
                             v.type() == DataType::kString)) {
          int_key_ = false;
          break;
        }
      }
    }
    std::vector<uint64_t> keys;
    std::vector<int32_t> key_rows;
    keys.reserve(build_rows_.size());
    key_rows.reserve(build_rows_.size());
    for (size_t i = 0; i < build_rows_.size(); ++i) {
      const Row& row = build_rows_[i];
      if (HasNullAt(row, right_key_idx_)) continue;  // nulls never join
      keys.push_back(
          int_key_ ? static_cast<uint64_t>(row[right_key_idx_[0]].AsInt64())
                   : static_cast<uint64_t>(HashRowAt(row, right_key_idx_)));
      key_rows.push_back(static_cast<int32_t>(i));
    }
    table_.Build(keys.data(), key_rows.data(), static_cast<int>(keys.size()),
                 static_cast<int>(build_rows_.size()));

    left_->Open();
    // Scan fusion: probe the left scan's backing rows in place. Probe-side
    // key indexes, the residual, and the output map then bind against the
    // scan's storage layout instead of its (never materialized) output.
    fused_ = left_->AsScanSource();
    if (fused_ != nullptr) fused_->stats->fused = true;
    const Layout& left_layout =
        fused_ != nullptr ? fused_->storage : node_.children[0]->output;

    left_key_idx_.clear();
    for (const auto& [l, r] : node_.join_keys) {
      int li = left_layout.IndexOf(l);
      CHECK(li >= 0) << "join key missing from probe child layout";
      left_key_idx_.push_back(li);
    }
    output_.Bind(left_layout, right_layout, node_.join_residual,
                 node_.output);
    left_width_ = left_layout.size();

    // Fused probes gather the probe row only when it has matches (and only
    // the columns the output copies), so filtered-out and matchless rows
    // never materialize. A residual (or the general hash path) needs the
    // full storage-width row.
    left_gather_.clear();
    if (fused_ != nullptr) {
      if (int_key_ && !output_.has_residual()) {
        for (const JoinOutput::OutCopy& c : output_.left_copies()) {
          left_gather_.push_back(c.src);
        }
      } else {
        for (int i = 0; i < left_width_; ++i) left_gather_.push_back(i);
      }
    }

    chain_ = -1;
    cur_head_ = -1;
    cur_left_ = nullptr;
    probe_.clear();
    probe_idx_ = 0;
    batch_heads_.clear();
    fcursor_ = 0;
    win_count_ = 0;
    win_idx_ = 0;
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full()) {
      // Emit the full chain for the current probe row first (may overshoot
      // capacity slightly; bounded by one chain).
      if (chain_ >= 0) {
        do {
          const Row& right = build_rows_[static_cast<size_t>(chain_)];
          chain_ = table_.next[static_cast<size_t>(chain_)];
          // Generic-path chains are keyed by hash; drop colliding keys.
          if (!int_key_ && !ChainKeysMatch(*cur_left_, right)) continue;
          output_.Emit(*cur_left_, right, out);
        } while (chain_ >= 0);
        continue;
      }
      if (!AdvanceProbe()) break;
    }
    return !out->empty();
  }

 private:
  // Exact key equality between a probe row and a chained build row, with
  // Value::Compare cross-type semantics (KeyValueEq). Needed on the generic
  // path only: its chains are keyed by hash, so rows whose keys collide
  // share a chain.
  bool ChainKeysMatch(const Row& left_row, const Row& right_row) const {
    for (size_t i = 0; i < left_key_idx_.size(); ++i) {
      if (!KeyValueEq(left_row[left_key_idx_[i]],
                      right_row[right_key_idx_[i]])) {
        return false;
      }
    }
    return true;
  }

  // Acquires the next probe row whose chain head was resolved by the
  // window's FindBatch, setting chain_ and cur_left_ when it has (possible)
  // matches. Returns false at the end of the probe stream. A true return
  // with nothing matched just means the caller should advance again.
  bool AdvanceProbe() {
    if (fused_ != nullptr) {
      int32_t row_id = FusedAdvance();  // sets cur_head_ per surviving row
      if (row_id < 0) return false;
      if (cur_head_ >= 0) {
        chain_ = cur_head_;
        cur_left_ = GatherProbe(row_id);
      }
      return true;
    }
    const Row* probe = BatchAdvance();  // sets cur_head_
    if (probe == nullptr) return false;
    if (cur_head_ >= 0) {
      chain_ = cur_head_;
      cur_left_ = probe;
    }
    return true;
  }

  // Gathers the needed columns of fused probe row `row_id` into the probe
  // scratch row (full storage width; columns outside left_gather_ keep
  // stale values the emit path never reads).
  const Row* GatherProbe(int32_t row_id) {
    probe_scratch_.resize(static_cast<size_t>(left_width_));
    const ColumnStore& store = *fused_->store;
    for (int j : left_gather_) {
      probe_scratch_[static_cast<size_t>(j)] = store.column(j).Get(row_id);
    }
    return &probe_scratch_;
  }

  // Extracts the int64 fast-path key of a non-null value, mirroring
  // Value::Compare's cross-type semantics: an integral double equals the
  // same int64; anything else cannot match an integer key.
  static bool IntValueKey(const Value& v, int64_t* key) {
    if (v.type() == DataType::kDouble) {
      double d = v.AsDouble();
      if (d != std::floor(d) || std::abs(d) >= 9.0e18) return false;
      *key = static_cast<int64_t>(d);
    } else if (v.type() == DataType::kString) {
      return false;
    } else {
      *key = v.AsInt64();
    }
    return true;
  }

  // Next probe row pulled through the child's batch interface; nullptr at
  // end of stream. Null-key rows never join and are skipped here; the rest
  // carry the chain head their batch's FindBatch window resolved.
  const Row* BatchAdvance() {
    while (true) {
      ++probe_idx_;
      if (probe_idx_ >= probe_.size()) {
        if (!left_->NextBatch(&probe_)) return nullptr;
        probe_idx_ = 0;
        ResolveBatchHeads();
      }
      const Row& row = probe_.row(probe_idx_);
      if (HasNullAt(row, left_key_idx_)) continue;
      cur_head_ = batch_heads_[static_cast<size_t>(probe_idx_)];
      return &row;
    }
  }

  // One probe window over a freshly pulled batch: extract each row's key
  // (null keys — and non-integer keys on the int path — resolve to "no
  // match" without touching the table), then resolve all chain heads in one
  // FindBatch pass so the lookups' cache misses overlap.
  void ResolveBatchHeads() {
    const int n = probe_.size();
    batch_heads_.assign(static_cast<size_t>(n), -1);
    win_keys_.clear();
    key_rows_.clear();
    for (int i = 0; i < n; ++i) {
      const Row& row = probe_.row(i);
      if (HasNullAt(row, left_key_idx_)) continue;
      uint64_t key;
      if (int_key_) {
        int64_t ik;
        if (!IntValueKey(row[left_key_idx_[0]], &ik)) continue;
        key = static_cast<uint64_t>(ik);
      } else {
        key = HashRowAt(row, left_key_idx_);
      }
      win_keys_.push_back(key);
      key_rows_.push_back(i);
    }
    win_heads_.resize(win_keys_.size());
    int depth = table_.FindBatch(win_keys_.data(),
                                 static_cast<int>(win_keys_.size()),
                                 win_heads_.data());
    for (size_t j = 0; j < key_rows_.size(); ++j) {
      batch_heads_[static_cast<size_t>(key_rows_[j])] = win_heads_[j];
    }
    NoteProbeWindow(static_cast<int>(win_keys_.size()), depth);
  }

  // Probe-counter bookkeeping, one call per FindBatch window.
  void NoteProbeWindow(int keys, int depth) {
    if (keys == 0) return;
    ++ctx_->probe_windows;
    ctx_->probe_keys += keys;
    if (depth > ctx_->probe_in_flight) ctx_->probe_in_flight = depth;
  }

  // Next probe row id read in place from the fused scan's backing columns;
  // -1 at end of stream. Windows are filtered through the scan's compiled
  // kernels (plus row residual), then join-key null handling runs on the
  // surviving selection vector — nulls never join — and keys are extracted
  // into win_keys_ in the same typed pass (exact int64 bits on the fast
  // path, RowKey hashes on the generic path). Each window's chain heads are
  // then resolved in one FindBatch pass into win_heads_, so the per-row
  // resume only copies cur_head_. Surviving rows are probed without
  // materializing; GatherProbe copies one only when it matches. Scan
  // counters are credited per window, exactly as the scan itself would
  // credit them.
  int32_t FusedAdvance() {
    const ColumnStore& store = *fused_->store;
    const std::vector<int64_t>* pos = fused_->positions;
    const int64_t limit = pos != nullptr ? static_cast<int64_t>(pos->size())
                                         : store.num_rows();
    while (true) {
      if (win_idx_ < win_count_) {
        int i = win_idx_++;
        cur_head_ = win_heads_[i];
        return win_sel_[i];
      }
      if (fcursor_ >= limit) return -1;
      const int window = static_cast<int>(
          std::min<int64_t>(RowBatch::kDefaultCapacity, limit - fcursor_));
      ctx_->rows_scanned += window;
      if (fused_->count_spool_reads) ctx_->spool_rows_read += window;
      win_sel_.resize(static_cast<size_t>(window));
      int count = FilterWindow(store, pos, *fused_->pred, fcursor_, window,
                               win_sel_.data(), &scratch_row_);
      fcursor_ += window;
      if (int_key_) {
        const Column& kcol = store.column(left_key_idx_[0]);
        win_keys_.resize(static_cast<size_t>(count));
        const NullBitmap& nulls = kcol.nulls();
        int kept = 0;
        if (kcol.type() == DataType::kString) {
          count = 0;  // string keys never take the int path (IntValueKey)
        } else if (kcol.type() == DataType::kDouble) {
          const double* v = kcol.doubles();
          for (int i = 0; i < count; ++i) {
            int32_t r = win_sel_[i];
            if (nulls.any() && nulls.Test(r)) continue;
            double d = v[r];
            if (d != std::floor(d) || std::abs(d) >= 9.0e18) continue;
            win_sel_[kept] = r;
            win_keys_[kept] = static_cast<uint64_t>(static_cast<int64_t>(d));
            ++kept;
          }
          count = kept;
        } else if (nulls.any()) {
          const int64_t* v = kcol.ints();
          for (int i = 0; i < count; ++i) {
            int32_t r = win_sel_[i];
            if (nulls.Test(r)) continue;
            win_sel_[kept] = r;
            win_keys_[kept] = static_cast<uint64_t>(v[r]);
            ++kept;
          }
          count = kept;
        } else {
          const int64_t* v = kcol.ints();
          for (int i = 0; i < count; ++i) {
            win_keys_[i] = static_cast<uint64_t>(v[win_sel_[i]]);
          }
        }
      } else {
        for (int k : left_key_idx_) {
          const NullBitmap& nulls = store.column(k).nulls();
          if (!nulls.any()) continue;
          int kept = 0;
          for (int i = 0; i < count; ++i) {
            if (!nulls.Test(win_sel_[i])) win_sel_[kept++] = win_sel_[i];
          }
          count = kept;
        }
        // Generic path: hash the key columns straight off the backing
        // columns (same combination as HashRowAt on a gathered row).
        win_keys_.resize(static_cast<size_t>(count));
        for (int i = 0; i < count; ++i) {
          size_t seed = 0;
          for (int k : left_key_idx_) {
            HashCombine(&seed, store.column(k).Get(win_sel_[i]).Hash());
          }
          win_keys_[i] = seed;
        }
      }
      win_heads_.resize(static_cast<size_t>(count));
      int depth =
          table_.FindBatch(win_keys_.data(), count, win_heads_.data());
      NoteProbeWindow(count, depth);
      fused_->stats->rows_out += count;
      stats_->rows_in += count;
      win_count_ = count;
      win_idx_ = 0;
    }
  }


  const PhysicalNode& node_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  JoinOutput output_;
  int left_width_ = 0;
  // Drained build rows + the ChainTable over them. int_key_ selects
  // exact-int64 keys (per-key chains) vs. key hashes (chains filtered
  // through ChainKeysMatch at emit).
  bool int_key_ = false;
  std::vector<Row> build_rows_;
  ChainTable table_;
  int32_t chain_ = -1;     // next build-row index chained for cur_left_
  int32_t cur_head_ = -1;  // chain head resolved for the current probe row
  // Batched probe state.
  RowBatch probe_;
  int probe_idx_ = 0;
  std::vector<int32_t> batch_heads_;  // chain head per row of probe_
  std::vector<int> key_rows_;         // scratch: rows with probeable keys
  const Row* cur_left_ = nullptr;     // probe row owning `chain_`
  // Fused-scan probe state (filtered window over the scan's backing
  // columns; see FusedAdvance / GatherProbe).
  ScanSource* fused_ = nullptr;
  int64_t fcursor_ = 0;
  int win_count_ = 0;
  int win_idx_ = 0;
  std::vector<int32_t> win_sel_;    // surviving row ids of the window
  std::vector<uint64_t> win_keys_;  // their probe keys (both batch paths)
  std::vector<int32_t> win_heads_;  // their resolved chain heads
  std::vector<int> left_gather_;    // store columns GatherProbe must fill
  Row probe_scratch_;               // gathered probe row (fused path)
  Row scratch_row_;                 // residual-eval scratch (FilterWindow)
};

// Nested-loop join with the right side materialized once: every left row of
// each input batch is paired with every right row, filtered by the
// predicate. Resumes mid-pair when the output batch fills.
class NlJoinOp : public Operator {
 public:
  NlJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        left_(BuildOperator(*node.children[0], ctx)),
        right_(BuildOperator(*node.children[1], ctx)) {}

  void OpenImpl() override {
    output_.Bind(node_.children[0]->output, node_.children[1]->output,
                 node_.nl_pred, node_.output);
    right_rows_.clear();
    DrainChild(right_.get(), &right_rows_);
    left_->Open();
    input_.clear();
    left_idx_ = 0;
    right_idx_ = 0;
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full()) {
      if (left_idx_ >= input_.size()) {
        if (!left_->NextBatch(&input_)) break;
        left_idx_ = 0;
      }
      const Row& left = input_.row(left_idx_);
      while (right_idx_ < right_rows_.size() && !out->full()) {
        output_.Emit(left, right_rows_[right_idx_++], out);
      }
      if (right_idx_ == right_rows_.size()) {
        ++left_idx_;
        right_idx_ = 0;
      }
    }
    return !out->empty();
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  JoinOutput output_;
  std::vector<Row> right_rows_;
  RowBatch input_;        // current left batch
  int left_idx_ = 0;      // its row being paired
  size_t right_idx_ = 0;  // next right row to pair with it
};

// Sort-merge join: materializes and sorts both inputs on the join keys,
// then merges equal-key ranges (cross product within a range, filtered by
// the residual predicate). Resumes mid-range when the output batch fills.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        left_(BuildOperator(*node.children[0], ctx)),
        right_(BuildOperator(*node.children[1], ctx)) {}

  void OpenImpl() override {
    const Layout& left_layout = node_.children[0]->output;
    const Layout& right_layout = node_.children[1]->output;
    left_key_idx_.clear();
    right_key_idx_.clear();
    for (const auto& [l, r] : node_.join_keys) {
      int li = left_layout.IndexOf(l);
      int ri = right_layout.IndexOf(r);
      CHECK(li >= 0 && ri >= 0) << "merge-join key missing from child";
      left_key_idx_.push_back(li);
      right_key_idx_.push_back(ri);
    }
    output_.Bind(left_layout, right_layout, node_.join_residual,
                 node_.output);

    auto drain_sorted = [this](Operator* op, const std::vector<int>& keys,
                               std::vector<Row>* out) {
      out->clear();
      DrainChild(op, out);
      // Null keys never join; drop them up front.
      out->erase(std::remove_if(out->begin(), out->end(),
                                [&keys](const Row& r) {
                                  return HasNullAt(r, keys);
                                }),
                 out->end());
      std::sort(out->begin(), out->end(),
                [&keys](const Row& a, const Row& b) {
                  for (int k : keys) {
                    int c = a[k].Compare(b[k]);
                    if (c != 0) return c < 0;
                  }
                  return false;
                });
    };
    drain_sorted(left_.get(), left_key_idx_, &left_rows_);
    drain_sorted(right_.get(), right_key_idx_, &right_rows_);
    li_ = ri_ = 0;
    range_li_ = range_lend_ = range_rbegin_ = range_ri_ = range_rend_ = 0;
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full()) {
      if (range_li_ == range_lend_ && !NextRange()) break;
      const Row& left = left_rows_[range_li_];
      while (range_ri_ < range_rend_ && !out->full()) {
        output_.Emit(left, right_rows_[range_ri_++], out);
      }
      if (range_ri_ == range_rend_) {
        ++range_li_;
        range_ri_ = range_rbegin_;
      }
    }
    return !out->empty();
  }

 private:
  // Advances to the next equal-key rectangle [range_li_, range_lend_) x
  // [range_rbegin_, range_rend_); false when either input is exhausted.
  bool NextRange() {
    while (li_ < left_rows_.size() && ri_ < right_rows_.size()) {
      int c = CompareKeys(left_rows_[li_], right_rows_[ri_]);
      if (c < 0) {
        ++li_;
        continue;
      }
      if (c > 0) {
        ++ri_;
        continue;
      }
      size_t lend = li_ + 1;
      while (lend < left_rows_.size() &&
             CompareKeys(left_rows_[lend], right_rows_[ri_]) == 0) {
        ++lend;
      }
      size_t rend = ri_ + 1;
      while (rend < right_rows_.size() &&
             CompareKeys(left_rows_[li_], right_rows_[rend]) == 0) {
        ++rend;
      }
      range_li_ = li_;
      range_lend_ = lend;
      range_rbegin_ = range_ri_ = ri_;
      range_rend_ = rend;
      li_ = lend;
      ri_ = rend;
      return true;
    }
    return false;
  }

  int CompareKeys(const Row& l, const Row& r) const {
    for (size_t i = 0; i < left_key_idx_.size(); ++i) {
      int c = l[left_key_idx_[i]].Compare(r[right_key_idx_[i]]);
      if (c != 0) return c;
    }
    return 0;
  }

  const PhysicalNode& node_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  JoinOutput output_;
  std::vector<Row> left_rows_;
  std::vector<Row> right_rows_;
  size_t li_ = 0, ri_ = 0;  // merge cursors past the current range
  size_t range_li_ = 0, range_lend_ = 0;
  size_t range_rbegin_ = 0, range_ri_ = 0, range_rend_ = 0;
};

// Index nested-loop join: for every outer row, probes the inner base
// table's sorted index at the join-key value; inner local predicates and
// the residual are applied per match. Chosen for selective plans.
class IndexNlJoinOp : public Operator {
 public:
  IndexNlJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        outer_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    const Layout& outer_layout = node_.children[0]->output;
    CHECK(node_.join_keys.size() == 1);
    outer_key_idx_ = outer_layout.IndexOf(node_.join_keys[0].first);
    CHECK(outer_key_idx_ >= 0) << "outer join key missing";
    index_ = node_.table->GetIndex(node_.index_range.column_idx);
    CHECK(index_ != nullptr) << "index missing on " << node_.table->name();
    // Pin the index for this operator's lifetime: a lazy rebuild (or Clear)
    // under us would invalidate the SortedIndex pointer; the pin turns that
    // into a loud DCHECK instead of a dangling read.
    index_pin_ = SortedIndex::Pin(index_);

    Layout inner_layout(node_.input_cols);
    bound_inner_filter_ =
        node_.filter ? BindExpr(node_.filter, inner_layout) : nullptr;
    output_.Bind(outer_layout, inner_layout, node_.join_residual,
                 node_.output);
    outer_->Open();
    input_.clear();
    outer_idx_ = 0;
    matches_.clear();
    match_idx_ = 0;
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full()) {
      if (match_idx_ < matches_.size()) {
        node_.table->GetRow(matches_[match_idx_++], &inner_);
        ++ctx_->rows_scanned;
        if (bound_inner_filter_ != nullptr &&
            !EvalPredicate(bound_inner_filter_, inner_)) {
          continue;
        }
        output_.Emit(input_.row(outer_idx_ - 1), inner_, out);
        continue;
      }
      if (outer_idx_ >= input_.size()) {
        if (!outer_->NextBatch(&input_)) break;
        outer_idx_ = 0;
      }
      const Value& key = input_.row(outer_idx_++)[outer_key_idx_];
      matches_.clear();
      match_idx_ = 0;
      if (key.is_null()) continue;  // nulls never join
      matches_ = index_->RangeLookup(&key, true, &key, true);
    }
    return !out->empty();
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> outer_;
  int outer_key_idx_ = -1;
  const SortedIndex* index_ = nullptr;
  SortedIndex::Pin index_pin_;
  ExprPtr bound_inner_filter_;
  JoinOutput output_;
  RowBatch input_;                // current outer batch
  int outer_idx_ = 0;             // next outer row to probe
  std::vector<int64_t> matches_;  // inner rows of outer row outer_idx_ - 1
  size_t match_idx_ = 0;
  Row inner_;  // gathered inner row (columnar storage)
};

// ----------------------------------------------------------- aggregation ---

// Two's-complement addition: an integral SUM that overflows wraps instead of
// being undefined.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

// One aggregate's per-group state, in flat arrays indexed by group id.
// Results are exactly those of the reference accumulator the tests check
// against (tests/agg_reference.h): `count` counts non-null inputs (the
// COUNT value, and "seen" for the others); SUM keeps the int64 sum of
// integer-family inputs beside the double sum of every input in arrival
// order and returns the int64 one for an integral result; MIN/MAX keep the
// first extreme seen — as a row id into the fused input column (`ext_row`;
// Column::Get rebuilds the value with its type) or as a Value.
struct AggState {
  AggFn fn = AggFn::kCount;
  DataType result_type = DataType::kInt64;
  bool count_star = false;  // COUNT(*): every input row counts
  bool typed = false;       // fused: updated straight from column `col`
  int col = -1;             // plain-column argument's input index, else -1
  ExprPtr expr;             // general argument (bound), when col < 0
  std::vector<int64_t> count;
  std::vector<int64_t> isum;
  std::vector<double> dsum;
  std::vector<uint8_t> non_integral;  // SUM saw a double input
  std::vector<int32_t> ext_row;       // MIN/MAX, typed input
  std::vector<Value> ext;             // MIN/MAX, Value input

  // Whether a fused column of `type` can feed `fn` without Values.
  static bool TypedInput(AggFn fn, DataType type) {
    return type != DataType::kString || fn != AggFn::kSum;
  }

  void AddGroup() {
    count.push_back(0);
    if (fn == AggFn::kSum) {
      isum.push_back(0);
      dsum.push_back(0);
      non_integral.push_back(0);
    } else if (fn != AggFn::kCount) {
      if (typed) {
        ext_row.push_back(-1);
      } else {
        ext.emplace_back();
      }
    }
  }

  void Update(int32_t g, const Value& v) {
    if (v.is_null()) return;
    const bool first = count[g]++ == 0;
    switch (fn) {
      case AggFn::kCount:
        break;
      case AggFn::kSum:
        if (v.type() == DataType::kDouble) {
          non_integral[g] = 1;
        } else {
          isum[g] = WrapAdd(isum[g], v.AsInt64());
        }
        dsum[g] += v.AsDouble();
        break;
      case AggFn::kMin:
        if (first || v.Compare(ext[g]) < 0) ext[g] = v;
        break;
      case AggFn::kMax:
        if (first || v.Compare(ext[g]) > 0) ext[g] = v;
        break;
    }
  }

  // Updates groups gid[0..n) from rows sel[0..n) of column `c`.
  void UpdateColumn(const Column& c, const int32_t* sel, const int32_t* gid,
                    int n) {
    const NullBitmap& nulls = c.nulls();
    const bool has_nulls = nulls.any();
    // Calls f(group, row) for every non-null input in arrival order.
    auto each = [&](auto f) {
      for (int i = 0; i < n; ++i) {
        if (has_nulls && nulls.Test(sel[i])) continue;
        f(gid[i], sel[i]);
      }
    };
    switch (fn) {
      case AggFn::kCount:
        each([&](int32_t g, int32_t) { ++count[g]; });
        return;
      case AggFn::kSum:
        if (c.type() == DataType::kDouble) {
          const double* v = c.doubles();
          each([&](int32_t g, int32_t r) {
            ++count[g];
            non_integral[g] = 1;
            dsum[g] += v[r];
          });
        } else {
          const int64_t* v = c.ints();
          each([&](int32_t g, int32_t r) {
            ++count[g];
            isum[g] = WrapAdd(isum[g], v[r]);
            dsum[g] += static_cast<double>(v[r]);
          });
        }
        return;
      case AggFn::kMin:
      case AggFn::kMax:
        break;
    }
    const bool min = fn == AggFn::kMin;
    // Replaces the extreme only on a strict improvement: ties keep the
    // first row seen, as Value::Compare-based accumulation does.
    auto extreme = [&](auto better) {
      each([&](int32_t g, int32_t r) {
        if (count[g]++ == 0 || better(r, ext_row[g])) ext_row[g] = r;
      });
    };
    if (c.type() == DataType::kDouble) {
      const double* v = c.doubles();
      extreme([&](int32_t a, int32_t b) {
        return min ? v[a] < v[b] : v[a] > v[b];
      });
    } else if (c.type() == DataType::kString) {
      const int32_t* codes = c.codes();
      const StringDictionary& dict = c.dict();
      extreme([&](int32_t a, int32_t b) {
        if (codes[a] == codes[b]) return false;
        int cmp = dict.value(codes[a]).compare(dict.value(codes[b]));
        return min ? cmp < 0 : cmp > 0;
      });
    } else {
      const int64_t* v = c.ints();
      extreme([&](int32_t a, int32_t b) {
        return min ? v[a] < v[b] : v[a] > v[b];
      });
    }
  }

  // Final value of group g; `c` is the input column when typed.
  Value Final(int32_t g, const Column* c) const {
    if (fn == AggFn::kCount) return Value::Int64(count[g]);
    if (count[g] == 0) return Value::Null(result_type);
    if (fn == AggFn::kSum) {
      if (result_type == DataType::kInt64 && !non_integral[g]) {
        return Value::Int64(isum[g]);
      }
      return Value::Double(dsum[g]);
    }
    return typed ? c->Get(ext_row[g]) : ext[g];
  }
};

// Hash aggregation over flat group ids. Groups are numbered 0..n-1 in
// first-seen order, which is also the output order; a ChainTable resolves
// each input row's group id — exact int64 bits or dictionary codes for a
// single integer-family or string key of a fused scan, the key hash plus a
// key check otherwise (multi-column and double keys, Value input). Null keys
// group together. Aggregates accumulate into AggState's typed arrays.
//
// Over a scan (ScanSource) the aggregation fuses with it: each window of
// the backing columns is filtered through the scan's compiled kernels, the
// survivors' group ids are resolved in one pass, and plain-column
// aggregates update straight from the column spans; a group's key is the
// row id of its first row. Other input (e.g. join output in row batches)
// feeds the same table and states through Values, and a group's key is its
// first row's key Values.
class HashAggOp : public Operator {
 public:
  HashAggOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    fused_ = child_->AsScanSource();
    if (fused_ != nullptr) fused_->stats->fused = true;
    const Layout& input =
        fused_ != nullptr ? fused_->storage : node_.children[0]->output;
    group_idx_.clear();
    for (ColId c : node_.group_cols) {
      int idx = input.IndexOf(c);
      CHECK(idx >= 0) << "group column missing";
      group_idx_.push_back(idx);
    }
    int_key_ = fused_ != nullptr && group_idx_.size() == 1 &&
               fused_->store->column(group_idx_[0]).type() != DataType::kDouble;
    BindAggregates(input);
    // Result layout: group cols then agg outputs.
    std::vector<ColId> natural = node_.group_cols;
    for (const AggregateItem& a : node_.aggs) natural.push_back(a.output);
    map_ = MappingTo(Layout(natural), node_.output);

    table_.ResetGroups();
    num_groups_ = 0;
    null_group_ = -1;
    first_row_.clear();
    group_keys_.clear();
    // A scalar aggregate is one group from the start, so empty input still
    // yields its one row.
    if (group_idx_.empty()) NewGroup(-1);
    if (fused_ != nullptr) {
      AccumulateFused();
    } else {
      RowBatch batch;
      while (child_->NextBatch(&batch)) {
        AccumulateRows(&batch.row(0), batch.size());
      }
    }
    cursor_ = 0;
  }

  // Groups are emitted in id order straight from the aggregation state.
  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full() && cursor_ < num_groups_) {
      EmitGroup(cursor_++, &out->AppendSlot());
    }
    return !out->empty();
  }

 private:
  // Binds each aggregate's argument against the input layout. Fused
  // arguments other than typed plain columns bind against a narrow layout
  // of just the columns they read (narrow_map_), gathered per row.
  void BindAggregates(const Layout& input) {
    aggs_.clear();
    std::set<ColId> narrow_cols;
    for (const AggregateItem& a : node_.aggs) {
      AggState st;
      st.fn = a.fn;
      st.result_type = ResultType(a);
      st.count_star = a.arg == nullptr;
      ExprPtr bound = a.arg ? BindExpr(a.arg, input) : nullptr;
      if (bound != nullptr && bound->kind == ExprKind::kBoundColumn) {
        st.col = bound->bound_index;
      }
      if (fused_ != nullptr) {
        st.typed = st.col >= 0 &&
                   AggState::TypedInput(
                       a.fn, fused_->store->column(st.col).type());
        if (!st.typed && !st.count_star) CollectColumns(a.arg, &narrow_cols);
      } else if (st.col < 0) {
        st.expr = bound;
      }
      aggs_.push_back(std::move(st));
    }
    narrow_map_.clear();
    if (narrow_cols.empty()) return;
    std::vector<ColId> cols(narrow_cols.begin(), narrow_cols.end());
    for (ColId c : cols) narrow_map_.push_back(input.IndexOf(c));
    Layout narrow(std::move(cols));
    for (size_t i = 0; i < aggs_.size(); ++i) {
      AggState& st = aggs_[i];
      if (st.typed || st.count_star) continue;
      st.col = -1;
      st.expr = BindExpr(node_.aggs[i].arg, narrow);
    }
  }

  // Creates the next group id; `first_row` is its first input row when
  // fused (its key is read back from there).
  void NewGroup(int32_t first_row) {
    ++num_groups_;
    if (fused_ != nullptr) first_row_.push_back(first_row);
    for (AggState& st : aggs_) st.AddGroup();
  }

  // Accumulates straight off the fused scan's backing columns, one filtered
  // window at a time. Scan counters are credited exactly as the scan itself
  // would credit them.
  void AccumulateFused() {
    const ColumnStore& store = *fused_->store;
    const std::vector<int64_t>* pos = fused_->positions;
    const int64_t limit = pos != nullptr ? static_cast<int64_t>(pos->size())
                                         : store.num_rows();
    bool value_aggs = false;
    for (const AggState& st : aggs_) value_aggs |= !st.typed && !st.count_star;
    Row scratch;
    Row narrow(narrow_map_.size());
    for (int64_t start = 0; start < limit;) {
      const int window = static_cast<int>(
          std::min<int64_t>(RowBatch::kDefaultCapacity, limit - start));
      ctx_->rows_scanned += window;
      if (fused_->count_spool_reads) ctx_->spool_rows_read += window;
      sel_.resize(static_cast<size_t>(window));
      const int count = FilterWindow(store, pos, *fused_->pred, start, window,
                                     sel_.data(), &scratch);
      start += window;
      fused_->stats->rows_out += count;
      stats_->rows_in += count;
      ResolveFusedGroups(store, count);
      for (AggState& st : aggs_) {
        if (st.count_star) {
          for (int i = 0; i < count; ++i) ++st.count[gids_[i]];
        } else if (st.typed) {
          st.UpdateColumn(store.column(st.col), sel_.data(), gids_.data(),
                          count);
        }
      }
      if (!value_aggs) continue;
      for (int i = 0; i < count; ++i) {
        for (size_t j = 0; j < narrow_map_.size(); ++j) {
          store.column(narrow_map_[j]).GetInto(sel_[i], &narrow[j]);
        }
        for (AggState& st : aggs_) {
          if (st.typed || st.count_star) continue;
          st.Update(gids_[i], EvalExpr(st.expr, narrow));
        }
      }
    }
  }

  // Resolves the group ids of window rows sel_[0..n) into gids_.
  void ResolveFusedGroups(const ColumnStore& store, int n) {
    gids_.resize(static_cast<size_t>(n));
    const int32_t* sel = sel_.data();
    int32_t* gid = gids_.data();
    if (group_idx_.empty()) {
      std::fill(gid, gid + n, 0);
      return;
    }
    if (int_key_) {
      // Exact key bits: int64 values or dictionary codes.
      const Column& c = store.column(group_idx_[0]);
      const NullBitmap& nulls = c.nulls();
      const bool has_nulls = nulls.any();
      const bool coded = c.type() == DataType::kString;
      const int64_t* ints = c.ints();
      const int32_t* codes = c.codes();
      auto exact = [](int32_t) { return true; };
      for (int i = 0; i < n; ++i) {
        const int32_t r = sel[i];
        if (has_nulls && nulls.Test(r)) {
          if (null_group_ < 0) {
            null_group_ = num_groups_;
            NewGroup(r);
          }
          gid[i] = null_group_;
          continue;
        }
        const uint64_t k = coded ? static_cast<uint64_t>(codes[r])
                                 : static_cast<uint64_t>(ints[r]);
        const int32_t fresh = num_groups_;
        gid[i] = table_.FindOrInsert(k, fresh, exact);
        if (gid[i] == fresh) NewGroup(r);
      }
      return;
    }
    // Generic path: hash the key cells column by column (codes for strings,
    // -0.0 as 0.0, one constant for nulls), then find-or-insert with a key
    // check against each candidate group's first row.
    hashes_.assign(static_cast<size_t>(n), 0);
    for (int k : group_idx_) {
      const Column& c = store.column(k);
      const NullBitmap& nulls = c.nulls();
      const bool has_nulls = nulls.any();
      for (int i = 0; i < n; ++i) {
        const int32_t r = sel[i];
        uint64_t cell;
        if (has_nulls && nulls.Test(r)) {
          cell = kNullKeyHash;
        } else if (c.type() == DataType::kDouble) {
          double d = c.doubles()[r];
          if (d == 0) d = 0.0;
          std::memcpy(&cell, &d, sizeof(cell));
        } else if (c.type() == DataType::kString) {
          cell = static_cast<uint64_t>(c.codes()[r]);
        } else {
          cell = static_cast<uint64_t>(c.ints()[r]);
        }
        HashCombine(&hashes_[i], cell);
      }
    }
    for (int i = 0; i < n; ++i) {
      const int32_t r = sel[i];
      const int32_t fresh = num_groups_;
      gid[i] = table_.FindOrInsert(hashes_[i], fresh, [&](int32_t g) {
        return SameStoredKey(store, r, first_row_[static_cast<size_t>(g)]);
      });
      if (gid[i] == fresh) NewGroup(r);
    }
  }

  // Key equality of store rows a and b (nulls equal each other only).
  bool SameStoredKey(const ColumnStore& store, int32_t a, int32_t b) const {
    for (int k : group_idx_) {
      const Column& c = store.column(k);
      const bool null_a = c.IsNull(a);
      if (null_a != c.IsNull(b)) return false;
      if (null_a) continue;
      switch (c.type()) {
        case DataType::kDouble:
          if (c.doubles()[a] != c.doubles()[b]) return false;
          break;
        case DataType::kString:
          if (c.codes()[a] != c.codes()[b]) return false;
          break;
        default:
          if (c.ints()[a] != c.ints()[b]) return false;
          break;
      }
    }
    return true;
  }

  // Accumulates a batch of n Value rows, one row at a time so each row's
  // Values are read while cached.
  void AccumulateRows(const Row* rows, int n) {
    for (int i = 0; i < n; ++i) {
      const Row& row = rows[i];
      const int32_t g = RowGroup(row);
      for (AggState& st : aggs_) {
        if (st.count_star) {
          ++st.count[g];
        } else if (st.col >= 0) {
          st.Update(g, row[st.col]);
        } else {
          st.Update(g, EvalExpr(st.expr, row));
        }
      }
    }
  }

  // Whether `row`'s key equals group g's stored key Values.
  bool SameKeyValues(const Row& row, int32_t g) const {
    const Row& key = group_keys_[static_cast<size_t>(g)];
    for (size_t k = 0; k < key.size(); ++k) {
      if (!KeyValueEq(row[group_idx_[k]], key[k])) return false;
    }
    return true;
  }

  // Group id of a Value row: the key hash (Value::Hash agrees with
  // Value::Compare across int/double and -0.0) plus a key check against
  // each candidate group's stored key.
  int32_t RowGroup(const Row& row) {
    if (group_idx_.empty()) return 0;
    const int32_t fresh = num_groups_;
    const int32_t g = table_.FindOrInsert(
        HashRowAt(row, group_idx_), fresh,
        [&](int32_t id) { return SameKeyValues(row, id); });
    if (g == fresh) {
      group_keys_.push_back(ApplyMapping(row, group_idx_));
      NewGroup(-1);
    }
    return g;
  }

  // Writes group g's row (group columns then aggregates, remapped to the
  // node's output layout) into *out, reusing its Value storage.
  void EmitGroup(int32_t g, Row* out) {
    const size_t nk = group_idx_.size();
    out->resize(map_.size());
    for (size_t j = 0; j < map_.size(); ++j) {
      const size_t i = static_cast<size_t>(map_[j]);
      Value& dst = (*out)[j];
      if (i < nk) {
        dst = fused_ != nullptr
                  ? fused_->store->column(group_idx_[i])
                        .Get(first_row_[static_cast<size_t>(g)])
                  : group_keys_[static_cast<size_t>(g)][i];
      } else {
        const AggState& st = aggs_[i - nk];
        dst = st.Final(g, st.typed ? &fused_->store->column(st.col) : nullptr);
      }
    }
  }

  static DataType ResultType(const AggregateItem& a) {
    return AggResultType(a.fn,
                         a.arg ? a.arg->type : DataType::kInt64);
  }

  static constexpr uint64_t kNullKeyHash = 0x9b1a4c7d;

  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  ScanSource* fused_ = nullptr;
  std::vector<int> group_idx_;   // group key columns in the input layout
  bool int_key_ = false;         // fused single non-double key: exact bits
  std::vector<AggState> aggs_;
  std::vector<int> narrow_map_;  // store columns gathered for Value args
  std::vector<int> map_;
  // Group table: ids 0..num_groups_-1 in first-seen order.
  ChainTable table_;
  int32_t num_groups_ = 0;
  int32_t null_group_ = -1;           // int path: the null key's group
  std::vector<int32_t> first_row_;    // fused: each group's first store row
  // Value input: each group's key, one small Row per group, so many groups
  // never reallocate one large block of Values (that raised peak RSS).
  std::vector<Row> group_keys_;
  // Per-window scratch.
  std::vector<int32_t> sel_;
  std::vector<int32_t> gids_;
  std::vector<uint64_t> hashes_;
  int32_t cursor_ = 0;  // next group to emit
};

// -------------------------------------------------------- project / sort ---

class ProjectOp : public Operator {
 public:
  ProjectOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    const Layout& child_layout = node_.children[0]->output;
    bound_.clear();
    std::vector<ColId> natural;
    for (const ProjectItem& p : node_.projections) {
      bound_.push_back(BindExpr(p.expr, child_layout));
      natural.push_back(p.output);
    }
    map_ = MappingTo(Layout(natural), node_.output);
    // Compose projection + output mapping so the batched path writes each
    // output column directly (no intermediate natural row).
    composed_.clear();
    for (int idx : map_) composed_.push_back(bound_[idx]);
  }

  bool NextBatchImpl(RowBatch* out) override {
    if (!child_->NextBatch(&input_)) return false;
    for (int i = 0; i < input_.size(); ++i) {
      const Row& src = input_.row(i);
      Row& dst = out->AppendSlot();
      dst.resize(composed_.size());
      for (size_t j = 0; j < composed_.size(); ++j) {
        dst[j] = EvalExpr(composed_[j], src);
      }
    }
    return !out->empty();
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  std::vector<ExprPtr> bound_;
  std::vector<int> map_;
  std::vector<ExprPtr> composed_;
  RowBatch input_;
};

class SortOp : public Operator {
 public:
  SortOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    const Layout& child_layout = node_.children[0]->output;
    key_idx_.clear();
    for (const SortKey& k : node_.sort_keys) {
      int idx = child_layout.IndexOf(k.col);
      CHECK(idx >= 0) << "sort key missing";
      key_idx_.push_back(idx);
    }
    map_ = MappingTo(child_layout, node_.output);
    rows_.clear();
    DrainChild(child_.get(), &rows_);
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Row& a, const Row& b) {
                       for (size_t i = 0; i < key_idx_.size(); ++i) {
                         int c = a[key_idx_[i]].Compare(b[key_idx_[i]]);
                         if (c != 0) {
                           return node_.sort_keys[i].descending ? c > 0
                                                                : c < 0;
                         }
                       }
                       return false;
                     });
    if (node_.limit >= 0 &&
        rows_.size() > static_cast<size_t>(node_.limit)) {
      rows_.resize(static_cast<size_t>(node_.limit));
    }
    cursor_ = 0;
  }

  bool NextBatchImpl(RowBatch* out) override {
    while (!out->full() && cursor_ < rows_.size()) {
      out->AppendMapped(rows_[cursor_++], map_);
    }
    return !out->empty();
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  std::vector<int> key_idx_;
  std::vector<int> map_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

}  // namespace

// ------------------------------------------------------- base machinery ---

OperatorStats* ExecContext::RegisterOp(const char* label) {
  auto stats = std::make_unique<OperatorStats>();
  stats->label = label;
  stats->phase = phase;
  stats->depth = static_cast<int>(build_stack_.size());
  stats->parent = build_stack_.empty() ? nullptr : build_stack_.back();
  OperatorStats* raw = stats.get();
  op_stats_.push_back(std::move(stats));
  return raw;
}

Operator::Operator(ExecContext* ctx) : ctx_(ctx) {
  // BuildOperator pushed this node's stats before constructing it (and
  // before its children are built inside the derived constructor).
  CHECK(!ctx->build_stack_.empty());
  stats_ = ctx->build_stack_.back();
}

void Operator::Open() {
  int64_t t0 = NowNanos();
  OpenImpl();
  stats_->open_ns += NowNanos() - t0;
}

bool Operator::NextBatch(RowBatch* out) {
  out->clear();
  int64_t t0 = NowNanos();
  bool ok = NextBatchImpl(out);
  stats_->next_ns += NowNanos() - t0;
  if (ok) {
    ++stats_->batches;
    stats_->rows_out += out->size();
    if (stats_->parent != nullptr) stats_->parent->rows_in += out->size();
  }
  return ok;
}

void Operator::DrainChild(Operator* child, std::vector<Row>* out) {
  child->Open();
  RowBatch batch;
  while (child->NextBatch(&batch)) batch.MoveTo(out);
}

std::unique_ptr<Operator> BuildOperator(const PhysicalNode& node,
                                        ExecContext* ctx) {
  OperatorStats* stats = ctx->RegisterOp(PhysOpKindName(node.kind));
  ctx->build_stack_.push_back(stats);
  std::unique_ptr<Operator> op;
  switch (node.kind) {
    case PhysOpKind::kTableScan:
    case PhysOpKind::kIndexScan:
      op = std::make_unique<TableScanOp>(node, ctx);
      break;
    case PhysOpKind::kSpoolScan:
      op = std::make_unique<SpoolScanOp>(node, ctx);
      break;
    case PhysOpKind::kFilter:
      op = std::make_unique<FilterOp>(node, ctx);
      break;
    case PhysOpKind::kHashJoin:
      op = std::make_unique<HashJoinOp>(node, ctx);
      break;
    case PhysOpKind::kMergeJoin:
      op = std::make_unique<MergeJoinOp>(node, ctx);
      break;
    case PhysOpKind::kIndexNlJoin:
      op = std::make_unique<IndexNlJoinOp>(node, ctx);
      break;
    case PhysOpKind::kNlJoin:
      op = std::make_unique<NlJoinOp>(node, ctx);
      break;
    case PhysOpKind::kHashAgg:
      op = std::make_unique<HashAggOp>(node, ctx);
      break;
    case PhysOpKind::kProject:
      op = std::make_unique<ProjectOp>(node, ctx);
      break;
    case PhysOpKind::kSort:
      op = std::make_unique<SortOp>(node, ctx);
      break;
    case PhysOpKind::kBatch:
      CHECK(false) << "Batch nodes are executed by the Executor";
  }
  ctx->build_stack_.pop_back();
  return op;
}

std::vector<Row> RunToVector(const PhysicalNode& node, ExecContext* ctx) {
  std::unique_ptr<Operator> op = BuildOperator(node, ctx);
  op->Open();
  std::vector<Row> out;
  RowBatch batch;
  while (op->NextBatch(&batch)) batch.MoveTo(&out);
  return out;
}

}  // namespace subshare
