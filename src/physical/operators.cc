#include "physical/operators.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
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

// Physical positions of a batch's logical rows: its selection vector, or
// 0..size-1 written into `scratch`.
const int32_t* Positions(const ColumnBatch& batch,
                         std::vector<int32_t>* scratch) {
  if (batch.sel() != nullptr) return batch.sel();
  scratch->resize(static_cast<size_t>(batch.size()));
  std::iota(scratch->begin(), scratch->end(), 0);
  return scratch->data();
}

// Opens `child` and drains it into one owned buffer per column, with
// `views` over them; returns the row count (also right for zero-width
// inputs).
int DrainColumns(Operator* child, int width, std::vector<ColumnBuffer>* out,
                 std::vector<ColumnVector>* views) {
  child->Open();
  out->clear();
  out->resize(static_cast<size_t>(width));
  ColumnBatch batch;
  int64_t rows = 0;
  while (child->NextBatch(&batch)) {
    for (int c = 0; c < width; ++c) {
      (*out)[c].Gather(batch.column(c), batch.sel(), batch.size());
    }
    rows += batch.size();
  }
  CHECK(rows < (int64_t{1} << 31));
  views->clear();
  for (const ColumnBuffer& b : *out) views->push_back(b.view());
  return static_cast<int>(rows);
}

// Key bits of a double: -0.0 and 0.0 share one key.
inline uint64_t DoubleKeyBits(double d) {
  if (d == 0) d = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Fills cell[0..n) / null[0..n) with the hash-key cells of column v for
// rows pos[0..n): an int-family cell's exact int64 bits (its value widened
// to double bits when `as_double`), a double's -0.0-normalized bits, or a
// string's code in v's dictionary; 0 for null.
void KeyCells(const ColumnVector& v, const int32_t* pos, int n, bool as_double,
              uint64_t* cell, uint8_t* null) {
  for (int i = 0; i < n; ++i) null[i] = v.IsNull(pos[i]) ? 1 : 0;
  switch (v.type) {
    case DataType::kDouble:
      for (int i = 0; i < n; ++i) {
        cell[i] = null[i] ? 0 : DoubleKeyBits(v.doubles[pos[i]]);
      }
      return;
    case DataType::kString:
      for (int i = 0; i < n; ++i) {
        cell[i] = null[i] ? 0 : static_cast<uint64_t>(v.codes[pos[i]]);
      }
      return;
    default:
      for (int i = 0; i < n; ++i) {
        const int64_t x = null[i] ? 0 : v.ints[pos[i]];
        cell[i] = as_double ? DoubleKeyBits(static_cast<double>(x))
                            : static_cast<uint64_t>(x);
      }
      return;
  }
}

// Three-way comparison of cell pa of `a` and cell pb of `b` with
// Value::Compare semantics: null first, int family exact, any double side
// as doubles, strings by value (also across dictionaries).
int CompareCells(const ColumnVector& a, int32_t pa, const ColumnVector& b,
                 int32_t pb) {
  const bool na = a.IsNull(pa), nb = b.IsNull(pb);
  if (na || nb) return na == nb ? 0 : (na ? -1 : 1);
  if (a.type == DataType::kString) {
    DCHECK(b.type == DataType::kString);
    if (a.dict == b.dict && a.codes[pa] == b.codes[pb]) return 0;
    return a.dict->value(a.codes[pa]).compare(b.dict->value(b.codes[pb]));
  }
  if (a.type != DataType::kDouble && b.type != DataType::kDouble) {
    const int64_t x = a.ints[pa], y = b.ints[pb];
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const double x = a.type == DataType::kDouble
                       ? a.doubles[pa]
                       : static_cast<double>(a.ints[pa]);
  const double y = b.type == DataType::kDouble
                       ? b.doubles[pb]
                       : static_cast<double>(b.ints[pb]);
  return x < y ? -1 : (x > y ? 1 : 0);
}

// Stable-sorts `order` (positions into `cols`) on the key columns keys[i],
// in Value::Compare order (nulls first), descending where desc[i].
void SortPositions(const std::vector<ColumnVector>& cols,
                   const std::vector<int>& keys, const std::vector<bool>& desc,
                   std::vector<int32_t>* order) {
  std::stable_sort(order->begin(), order->end(), [&](int32_t a, int32_t b) {
    for (size_t i = 0; i < keys.size(); ++i) {
      const ColumnVector& c = cols[keys[i]];
      const int cmp = CompareCells(c, a, c, b);
      if (cmp != 0) return desc[i] ? cmp > 0 : cmp < 0;
    }
    return false;
  });
}

// Output assembly shared by the join operators: the joined pairs
// (left position, right position) that pass the residual predicate are
// gathered column by column into the output batch's buffers, each output
// column straight from the left or the right input. The residual is
// evaluated over a pair batch holding just the columns it reads.
class JoinOutput {
 public:
  struct OutCopy {
    int dst;  // output column
    int src;  // index on the source side
  };

  // `left` / `right` are the layouts of the inputs Emit receives.
  void Bind(const Layout& left, const Layout& right, const ExprPtr& residual,
            const Layout& output) {
    std::vector<ColId> concat = left.cols();
    concat.insert(concat.end(), right.cols().begin(), right.cols().end());
    Layout concat_layout(std::move(concat));
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
    residual_ = residual ? BindExpr(residual, concat_layout) : nullptr;
    residual_cols_.clear();
    if (residual_ != nullptr) {
      std::set<ColId> cols;
      CollectColumns(residual, &cols);
      for (ColId c : cols) residual_cols_.push_back(concat_layout.IndexOf(c));
      pair_cols_.assign(static_cast<size_t>(concat_layout.size()),
                        ColumnVector());
      pair_bufs_.resize(static_cast<size_t>(concat_layout.size()));
    }
    compiled_ = false;
  }

  // Starts an output batch.
  void Begin(ColumnBatch* out) {
    out->Reset(width_);
    for (int j = 0; j < width_; ++j) out->buffer(j)->clear();
    rows_ = 0;
  }
  // Rows emitted since Begin.
  int rows() const { return rows_; }

  // Emits the pairs (left cell lpos[i], right cell rpos[i]), i < n, that
  // pass the residual. Compacts lpos/rpos in place.
  void Emit(const std::vector<ColumnVector>& left,
            const std::vector<ColumnVector>& right, int32_t* lpos,
            int32_t* rpos, int n, ColumnBatch* out) {
    if (residual_ != nullptr && n > 0) n = FilterPairs(left, right, lpos, rpos, n);
    for (const OutCopy& c : left_) {
      out->buffer(c.dst)->Gather(left[c.src], lpos, n);
    }
    for (const OutCopy& c : right_) {
      out->buffer(c.dst)->Gather(right[c.src], rpos, n);
    }
    rows_ += n;
  }

  // Points the batch at its buffers.
  void Finish(ColumnBatch* out) {
    for (int j = 0; j < width_; ++j) out->UseBuffer(j);
    out->set_size(rows_);
  }

 private:
  int FilterPairs(const std::vector<ColumnVector>& left,
                  const std::vector<ColumnVector>& right, int32_t* lpos,
                  int32_t* rpos, int n) {
    for (int idx : residual_cols_) {
      ColumnBuffer& buf = pair_bufs_[static_cast<size_t>(idx)];
      buf.clear();
      if (idx < left_width_) {
        buf.Gather(left[idx], lpos, n);
      } else {
        buf.Gather(right[idx - left_width_], rpos, n);
      }
      pair_cols_[static_cast<size_t>(idx)] = buf.view();
    }
    if (!compiled_) {
      pred_ = CompiledPredicate::Compile(residual_, pair_cols_);
      compiled_ = true;
    }
    sel_.resize(static_cast<size_t>(n));
    std::iota(sel_.begin(), sel_.end(), 0);
    const int kept = pred_.Filter(pair_cols_, sel_.data(), n);
    for (int i = 0; i < kept; ++i) {  // sel_ ascends: compaction in place
      lpos[i] = lpos[sel_[i]];
      rpos[i] = rpos[sel_[i]];
    }
    return kept;
  }

  int left_width_ = 0;
  int width_ = 0;
  std::vector<OutCopy> left_;
  std::vector<OutCopy> right_;
  int rows_ = 0;
  // Residual over the concatenated left ++ right columns.
  ExprPtr residual_;
  std::vector<int> residual_cols_;
  std::vector<ColumnVector> pair_cols_;
  std::vector<ColumnBuffer> pair_bufs_;
  CompiledPredicate pred_;
  bool compiled_ = false;
  std::vector<int32_t> sel_;
};

// Open-addressed hash table over one uint64 key: maps key -> chain of ids
// (power-of-two capacity, linear probing). The executor's one hash table.
// As the equi-join probe table the ids are build-row indexes; as the hash
// aggregation's group table (ResetGroups / FindOrInsert) they are group
// ids. Either way a single-column key is stored as its exact cell bits
// (chains are per key) and a multi-column key as its hash (chains may
// interleave colliding keys; callers check cells). Building and probing do
// no per-row allocation.
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

// Table scan and spool scan share the same shape: run the compiled filter
// kernels over a window of the backing ColumnStore into the batch's
// selection vector and hand out spans over the store — no gather.
class ScanBase : public Operator {
 public:
  ScanBase(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node) {}

 protected:
  // Subclasses call this in OpenImpl (positions_ may be set after).
  void OpenScan(const ColumnStore& store, const Layout& storage_layout) {
    store_ = &store;
    cols_.clear();
    for (int c = 0; c < store.num_columns(); ++c) {
      cols_.push_back(store.column(c).View());
    }
    pred_ = CompiledPredicate::Compile(
        node_.filter ? BindExpr(node_.filter, storage_layout) : nullptr,
        cols_);
    map_ = MappingTo(storage_layout, node_.output);
    cursor_ = 0;
  }

  bool NextBatchImpl(ColumnBatch* out) override {
    const int64_t limit = use_positions_
                              ? static_cast<int64_t>(positions_.size())
                              : store_->num_rows();
    out->Reset(static_cast<int>(map_.size()));
    while (cursor_ < limit) {
      const int window = static_cast<int>(
          std::min<int64_t>(out->capacity(), limit - cursor_));
      ctx_->rows_scanned += window;
      if (count_spool_reads_) ctx_->spool_rows_read += window;
      int32_t* sel = out->MutableSel(window);
      const int count =
          use_positions_
              ? pred_.FilterPositions(cols_, positions_.data() + cursor_,
                                      window, sel)
              : pred_.FilterDense(cols_, cursor_, window, sel);
      cursor_ += window;
      if (count == 0) continue;
      for (size_t j = 0; j < map_.size(); ++j) {
        out->set_column(static_cast<int>(j), cols_[map_[j]]);
      }
      out->set_size(count);
      return true;
    }
    return false;
  }

  const PhysicalNode& node_;
  std::vector<int64_t> positions_;  // index-scan row positions
  bool use_positions_ = false;
  bool count_spool_reads_ = false;

 private:
  const ColumnStore* store_ = nullptr;
  std::vector<ColumnVector> cols_;  // spans over every store column
  CompiledPredicate pred_;
  std::vector<int> map_;  // output col -> store col
  int64_t cursor_ = 0;
};

class TableScanOp : public ScanBase {
 public:
  using ScanBase::ScanBase;

  void OpenImpl() override {
    OpenScan(node_.table->columns(), Layout(node_.input_cols));
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
    OpenScan(work_table->columns(), Layout(node_.input_cols));
    count_spool_reads_ = true;
  }
};

// --------------------------------------------------------------- filter ---

// Runs the compiled kernels over the child batch's positions and passes
// the child's spans through with the survivors as the selection vector.
class FilterOp : public Operator {
 public:
  FilterOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    Layout child_layout = node_.children[0]->output;
    bound_pred_ = BindExpr(node_.filter, child_layout);
    map_ = MappingTo(child_layout, node_.output);
    compiled_ = false;
  }

  bool NextBatchImpl(ColumnBatch* out) override {
    while (child_->NextBatch(&input_)) {
      const std::vector<ColumnVector>& cols = input_.columns();
      if (!compiled_) {  // on the first batch: its string dictionaries
        pred_ = CompiledPredicate::Compile(bound_pred_, cols);
        compiled_ = true;
      }
      const int n = input_.size();
      out->Reset(static_cast<int>(map_.size()));
      int32_t* sel = out->MutableSel(n);
      for (int j = 0; j < n; ++j) sel[j] = input_.pos(j);
      const int kept = pred_.Filter(cols, sel, n);
      if (kept == 0) continue;
      for (size_t j = 0; j < map_.size(); ++j) {
        out->set_column(static_cast<int>(j), cols[map_[j]]);
      }
      out->set_size(kept);
      return true;
    }
    return false;
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  ExprPtr bound_pred_;
  CompiledPredicate pred_;
  bool compiled_ = false;
  std::vector<int> map_;
  ColumnBatch input_;
};

// ---------------------------------------------------------------- joins ---

// Hash join: drains the right child into typed build columns, probes with
// the left. Each key pair compares as Value::Compare does: int family
// exactly, as doubles when either side is a double (-0.0 == 0.0), strings
// by value — probe codes are translated into the build dictionary. A key
// row becomes one uint64 cell per key column; a single key is its own hash
// key (chains are per key), several are hashed and chains are checked cell
// by cell. Null keys never join. Each probe batch resolves all chain heads
// in one FindBatch pass (AMAC-interleaved); matches are gathered into the
// output column by column.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(const PhysicalNode& node, ExecContext* ctx)
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
      CHECK(li >= 0) << "join key missing from probe child layout";
      CHECK(ri >= 0) << "join key missing from build child layout";
      left_key_idx_.push_back(li);
      right_key_idx_.push_back(ri);
    }
    build_rows_ =
        DrainColumns(right_.get(), right_layout.size(), &build_, &build_cols_);
    built_ = false;
    output_.Bind(left_layout, right_layout, node_.join_residual,
                 node_.output);
    left_->Open();
    probe_live_ = false;
    probe_idx_ = 0;
    chain_ = -1;
    foreign_.assign(left_key_idx_.size(), CodeRemap());
  }

  bool NextBatchImpl(ColumnBatch* out) override {
    if (build_rows_ == 0) return false;  // nothing can match
    output_.Begin(out);
    const int cap = out->capacity();
    if (lpos_.size() < static_cast<size_t>(cap)) {
      lpos_.resize(static_cast<size_t>(cap));
      rpos_.resize(static_cast<size_t>(cap));
    }
    int pending = 0;
    while (output_.rows() + pending < cap) {
      if (chain_ >= 0) {
        const int32_t r = chain_;
        chain_ = table_.next[static_cast<size_t>(r)];
        if (multi_key_ && !CellsMatch(cur_row_, r)) continue;
        lpos_[pending] = cur_pos_;
        rpos_[pending] = r;
        ++pending;
        continue;
      }
      if (probe_live_ && probe_idx_ < static_cast<int>(key_rows_.size())) {
        const int i = probe_idx_++;
        chain_ = heads_[static_cast<size_t>(i)];
        cur_row_ = key_rows_[static_cast<size_t>(i)];
        cur_pos_ = probe_.pos(cur_row_);
        continue;
      }
      // The pending pairs point into the current probe batch: emit them
      // before pulling the next one.
      Flush(&pending, out);
      if (!left_->NextBatch(&probe_)) {
        probe_live_ = false;
        break;
      }
      probe_live_ = true;
      if (!built_) BuildTable();
      ResolveProbe();
    }
    Flush(&pending, out);
    output_.Finish(out);
    return !out->empty();
  }

 private:
  void Flush(int* pending, ColumnBatch* out) {
    if (*pending == 0) return;
    output_.Emit(probe_.columns(), build_cols_, lpos_.data(), rpos_.data(),
                 *pending, out);
    *pending = 0;
  }

  // Keys rows pos[0..n) of `cols` through `key_idx`: (*cells)[k*n + i] is
  // key k's cell of row i. Rows whose key can match (no null; a probe string
  // the build dictionary holds) append their index i to `rows` and their
  // table key (the cell itself for one key column, else the cells' hash) to
  // `keys`.
  void KeyRows(const std::vector<ColumnVector>& cols,
               const std::vector<int>& key_idx, const int32_t* pos, int n,
               bool probe, std::vector<uint64_t>* cells,
               std::vector<int32_t>* rows, std::vector<uint64_t>* keys) {
    const size_t nk = key_idx.size(), un = static_cast<size_t>(n);
    cells->resize(un * nk);
    nulls_.resize(un * nk);
    for (size_t k = 0; k < nk; ++k) {
      const ColumnVector& v = cols[key_idx[k]];
      uint64_t* cell = cells->data() + k * un;
      uint8_t* null = nulls_.data() + k * un;
      KeyCells(v, pos, n, as_double_[k], cell, null);
      if (!probe || v.type != DataType::kString) continue;
      const StringDictionary& build_dict =
          *build_cols_[right_key_idx_[k]].dict;
      if (v.dict == &build_dict) continue;
      for (int i = 0; i < n; ++i) {  // translate into the build dictionary
        if (null[i]) continue;
        const int32_t code = foreign_[k].Find(
            *v.dict, static_cast<int32_t>(cell[i]), build_dict);
        null[i] = code < 0 ? 1 : 0;  // an absent string cannot match
        cell[i] = static_cast<uint64_t>(code);
      }
    }
    rows->clear();
    keys->clear();
    for (size_t i = 0; i < un; ++i) {
      size_t seed = 0;
      bool live = true;
      for (size_t k = 0; k < nk && live; ++k) {
        live = nulls_[k * un + i] == 0;  // nulls never join
        HashCombine(&seed, (*cells)[k * un + i]);
      }
      if (!live) continue;
      rows->push_back(static_cast<int32_t>(i));
      keys->push_back(multi_key_ ? static_cast<uint64_t>(seed) : (*cells)[i]);
    }
  }

  // Builds the chain table once the probe side's key types are known.
  void BuildTable() {
    const std::vector<ColumnVector>& probe_cols = probe_.columns();
    as_double_.clear();
    for (size_t k = 0; k < right_key_idx_.size(); ++k) {
      const DataType l = probe_cols[left_key_idx_[k]].type;
      const DataType r = build_cols_[right_key_idx_[k]].type;
      DCHECK((l == DataType::kString) == (r == DataType::kString));
      as_double_.push_back(l == DataType::kDouble || r == DataType::kDouble);
    }
    multi_key_ = right_key_idx_.size() > 1;
    std::vector<int32_t> all(static_cast<size_t>(build_rows_));
    std::iota(all.begin(), all.end(), 0);
    std::vector<int32_t> rows;
    std::vector<uint64_t> keys;
    KeyRows(build_cols_, right_key_idx_, all.data(), build_rows_, false,
            &build_cells_, &rows, &keys);
    table_.Build(keys.data(), rows.data(), static_cast<int>(keys.size()),
                 build_rows_);
    built_ = true;
  }

  // One probe window over the fresh probe batch: key every row that can
  // match, then resolve all chain heads in one FindBatch pass.
  void ResolveProbe() {
    probe_rows_ = probe_.size();
    KeyRows(probe_.columns(), left_key_idx_, Positions(probe_, &pos_scratch_),
            probe_rows_, true, &probe_cells_, &key_rows_, &win_keys_);
    heads_.resize(win_keys_.size());
    const int keys = static_cast<int>(win_keys_.size());
    const int depth = table_.FindBatch(win_keys_.data(), keys, heads_.data());
    if (keys > 0) {
      ++ctx_->probe_windows;
      ctx_->probe_keys += keys;
      if (depth > ctx_->probe_in_flight) ctx_->probe_in_flight = depth;
    }
    probe_idx_ = 0;
    chain_ = -1;
  }

  // Multi-column keys share chains on hash collisions: compare the cells
  // of probe row j with those of build row r.
  bool CellsMatch(int32_t j, int32_t r) const {
    for (size_t k = 0; k < left_key_idx_.size(); ++k) {
      if (probe_cells_[k * static_cast<size_t>(probe_rows_) + j] !=
          build_cells_[k * static_cast<size_t>(build_rows_) + r]) {
        return false;
      }
    }
    return true;
  }

  const PhysicalNode& node_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  JoinOutput output_;
  // Build side: typed columns and the chain table over its keyed rows.
  std::vector<ColumnBuffer> build_;
  std::vector<ColumnVector> build_cols_;
  int build_rows_ = 0;
  bool built_ = false;
  std::vector<bool> as_double_;        // per key: compare as doubles
  bool multi_key_ = false;
  std::vector<uint64_t> build_cells_;  // key k of build row r at k*rows+r
  std::vector<CodeRemap> foreign_;     // per key: probe -> build codes
  ChainTable table_;
  // Probe state: the current batch, its keyed rows and their chain heads.
  ColumnBatch probe_;
  bool probe_live_ = false;
  int probe_rows_ = 0;
  std::vector<uint64_t> probe_cells_;  // key k of probe row j at k*rows+j
  std::vector<int32_t> key_rows_;      // logical rows with a matchable key
  std::vector<uint64_t> win_keys_;     // their table keys
  std::vector<int32_t> heads_;         // their chain heads
  int probe_idx_ = 0;                  // next keyed row to walk
  int32_t chain_ = -1;                 // next build row chained for cur_pos_
  int32_t cur_row_ = 0;                // logical probe row owning chain_
  int32_t cur_pos_ = 0;                // its position
  std::vector<uint8_t> nulls_;         // KeyRows scratch
  std::vector<int32_t> pos_scratch_;
  std::vector<int32_t> lpos_, rpos_;   // pending pairs
};

// Sort-merge join: drains both inputs, sorts each side's non-null-key rows
// on the join keys (Value::Compare order), then merges equal-key ranges
// (cross product within a range, filtered by the residual predicate).
// Resumes mid-range when the output batch fills. A nested-loop join is the
// keyless case: one range holding every left x right pair, in left-major
// order, filtered by its predicate.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        left_op_(BuildOperator(*node.children[0], ctx)),
        right_op_(BuildOperator(*node.children[1], ctx)) {}

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
    output_.Bind(left_layout, right_layout,
                 node_.kind == PhysOpKind::kNlJoin ? node_.nl_pred
                                                   : node_.join_residual,
                 node_.output);
    left_.Drain(left_op_.get(), left_layout.size(), left_key_idx_);
    right_.Drain(right_op_.get(), right_layout.size(), right_key_idx_);
    li_ = ri_ = 0;
    range_li_ = range_lend_ = range_rbegin_ = range_ri_ = range_rend_ = 0;
  }

  bool NextBatchImpl(ColumnBatch* out) override {
    output_.Begin(out);
    const int cap = out->capacity();
    lpos_.resize(static_cast<size_t>(cap));
    rpos_.resize(static_cast<size_t>(cap));
    while (output_.rows() < cap) {
      if (range_li_ == range_lend_ && !NextRange()) break;
      const int room = cap - output_.rows();
      int n = 0;
      while (n < room && range_li_ < range_lend_) {
        lpos_[n] = left_.order[range_li_];
        rpos_[n] = right_.order[range_ri_];
        ++n;
        if (++range_ri_ == range_rend_) {
          range_ri_ = range_rbegin_;
          ++range_li_;
        }
      }
      output_.Emit(left_.cols, right_.cols, lpos_.data(), rpos_.data(), n,
                   out);
    }
    output_.Finish(out);
    return !out->empty();
  }

 private:
  // One drained input: typed columns plus its non-null-key rows in key
  // order.
  struct Side {
    std::vector<ColumnBuffer> bufs;
    std::vector<ColumnVector> cols;
    std::vector<int32_t> order;

    void Drain(Operator* op, int width, const std::vector<int>& keys) {
      const int rows = DrainColumns(op, width, &bufs, &cols);
      order.clear();
      for (int32_t r = 0; r < rows; ++r) {
        bool null_key = false;
        for (int k : keys) null_key |= cols[k].IsNull(r);
        if (!null_key) order.push_back(r);  // null keys never join
      }
      SortPositions(cols, keys, std::vector<bool>(keys.size(), false), &order);
    }
  };

  int CompareKeys(size_t li, size_t ri) const {
    for (size_t k = 0; k < left_key_idx_.size(); ++k) {
      int c = CompareCells(left_.cols[left_key_idx_[k]], left_.order[li],
                           right_.cols[right_key_idx_[k]], right_.order[ri]);
      if (c != 0) return c;
    }
    return 0;
  }

  // Advances to the next equal-key rectangle [range_li_, range_lend_) x
  // [range_rbegin_, range_rend_) of the sorted orders; false when either
  // input is exhausted.
  bool NextRange() {
    const size_t ln = left_.order.size(), rn = right_.order.size();
    while (li_ < ln && ri_ < rn) {
      int c = CompareKeys(li_, ri_);
      if (c < 0) {
        ++li_;
        continue;
      }
      if (c > 0) {
        ++ri_;
        continue;
      }
      size_t lend = li_ + 1;
      while (lend < ln && CompareKeys(lend, ri_) == 0) ++lend;
      size_t rend = ri_ + 1;
      while (rend < rn && CompareKeys(li_, rend) == 0) ++rend;
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

  const PhysicalNode& node_;
  std::unique_ptr<Operator> left_op_;
  std::unique_ptr<Operator> right_op_;
  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  JoinOutput output_;
  Side left_;
  Side right_;
  size_t li_ = 0, ri_ = 0;  // merge cursors past the current range
  size_t range_li_ = 0, range_lend_ = 0;
  size_t range_rbegin_ = 0, range_ri_ = 0, range_rend_ = 0;
  std::vector<int32_t> lpos_, rpos_;
};

// Index nested-loop join: for every outer row, probes the inner base
// table's sorted index at the join-key value; the inner local predicate
// runs as compiled kernels over the matched positions and the residual
// over the pairs. Chosen for selective plans.
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

    const ColumnStore& store = node_.table->columns();
    inner_cols_.clear();
    for (int c = 0; c < store.num_columns(); ++c) {
      inner_cols_.push_back(store.column(c).View());
    }
    Layout inner_layout(node_.input_cols);
    inner_pred_ = CompiledPredicate::Compile(
        node_.filter ? BindExpr(node_.filter, inner_layout) : nullptr,
        inner_cols_);
    output_.Bind(outer_layout, inner_layout, node_.join_residual,
                 node_.output);
    outer_->Open();
    input_.clear();
    outer_idx_ = 0;
    matches_.clear();
    match_idx_ = 0;
  }

  bool NextBatchImpl(ColumnBatch* out) override {
    output_.Begin(out);
    const int cap = out->capacity();
    lpos_.resize(static_cast<size_t>(cap));
    rpos_.resize(static_cast<size_t>(cap));
    while (output_.rows() < cap) {
      if (match_idx_ < matches_.size()) {
        const int take = static_cast<int>(std::min<size_t>(
            static_cast<size_t>(cap - output_.rows()),
            matches_.size() - match_idx_));
        ctx_->rows_scanned += take;
        const int n = inner_pred_.FilterPositions(
            inner_cols_, matches_.data() + match_idx_, take, rpos_.data());
        match_idx_ += static_cast<size_t>(take);
        std::fill(lpos_.begin(), lpos_.begin() + n, outer_pos_);
        output_.Emit(input_.columns(), inner_cols_, lpos_.data(),
                     rpos_.data(), n, out);
        continue;
      }
      if (outer_idx_ >= input_.size()) {
        if (!outer_->NextBatch(&input_)) break;
        outer_idx_ = 0;
      }
      outer_pos_ = input_.pos(outer_idx_++);
      matches_.clear();
      match_idx_ = 0;
      const Value key = input_.column(outer_key_idx_).Get(outer_pos_);
      if (key.is_null()) continue;  // nulls never join
      matches_ = index_->RangeLookup(&key, true, &key, true);
    }
    output_.Finish(out);
    return !out->empty();
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> outer_;
  int outer_key_idx_ = -1;
  const SortedIndex* index_ = nullptr;
  SortedIndex::Pin index_pin_;
  std::vector<ColumnVector> inner_cols_;  // spans over the inner table
  CompiledPredicate inner_pred_;
  JoinOutput output_;
  ColumnBatch input_;             // current outer batch
  int outer_idx_ = 0;             // next outer row to probe
  int32_t outer_pos_ = 0;         // position of the row owning matches_
  std::vector<int64_t> matches_;  // inner rows of that outer row
  size_t match_idx_ = 0;
  std::vector<int32_t> lpos_, rpos_;
};

// ----------------------------------------------------------- aggregation ---

// Two's-complement addition: an integral SUM that overflows wraps instead of
// being undefined.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

// One aggregate's per-group state, in flat arrays indexed by group id,
// updated straight from typed input spans. Results are exactly those of the
// reference accumulator the tests check against (tests/agg_reference.h):
// `count` counts non-null inputs (the COUNT value, and "seen" for the
// others); SUM keeps an int64 sum of integer-family input (an integral
// result stays int64) and a double sum of double input in arrival order;
// MIN/MAX keep the first extreme seen, typed (strings as dictionary code
// plus dictionary), so the result keeps the input's declared type.
struct AggState {
  AggFn fn = AggFn::kCount;
  DataType result_type = DataType::kInt64;
  bool count_star = false;  // COUNT(*): every input row counts
  int col = -1;             // plain-column argument's input index, else -1
  ExprProgram program;      // computed argument, when col < 0
  DataType arg_type = DataType::kInt64;  // declared type of the input
  bool saw_input = false;
  std::vector<int64_t> count;
  std::vector<int64_t> isum;  // SUM of int-family input; MIN/MAX ints
  std::vector<double> dsum;   // SUM of double input; MIN/MAX doubles
  std::vector<int32_t> code;  // MIN/MAX strings, codes into `dict`
  const StringDictionary* dict = nullptr;  // the input's (one per stream)

  void AddGroup() {
    count.push_back(0);
    if (fn == AggFn::kCount) return;
    isum.push_back(0);
    dsum.push_back(0);
    if (fn != AggFn::kSum) code.push_back(-1);
  }

  // Updates groups gid[0..n) from cells pos[0..n) of `c`, in arrival
  // order.
  void Update(const ColumnVector& c, const int32_t* pos, const int32_t* gid,
              int n) {
    arg_type = c.type;
    saw_input = true;
    // Calls f(group, position) for every non-null input.
    auto each = [&](auto f) {
      if (c.nulls == nullptr) {
        for (int i = 0; i < n; ++i) f(gid[i], pos[i]);
        return;
      }
      for (int i = 0; i < n; ++i) {
        if (!c.IsNull(pos[i])) f(gid[i], pos[i]);
      }
    };
    if (fn == AggFn::kCount) {
      each([&](int32_t g, int32_t) { ++count[g]; });
      return;
    }
    if (fn == AggFn::kSum) {
      if (c.type == DataType::kDouble) {
        each([&](int32_t g, int32_t p) {
          ++count[g];
          dsum[g] += c.doubles[p];
        });
      } else {
        each([&](int32_t g, int32_t p) {
          ++count[g];
          isum[g] = WrapAdd(isum[g], c.ints[p]);
        });
      }
      return;
    }
    const bool min = fn == AggFn::kMin;
    // Replaces the extreme only on a strict improvement: ties keep the
    // first row seen.
    if (c.type == DataType::kDouble) {
      each([&](int32_t g, int32_t p) {
        const double v = c.doubles[p];
        if (count[g]++ == 0 || (min ? v < dsum[g] : v > dsum[g])) dsum[g] = v;
      });
    } else if (c.type == DataType::kString) {
      dict = c.dict;
      each([&](int32_t g, int32_t p) {
        const int32_t v = c.codes[p];
        if (count[g]++ == 0) {
          code[g] = v;
        } else if (code[g] != v) {
          const int cmp = dict->value(v).compare(dict->value(code[g]));
          if (min ? cmp < 0 : cmp > 0) code[g] = v;
        }
      });
    } else {
      each([&](int32_t g, int32_t p) {
        const int64_t v = c.ints[p];
        if (count[g]++ == 0 || (min ? v < isum[g] : v > isum[g])) isum[g] = v;
      });
    }
  }

  // Writes every group's result into `out`.
  void Finalize(int groups, ColumnBuffer* out) const {
    DataType type = fn == AggFn::kCount ? DataType::kInt64
                    : saw_input         ? arg_type
                                        : result_type;
    if (fn == AggFn::kSum && type != DataType::kDouble) type = DataType::kInt64;
    if (type == DataType::kDouble) {
      std::copy(dsum.begin(), dsum.begin() + groups, out->MutableDoubles(groups));
    } else if (type == DataType::kString) {
      if (dict != nullptr) out->SetDict(*dict);
      std::copy(code.begin(), code.begin() + groups, out->MutableCodes(groups));
    } else {
      const std::vector<int64_t>& v = fn == AggFn::kCount ? count : isum;
      std::copy(v.begin(), v.begin() + groups, out->MutableInts(type, groups));
    }
    if (fn == AggFn::kCount) return;
    for (int g = 0; g < groups; ++g) {
      if (count[g] == 0) out->SetNull(g);
    }
  }
};

// Aggregation over flat group ids, numbered 0..n-1 in first-seen order
// (also the output order). kHashAgg resolves each input row's group through
// a ChainTable over per-key uint64 cells (int64 bits, -0.0-normalized
// double bits, or the string's code): a single key is its own table key
// (nulls form one group); several pack into one exact key when every cell
// fits, else they are hashed and checked cell by cell. kStreamAgg (the naive planner's, over input sorted
// on the group columns) compares each row with the current group's key
// instead: no hashing at all. Both read key and argument spans from any
// child batch, keep each group's first key cells as its key, and
// accumulate into AggState's typed arrays. The whole input is consumed in
// Open; output batches are spans over the group keys and final values.
class AggregateOp : public Operator {
 public:
  AggregateOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx),
        node_(node),
        child_(BuildOperator(*node.children[0], ctx)),
        streaming_(node.kind == PhysOpKind::kStreamAgg) {}

  void OpenImpl() override {
    child_->Open();
    const Layout& input = node_.children[0]->output;
    group_idx_.clear();
    for (ColId c : node_.group_cols) {
      int idx = input.IndexOf(c);
      CHECK(idx >= 0) << "group column missing";
      group_idx_.push_back(idx);
    }
    aggs_.clear();
    aggs_.resize(node_.aggs.size());
    for (size_t i = 0; i < node_.aggs.size(); ++i) {
      const AggregateItem& a = node_.aggs[i];
      AggState& st = aggs_[i];
      st.fn = a.fn;
      st.result_type =
          AggResultType(a.fn, a.arg ? a.arg->type : DataType::kInt64);
      st.count_star = a.arg == nullptr;
      st.arg_type = st.result_type;
      if (a.arg == nullptr) continue;
      ExprPtr bound = BindExpr(a.arg, input);
      if (bound->kind == ExprKind::kBoundColumn) {
        st.col = bound->bound_index;
      } else {
        st.program = ExprProgram(bound);
      }
    }
    // Result layout: group cols then agg outputs.
    std::vector<ColId> natural = node_.group_cols;
    for (const AggregateItem& a : node_.aggs) natural.push_back(a.output);
    map_ = MappingTo(Layout(natural), node_.output);

    const size_t nk = group_idx_.size();
    keys_.clear();
    keys_.resize(nk);
    group_cells_.clear();
    group_nulls_.clear();
    table_.ResetGroups();
    wide_.ResetGroups();
    num_groups_ = 0;
    null_group_ = -1;
    // A scalar aggregate is one group from the start, so empty input still
    // yields its one row.
    if (nk == 0) NewGroup(ColumnBatch(), 0);
    ColumnBatch batch;
    while (child_->NextBatch(&batch)) Accumulate(batch);
    results_.clear();
    results_.resize(aggs_.size());
    for (size_t i = 0; i < aggs_.size(); ++i) {
      aggs_[i].Finalize(num_groups_, &results_[i]);
    }
    out_cols_.clear();
    for (int idx : map_) {
      out_cols_.push_back(idx < static_cast<int>(nk)
                              ? keys_[static_cast<size_t>(idx)].view()
                              : results_[static_cast<size_t>(idx) - nk].view());
    }
    cursor_ = 0;
  }

  // Groups are emitted in id order as spans over the key and result
  // buffers.
  bool NextBatchImpl(ColumnBatch* out) override {
    const int n = std::min(out->capacity(), num_groups_ - cursor_);
    if (n <= 0) return false;
    out->Reset(static_cast<int>(out_cols_.size()));
    for (size_t j = 0; j < out_cols_.size(); ++j) {
      out->set_column(static_cast<int>(j), out_cols_[j]);
    }
    int32_t* sel = out->MutableSel(n);
    for (int j = 0; j < n; ++j) sel[j] = cursor_ + j;
    out->set_size(n);
    cursor_ += n;
    return true;
  }

 private:
  void Accumulate(const ColumnBatch& batch) {
    const int n = batch.size();
    const int32_t* pos = Positions(batch, &pos_scratch_);
    gids_.resize(static_cast<size_t>(n));
    if (group_idx_.empty()) {
      std::fill(gids_.begin(), gids_.end(), 0);
    } else if (streaming_) {
      StreamGroups(batch, pos, n);
    } else {
      HashGroups(batch, pos, n);
    }
    const std::vector<ColumnVector>& cols = batch.columns();
    for (AggState& st : aggs_) {
      if (st.count_star) {
        for (int i = 0; i < n; ++i) ++st.count[gids_[i]];
      } else if (st.col >= 0) {
        st.Update(cols[st.col], pos, gids_.data(), n);
      } else {
        iota_.resize(static_cast<size_t>(n));
        std::iota(iota_.begin(), iota_.end(), 0);
        st.Update(st.program.Eval(cols, pos, n).view(), iota_.data(),
                  gids_.data(), n);
      }
    }
  }

  // Creates the next group id, keyed by the cells at position p of `batch`.
  void NewGroup(const ColumnBatch& batch, int32_t p) {
    for (size_t k = 0; k < group_idx_.size(); ++k) {
      keys_[k].Gather(batch.column(group_idx_[k]), &p, 1);
    }
    ++num_groups_;
    for (AggState& st : aggs_) st.AddGroup();
  }

  void HashGroups(const ColumnBatch& batch, const int32_t* pos, int n) {
    const size_t nk = group_idx_.size();
    const size_t un = static_cast<size_t>(n);
    cells_.resize(un * nk);  // key k's cells at [k*n, (k+1)*n)
    nulls_.resize(un * nk);
    for (size_t k = 0; k < nk; ++k) {
      KeyCells(batch.column(group_idx_[k]), pos, n, /*as_double=*/false,
               &cells_[k * un], &nulls_[k * un]);
    }
    auto exact = [](int32_t) { return true; };
    if (nk == 1) {
      for (size_t i = 0; i < un; ++i) {
        if (nulls_[i]) {
          if (null_group_ < 0) null_group_ = AddGroup(batch, pos[i], i, un);
          gids_[i] = null_group_;
          continue;
        }
        const int32_t fresh = num_groups_;
        gids_[i] = table_.FindOrInsert(cells_[i], fresh, exact);
        if (gids_[i] == fresh) AddGroup(batch, pos[i], i, un);
      }
      return;
    }
    // Several keys. A row whose cells all fit in 64/nk bits (0 for null,
    // string code + 1, int offset into the unsigned range; doubles never)
    // packs into one exact key of table_. Other rows go through wide_ by
    // hash, checked cell by cell. A key value always packs or never does,
    // so each group lives in exactly one table.
    const int bits = 64 / static_cast<int>(nk);
    const int64_t half = int64_t{1} << (bits - 1);
    kinds_.resize(nk);
    for (size_t k = 0; k < nk; ++k) kinds_[k] = batch.column(group_idx_[k]).type;
    for (size_t i = 0; i < un; ++i) {
      uint64_t packed = 0;
      bool fits = true;
      for (size_t k = 0; k < nk && fits; ++k) {
        const uint64_t cell = cells_[k * un + i];
        uint64_t e = 0;
        if (nulls_[k * un + i]) {
          e = 0;
        } else if (kinds_[k] == DataType::kString) {
          e = cell + 1;
          fits = e < (uint64_t{1} << bits);
        } else if (kinds_[k] == DataType::kDouble) {
          fits = false;
        } else {
          const int64_t v = static_cast<int64_t>(cell);
          fits = v >= -half && v < half - 1;
          e = static_cast<uint64_t>(v + half + 1);
        }
        packed |= e << (static_cast<int>(k) * bits);
      }
      const int32_t fresh = num_groups_;
      if (fits) {
        gids_[i] = table_.FindOrInsert(packed, fresh, exact);
      } else {
        size_t hash = 0;
        for (size_t k = 0; k < nk; ++k) {
          HashCombine(&hash, nulls_[k * un + i] ? kNullKeyHash : cells_[k * un + i]);
        }
        gids_[i] = wide_.FindOrInsert(hash, fresh, [&](int32_t id) {
          const size_t base = static_cast<size_t>(id) * nk;
          for (size_t k = 0; k < nk; ++k) {
            if (cells_[k * un + i] != group_cells_[base + k] ||
                nulls_[k * un + i] != group_nulls_[base + k]) {
              return false;
            }
          }
          return true;
        });
      }
      if (gids_[i] == fresh) AddGroup(batch, pos[i], i, un);
    }
  }

  // Creates a group keyed by row i of the current cells (position p).
  int32_t AddGroup(const ColumnBatch& batch, int32_t p, size_t i, size_t n) {
    for (size_t k = 0; k < group_idx_.size(); ++k) {
      group_cells_.push_back(cells_[k * n + i]);
      group_nulls_.push_back(nulls_[k * n + i]);
    }
    NewGroup(batch, p);
    return num_groups_ - 1;
  }

  // Sorted input: a row starts a new group unless its key compares equal
  // (Value::Compare, nulls equal) to the current group's.
  void StreamGroups(const ColumnBatch& batch, const int32_t* pos, int n) {
    for (int i = 0; i < n; ++i) {
      bool same = num_groups_ > 0;
      for (size_t k = 0; k < group_idx_.size() && same; ++k) {
        same = CompareCells(batch.column(group_idx_[k]), pos[i],
                            keys_[k].view(), num_groups_ - 1) == 0;
      }
      if (!same) NewGroup(batch, pos[i]);
      gids_[i] = num_groups_ - 1;
    }
  }

  static constexpr uint64_t kNullKeyHash = 0x9b1a4c7d;

  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  const bool streaming_;
  std::vector<int> group_idx_;  // group key columns in the input layout
  std::vector<AggState> aggs_;
  std::vector<int> map_;
  // Groups: ids 0..num_groups_-1 in first-seen order, keyed by keys_.
  std::vector<ColumnBuffer> keys_;     // each group's first key cells
  ChainTable table_;  // exact keys: one column's cell, or packed cells
  ChainTable wide_;   // several keys that do not pack: by hash
  int32_t num_groups_ = 0;
  int32_t null_group_ = -1;            // single key: the null key's group
  std::vector<uint64_t> group_cells_;  // g's key cells at g*nk
  std::vector<uint8_t> group_nulls_;   // g's key null flags
  // Output.
  std::vector<ColumnBuffer> results_;
  std::vector<ColumnVector> out_cols_;
  int32_t cursor_ = 0;  // next group to emit
  // Per-batch scratch.
  std::vector<int32_t> pos_scratch_;
  std::vector<int32_t> iota_;  // dense positions of computed arguments
  std::vector<int32_t> gids_;
  std::vector<uint64_t> cells_;
  std::vector<uint8_t> nulls_;
  std::vector<DataType> kinds_;
};

// -------------------------------------------------------- project / sort ---

// Column references pass their spans (and the input's selection vector)
// through; computed items are evaluated column-wise into dense buffers. A
// batch mixing both over a selection vector gathers the referenced columns
// so every output column shares dense positions.
class ProjectOp : public Operator {
 public:
  ProjectOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    child_->Open();
    const Layout& child_layout = node_.children[0]->output;
    std::vector<ExprPtr> bound;
    std::vector<ColId> natural;
    for (const ProjectItem& p : node_.projections) {
      bound.push_back(BindExpr(p.expr, child_layout));
      natural.push_back(p.output);
    }
    // Items in output order.
    pass_.clear();
    programs_.clear();
    computed_ = false;
    for (int idx : MappingTo(Layout(natural), node_.output)) {
      const ExprPtr& e = bound[static_cast<size_t>(idx)];
      const bool column = e->kind == ExprKind::kBoundColumn;
      pass_.push_back(column ? e->bound_index : -1);
      programs_.emplace_back(column ? nullptr : e);
      computed_ |= !column;
    }
  }

  bool NextBatchImpl(ColumnBatch* out) override {
    if (!child_->NextBatch(&input_)) return false;
    const int n = input_.size();
    const int32_t* sel = input_.sel();
    const std::vector<ColumnVector>& cols = input_.columns();
    const bool flatten = computed_ && sel != nullptr;
    out->Reset(static_cast<int>(pass_.size()));
    for (size_t j = 0; j < pass_.size(); ++j) {
      const int dst = static_cast<int>(j);
      if (pass_[j] < 0) {
        out->set_column(dst, programs_[j].Eval(cols, sel, n).view());
      } else if (flatten) {
        ColumnBuffer* buf = out->buffer(dst);
        buf->clear();
        buf->Gather(cols[pass_[j]], sel, n);
        out->UseBuffer(dst);
      } else {
        out->set_column(dst, cols[pass_[j]]);
      }
    }
    if (sel != nullptr && !flatten) {
      std::copy(sel, sel + n, out->MutableSel(n));
    }
    out->set_size(n);
    return true;
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  std::vector<int> pass_;               // input column, or -1: computed
  std::vector<ExprProgram> programs_;   // computed items
  bool computed_ = false;
  ColumnBatch input_;
};

// Drains the input into typed columns, stable-sorts row positions on the
// keys (Value::Compare order, nulls first) and hands out spans over the
// drained columns with the sorted positions as selection vectors.
class SortOp : public Operator {
 public:
  SortOp(const PhysicalNode& node, ExecContext* ctx)
      : Operator(ctx), node_(node), child_(BuildOperator(*node.children[0], ctx)) {}

  void OpenImpl() override {
    const Layout& child_layout = node_.children[0]->output;
    std::vector<int> key_idx;
    std::vector<bool> desc;
    for (const SortKey& k : node_.sort_keys) {
      int idx = child_layout.IndexOf(k.col);
      CHECK(idx >= 0) << "sort key missing";
      key_idx.push_back(idx);
      desc.push_back(k.descending);
    }
    const int rows =
        DrainColumns(child_.get(), child_layout.size(), &bufs_, &cols_);
    order_.resize(static_cast<size_t>(rows));
    std::iota(order_.begin(), order_.end(), 0);
    SortPositions(cols_, key_idx, desc, &order_);
    if (node_.limit >= 0 &&
        order_.size() > static_cast<size_t>(node_.limit)) {
      order_.resize(static_cast<size_t>(node_.limit));
    }
    map_ = MappingTo(child_layout, node_.output);
    cursor_ = 0;
  }

  bool NextBatchImpl(ColumnBatch* out) override {
    const int n = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(out->capacity()), order_.size() - cursor_));
    if (n <= 0) return false;
    out->Reset(static_cast<int>(map_.size()));
    for (size_t j = 0; j < map_.size(); ++j) {
      out->set_column(static_cast<int>(j), cols_[map_[j]]);
    }
    std::copy(order_.begin() + static_cast<std::ptrdiff_t>(cursor_),
              order_.begin() + static_cast<std::ptrdiff_t>(cursor_) + n,
              out->MutableSel(n));
    out->set_size(n);
    cursor_ += static_cast<size_t>(n);
    return true;
  }

 private:
  const PhysicalNode& node_;
  std::unique_ptr<Operator> child_;
  std::vector<ColumnBuffer> bufs_;
  std::vector<ColumnVector> cols_;
  std::vector<int32_t> order_;  // sorted (and limited) positions
  std::vector<int> map_;
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

bool Operator::NextBatch(ColumnBatch* out) {
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
    case PhysOpKind::kNlJoin:
      op = std::make_unique<MergeJoinOp>(node, ctx);
      break;
    case PhysOpKind::kIndexNlJoin:
      op = std::make_unique<IndexNlJoinOp>(node, ctx);
      break;
    case PhysOpKind::kHashAgg:
    case PhysOpKind::kStreamAgg:
      op = std::make_unique<AggregateOp>(node, ctx);
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
  ColumnBatch batch;
  while (op->NextBatch(&batch)) {
    for (int j = 0; j < batch.size(); ++j) {
      const int32_t p = batch.pos(j);
      Row row(static_cast<size_t>(batch.width()));
      for (int c = 0; c < batch.width(); ++c) {
        row[static_cast<size_t>(c)] = batch.column(c).Get(p);
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

}  // namespace subshare
