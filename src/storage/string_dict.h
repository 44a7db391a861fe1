// Per-column string dictionary: deduplicated string storage addressed by
// dense int32 codes.
//
// FSST-style contract (DESIGN.md §10): after Finalize() — called by the bulk
// loaders via Column::FinalizeDict() — the dictionary is sorted, so code
// order equals value order and range predicates run directly on codes.
// Incremental appends that intern a *new* string break that ordering; the
// dictionary then serves order queries through a lazily rebuilt rank table
// (rank(code) = position of the code's value among sorted distinct values)
// until the next Finalize re-sorts and re-codes. Equality predicates run on
// raw codes in either state.
//
// The value arena is append-only between Clear()/Finalize() calls: interned
// std::string storage is stable, which is what lets batch consumers hold
// column spans and (dictionary, code) pairs while they run.
#ifndef SUBSHARE_STORAGE_STRING_DICT_H_
#define SUBSHARE_STORAGE_STRING_DICT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace subshare {

class StringDictionary {
 public:
  StringDictionary() = default;
  // Copies and moves transfer the dictionary contents but never the order
  // mutex (each instance guards its own lazy structures). Cache admission
  // copies ColumnStores wholesale, so these run on hot-ish paths.
  StringDictionary(const StringDictionary& other);
  StringDictionary& operator=(const StringDictionary& other);
  StringDictionary(StringDictionary&& other) noexcept;
  StringDictionary& operator=(StringDictionary&& other) noexcept;

  // Code of `s`, interning it if absent. Codes are dense [0, size()) in
  // insertion order; interning never changes existing codes.
  int32_t Intern(const std::string& s);

  // Code of `s`, or -1 without interning (predicate compilation).
  int32_t Find(const std::string& s) const;

  int32_t size() const { return static_cast<int32_t>(values_.size()); }
  bool empty() const { return values_.empty(); }
  const std::string& value(int32_t code) const { return values_[code]; }

  // True iff code order equals value order (identity ranks).
  bool sorted() const { return sorted_; }

  // Rank table for order predicates on an unsorted dictionary; nullptr when
  // sorted() (ranks are the identity). Stable until the next Intern of a
  // new string or Finalize.
  const int32_t* EnsureRanks() const;

  // Number of distinct values strictly less than / at most `s` — the rank
  // thresholds for range predicates.
  int32_t LowerBoundRank(const std::string& s) const;
  int32_t UpperBoundRank(const std::string& s) const;

  // Smallest / largest interned value. Dictionary must be non-empty.
  const std::string& MinValue() const;
  const std::string& MaxValue() const;

  // Re-codes the dictionary into value order and returns the old->new code
  // remap (empty when already sorted). The owner must rewrite its code
  // column through the remap. Afterwards sorted() holds.
  std::vector<int32_t> Finalize();

  void Clear();

  // Arena + index footprint in bytes (codes are accounted by the column).
  int64_t ByteSize() const;

  // A shared empty dictionary (string columns that hold only nulls).
  static const StringDictionary& Empty();

 private:
  void EnsureSortedCodes() const;
  // Build step shared by EnsureSortedCodes/EnsureRanks; caller holds
  // order_mu_.
  void BuildSortedCodesLocked() const;

  std::vector<std::string> values_;                  // code -> value
  std::unordered_map<std::string, int32_t> index_;   // value -> code
  bool sorted_ = true;  // vacuously true while empty

  // Lazy order structures for the unsorted state; empty = stale. The mutex
  // serializes the build (concurrent const readers may race to populate
  // them; the data itself is frozen while readers run — see the server's
  // shared-data lock). Once built, the vectors are immutable until the next
  // mutation, so returned pointers stay valid without holding the lock.
  mutable std::mutex order_mu_;
  mutable std::vector<int32_t> sorted_codes_;  // codes in value order
  mutable std::vector<int32_t> ranks_;         // code -> rank
};

// Translates the codes of a source dictionary into a target dictionary,
// resolving each distinct source code once rather than once per cell. The
// map restarts when the source dictionary changes; sources must stay alive
// (and append-only) while one remap serves them. One remap serves either
// Map or Find, not both.
class CodeRemap {
 public:
  // Code in `target`, interning the string if absent.
  int32_t Map(const StringDictionary& src, int32_t code,
              StringDictionary* target) {
    int32_t& mapped = Slot(src, code);
    if (mapped < 0) mapped = target->Intern(src.value(code));
    return mapped;
  }
  // Code in `target`, or -1 if it does not hold the string.
  int32_t Find(const StringDictionary& src, int32_t code,
               const StringDictionary& target) {
    int32_t& mapped = Slot(src, code);
    if (mapped == kUnknown) mapped = target.Find(src.value(code));
    return mapped;
  }

 private:
  static constexpr int32_t kUnknown = -2;

  int32_t& Slot(const StringDictionary& src, int32_t code) {
    if (&src != src_) {
      src_ = &src;
      map_.assign(static_cast<size_t>(src.size()), kUnknown);
    } else if (map_.size() < static_cast<size_t>(src.size())) {
      map_.resize(static_cast<size_t>(src.size()), kUnknown);
    }
    return map_[static_cast<size_t>(code)];
  }

  const StringDictionary* src_ = nullptr;
  std::vector<int32_t> map_;
};

}  // namespace subshare

#endif  // SUBSHARE_STORAGE_STRING_DICT_H_
