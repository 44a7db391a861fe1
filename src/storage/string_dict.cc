#include "storage/string_dict.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace subshare {

StringDictionary::StringDictionary(const StringDictionary& other) {
  std::lock_guard<std::mutex> lock(other.order_mu_);
  values_ = other.values_;
  index_ = other.index_;
  sorted_ = other.sorted_;
  sorted_codes_ = other.sorted_codes_;
  ranks_ = other.ranks_;
}

StringDictionary& StringDictionary::operator=(const StringDictionary& other) {
  if (this == &other) return *this;
  // Assignment mutates *this, so no concurrent reader may hold it; only the
  // source can be mid-lazy-build on another thread.
  std::lock_guard<std::mutex> lock(other.order_mu_);
  values_ = other.values_;
  index_ = other.index_;
  sorted_ = other.sorted_;
  sorted_codes_ = other.sorted_codes_;
  ranks_ = other.ranks_;
  return *this;
}

StringDictionary::StringDictionary(StringDictionary&& other) noexcept
    : values_(std::move(other.values_)),
      index_(std::move(other.index_)),
      sorted_(other.sorted_),
      sorted_codes_(std::move(other.sorted_codes_)),
      ranks_(std::move(other.ranks_)) {}

StringDictionary& StringDictionary::operator=(
    StringDictionary&& other) noexcept {
  if (this == &other) return *this;
  values_ = std::move(other.values_);
  index_ = std::move(other.index_);
  sorted_ = other.sorted_;
  sorted_codes_ = std::move(other.sorted_codes_);
  ranks_ = std::move(other.ranks_);
  return *this;
}

int32_t StringDictionary::Intern(const std::string& s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  int32_t code = static_cast<int32_t>(values_.size());
  values_.push_back(s);
  index_.emplace(s, code);
  // A new value appended after a smaller one breaks code-order = value-order.
  if (sorted_ && code > 0 && values_[code - 1] > s) sorted_ = false;
  sorted_codes_.clear();
  ranks_.clear();
  return code;
}

int32_t StringDictionary::Find(const std::string& s) const {
  auto it = index_.find(s);
  return it == index_.end() ? -1 : it->second;
}

void StringDictionary::BuildSortedCodesLocked() const {
  if (!sorted_codes_.empty() || values_.empty()) return;
  sorted_codes_.resize(values_.size());
  for (int32_t c = 0; c < size(); ++c) sorted_codes_[c] = c;
  std::sort(sorted_codes_.begin(), sorted_codes_.end(),
            [this](int32_t a, int32_t b) { return values_[a] < values_[b]; });
}

void StringDictionary::EnsureSortedCodes() const {
  // Serialize the lazy build: concurrent const readers (index builds, range
  // predicates on the same frozen column) may race here. After the build
  // the vectors are immutable until the next mutation, so callers read them
  // lock-free.
  std::lock_guard<std::mutex> lock(order_mu_);
  BuildSortedCodesLocked();
}

const int32_t* StringDictionary::EnsureRanks() const {
  if (sorted_) return nullptr;
  std::lock_guard<std::mutex> lock(order_mu_);
  if (ranks_.empty()) {
    BuildSortedCodesLocked();
    ranks_.resize(values_.size());
    for (int32_t r = 0; r < size(); ++r) ranks_[sorted_codes_[r]] = r;
  }
  return ranks_.data();
}

int32_t StringDictionary::LowerBoundRank(const std::string& s) const {
  if (sorted_) {
    auto it = std::lower_bound(values_.begin(), values_.end(), s);
    return static_cast<int32_t>(it - values_.begin());
  }
  EnsureSortedCodes();
  auto it = std::lower_bound(
      sorted_codes_.begin(), sorted_codes_.end(), s,
      [this](int32_t code, const std::string& v) { return values_[code] < v; });
  return static_cast<int32_t>(it - sorted_codes_.begin());
}

int32_t StringDictionary::UpperBoundRank(const std::string& s) const {
  if (sorted_) {
    auto it = std::upper_bound(values_.begin(), values_.end(), s);
    return static_cast<int32_t>(it - values_.begin());
  }
  EnsureSortedCodes();
  auto it = std::upper_bound(
      sorted_codes_.begin(), sorted_codes_.end(), s,
      [this](const std::string& v, int32_t code) { return v < values_[code]; });
  return static_cast<int32_t>(it - sorted_codes_.begin());
}

const std::string& StringDictionary::MinValue() const {
  DCHECK(!values_.empty());
  if (sorted_) return values_.front();
  EnsureSortedCodes();
  return values_[sorted_codes_.front()];
}

const std::string& StringDictionary::MaxValue() const {
  DCHECK(!values_.empty());
  if (sorted_) return values_.back();
  EnsureSortedCodes();
  return values_[sorted_codes_.back()];
}

std::vector<int32_t> StringDictionary::Finalize() {
  if (sorted_) return {};
  EnsureSortedCodes();
  std::vector<int32_t> remap(values_.size());
  std::vector<std::string> sorted_values(values_.size());
  for (int32_t r = 0; r < size(); ++r) {
    remap[sorted_codes_[r]] = r;
    sorted_values[r] = std::move(values_[sorted_codes_[r]]);
  }
  values_ = std::move(sorted_values);
  for (int32_t c = 0; c < size(); ++c) index_[values_[c]] = c;
  sorted_ = true;
  sorted_codes_.clear();
  ranks_.clear();
  return remap;
}

void StringDictionary::Clear() {
  values_.clear();
  index_.clear();
  sorted_ = true;
  sorted_codes_.clear();
  ranks_.clear();
}

const StringDictionary& StringDictionary::Empty() {
  static const StringDictionary* empty = new StringDictionary();
  return *empty;
}

int64_t StringDictionary::ByteSize() const {
  int64_t bytes = 0;
  for (const std::string& v : values_) {
    bytes += static_cast<int64_t>(sizeof(std::string)) +
             static_cast<int64_t>(v.capacity() > sizeof(std::string)
                                      ? v.capacity()
                                      : 0);  // SSO payload is inline
  }
  // Hash index: bucket + node overhead, coarse but stable.
  bytes += static_cast<int64_t>(index_.size()) *
           static_cast<int64_t>(sizeof(void*) * 4);
  return bytes;
}

}  // namespace subshare
