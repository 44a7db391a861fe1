#include "testing/cache_differential.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "cache/fingerprint.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace subshare::testing {

int64_t MaxEstimatedRows(const std::string& plan_text) {
  int64_t max_rows = 0;
  size_t pos = 0;
  while ((pos = plan_text.find("rows=", pos)) != std::string::npos) {
    pos += 5;
    int64_t rows = 0;
    while (pos < plan_text.size() && plan_text[pos] >= '0' &&
           plan_text[pos] <= '9') {
      rows = rows * 10 + (plan_text[pos] - '0');
      ++pos;
    }
    max_rows = std::max(max_rows, rows);
  }
  return max_rows;
}

bool SameResults(const QueryResult& a, const QueryResult& b,
                 std::string* why) {
  if (a.statements.size() != b.statements.size()) {
    *why = "statement count differs";
    return false;
  }
  for (size_t s = 0; s < a.statements.size(); ++s) {
    std::string detail;
    if (!SameRowMultiset(a.statements[s].rows, b.statements[s].rows, &detail)) {
      *why = StrFormat("statement %zu: %s", s, detail.c_str());
      return false;
    }
  }
  return true;
}

CacheDifferentialTester::CacheDifferentialTester(Database* db, uint64_t seed,
                                                 CacheDiffOptions options)
    : db_(db), options_(std::move(options)), rng_(seed) {}

std::optional<Divergence> CacheDifferentialTester::Check(
    const std::string& sql) {
  QueryOptions naive;
  naive.use_naive_plan = true;
  QueryOptions plain;
  plain.cse = options_.cse;
  QueryOptions cached = plain;
  cached.cache.plan_cache = true;
  cached.cache.result_cache = true;
  cached.cache.result_budget_bytes = options_.result_budget_bytes;

  auto fail = [&](const std::string& kind, const std::string& detail) {
    Divergence d;
    d.sql = sql;
    d.original_sql = sql;
    d.kind = kind;
    d.detail = detail;
    return d;
  };

  // Pre-screen with a plan-only probe: the checker executes the batch seven
  // times, so skip batches whose plan estimates a blow-up anywhere. The
  // probe optimizes with caches off (naive plans carry no estimates).
  QueryOptions probe = plain;
  probe.execute = false;
  auto planned = db_->Execute(sql, probe);
  if (!planned.ok()) return std::nullopt;  // bind error: cannot diverge
  if (MaxEstimatedRows(planned->plan_text) > options_.max_estimated_rows) {
    ++batches_skipped_;
    return std::nullopt;
  }

  auto reference = db_->Execute(sql, naive);
  if (!reference.ok()) return std::nullopt;
  ++batches_checked_;
  statements_checked_ +=
      static_cast<int64_t>(reference->statements.size());

  struct Config {
    const char* name;
    const QueryOptions* options;
  };
  // Cold cached run populates both caches; the second cached run must be a
  // warm plan-cache hit since nothing changed in between.
  const Config configs[] = {{"cse", &plain},
                            {"cached-cold", &cached},
                            {"cached-warm", &cached}};
  for (const Config& config : configs) {
    auto run = db_->Execute(sql, *config.options);
    if (!run.ok()) {
      return fail("error", StrFormat("%s failed: %s", config.name,
                                     run.status().ToString().c_str()));
    }
    std::string why;
    if (!SameResults(*reference, *run, &why)) {
      return fail("cache-mismatch",
                  StrFormat("naive vs %s: %s", config.name, why.c_str()));
    }
    if (std::string(config.name) == "cached-warm") {
      if (!run->cache.plan_cache_hit) {
        return fail("cache-behavior",
                    "warm repeat missed the plan cache with no intervening "
                    "catalog change");
      }
      ++plan_hits_seen_;
      if (run->cache.spools_recycled > 0) ++recycled_runs_seen_;
    }
  }

  // Interleaved insert: duplicate a random row of a base table, preferring
  // one the batch reads so invalidation is actually exercised.
  auto parsed = sql::ParseBatch(sql);
  std::vector<std::string> read_tables;
  if (parsed.ok()) read_tables = cache::FingerprintBatch(*parsed).tables;
  Table* target = nullptr;
  if (!read_tables.empty() &&
      rng_.NextDouble() < options_.insert_hits_read_table) {
    target = db_->catalog().GetTable(
        read_tables[rng_.Uniform(0, read_tables.size() - 1)]);
  }
  if (target == nullptr || target->row_count() == 0) {
    std::vector<Table*> bases;
    for (const auto& t : db_->catalog().tables()) {
      if (t != nullptr && t->row_count() > 0 &&
          !db_->catalog().IsDeltaTable(t->id())) {
        bases.push_back(t.get());
      }
    }
    if (bases.empty()) return std::nullopt;
    target = bases[rng_.Uniform(0, bases.size() - 1)];
  }
  target->AppendRow(
      target->GetRow(rng_.Uniform(0, target->row_count() - 1)));
  target->ComputeStats();

  // The caches must not serve anything staled by the insert: the cached
  // configuration has to match a fresh naive reference.
  auto reference2 = db_->Execute(sql, naive);
  if (!reference2.ok()) {
    return fail("error", "naive re-run failed after insert");
  }
  auto post = db_->Execute(sql, cached);
  if (!post.ok()) {
    return fail("error", StrFormat("cached re-run failed after insert: %s",
                                   post.status().ToString().c_str()));
  }
  std::string why;
  if (!SameResults(*reference2, *post, &why)) {
    return fail("stale-cache",
                StrFormat("after insert into %s: %s",
                          target->name().c_str(), why.c_str()));
  }
  return std::nullopt;
}

}  // namespace subshare::testing
