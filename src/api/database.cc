#include "api/database.h"

#include "cache/fingerprint.h"
#include "exec/naive_planner.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace subshare {

Status Database::LoadTpch(double scale_factor, uint64_t seed) {
  tpch::TpchOptions options;
  options.scale_factor = scale_factor;
  options.seed = seed;
  return tpch::LoadTpch(&catalog_, options);
}

StatusOr<Table*> Database::CreateTable(const std::string& name,
                                       Schema schema) {
  return catalog_.CreateTable(name, std::move(schema));
}

StatusOr<QueryResult> Database::Execute(const std::string& sql,
                                        const QueryOptions& options) {
  // Lazily create the owned caches when the options first ask for them,
  // then run through the shared-cache entry point.
  if (options.cache.plan_cache && plan_cache_ == nullptr) {
    plan_cache_ = std::make_unique<cache::PlanCache>(&catalog_);
  }
  if (options.cache.result_cache && result_cache_ == nullptr) {
    result_cache_ = std::make_unique<cache::ResultCache>(
        &catalog_, options.cache.result_budget_bytes);
  }
  return ExecuteWith(sql, options, plan_cache_.get(), result_cache_.get());
}

cache::BatchFingerprint Database::PlanCacheKey(
    const std::vector<sql::AstSelectPtr>& batch, const QueryOptions& options) {
  cache::BatchFingerprint fp = cache::FingerprintBatch(batch);
  // A plan optimized without CSEs must not serve a CSE-enabled request (or
  // the other way round).
  fp.text += StrFormat(";;cse=%d", options.cse.enable_cse ? 1 : 0);
  return fp;
}

StatusOr<QueryResult> Database::ExecuteWith(const std::string& sql,
                                            const QueryOptions& options,
                                            cache::PlanCache* plan_cache,
                                            cache::ResultCache* result_cache) {
  QueryResult result;
  WallTimer phase_timer;

  ASSIGN_OR_RETURN(std::vector<sql::AstSelectPtr> asts, sql::ParseBatch(sql));
  result.phases.parse_seconds = phase_timer.ElapsedSeconds();

  // EXPLAIN: any explain-flagged statement turns the whole batch into a
  // plan-only request whose single result is the rendered plan.
  bool explain = false;
  for (const sql::AstSelectPtr& ast : asts) explain |= ast->explain;

  // EXPLAIN and naive-plan runs bypass both caches: neither produces the
  // optimizer output the caches are contracts over.
  const bool caches_apply = !explain && !options.use_naive_plan;
  const bool use_plan_cache =
      caches_apply && options.cache.plan_cache && plan_cache != nullptr;
  const bool use_result_cache =
      caches_apply && options.cache.result_cache && result_cache != nullptr;

  // Fingerprint before binding: assigns each parameterized literal its slot
  // in place, which the binder threads into Expr literals so an admitted
  // plan can later be rebound.
  cache::BatchFingerprint fp;
  if (use_plan_cache) fp = PlanCacheKey(asts, options);

  ExecutablePlan plan;
  bool have_plan = false;
  if (use_plan_cache) {
    if (std::optional<cache::PlanCache::Hit> hit = plan_cache->Lookup(fp)) {
      plan = std::move(hit->plan);
      result.column_names = std::move(hit->column_names);
      result.plan_text = std::move(hit->plan_text);
      result.cache.plan_cache_hit = true;
      result.cache.plan_rebound = hit->rebound;
      have_plan = true;  // bind and optimize are skipped entirely
    }
  }

  QueryContext ctx(&catalog_);
  if (!have_plan) {
    phase_timer.Reset();
    std::vector<Statement> statements;
    statements.reserve(asts.size());
    for (const sql::AstSelectPtr& ast : asts) {
      ASSIGN_OR_RETURN(Statement stmt, sql::BindSelect(*ast, &ctx, sql));
      statements.push_back(std::move(stmt));
    }
    result.phases.bind_seconds = phase_timer.ElapsedSeconds();
    for (const Statement& s : statements) {
      result.column_names.push_back(s.output_names);
    }

    phase_timer.Reset();
    if (options.use_naive_plan) {
      plan = NaivePlanBatch(statements, &ctx);
    } else {
      CseOptimizerOptions cse_options = options.cse;
      if (use_result_cache) cse_options.result_cache = result_cache;
      CseQueryOptimizer optimizer(&ctx, cse_options);
      plan = optimizer.Optimize(statements, &result.metrics);
    }
    result.phases.optimize_seconds = phase_timer.ElapsedSeconds();
    result.plan_text = plan.ToString(ctx.Namer());

    if (use_plan_cache) {
      plan_cache->Admit(fp, plan, result.column_names, result.plan_text);
    }
  }

  if (explain) {
    result.column_names.assign(1, {"plan"});
    StatementResult text;
    for (const std::string& line : Split(result.plan_text, '\n')) {
      text.rows.push_back({Value::String(line)});
    }
    result.statements.push_back(std::move(text));
    return result;
  }

  if (options.execute) {
    phase_timer.Reset();
    ExecOptions exec = options.exec;
    if (use_result_cache) {
      exec.result_cache = result_cache;
      exec.admit_results = options.cache.admit_results;
    }
    result.statements = ExecutePlan(plan, exec, &result.execution);
    result.phases.execute_seconds = phase_timer.ElapsedSeconds();
    result.cache.spools_recycled = result.execution.spools_recycled;
    result.cache.spools_admitted = result.execution.spools_admitted;
  }
  if (plan_cache != nullptr) result.cache.plan_stats = plan_cache->stats();
  if (result_cache != nullptr) {
    result.cache.result_stats = result_cache->stats();
  }
  return result;
}

std::string Database::FormatResult(const StatementResult& result,
                                   const std::vector<std::string>& columns,
                                   int max_rows) {
  std::string out = Join(columns, " | ") + "\n";
  out += std::string(out.size() - 1, '-') + "\n";
  int shown = 0;
  for (const Row& row : result.rows) {
    if (shown++ >= max_rows) {
      out += StrFormat("... (%d rows total)\n",
                       static_cast<int>(result.rows.size()));
      return out;
    }
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Value& v : row) cells.push_back(v.ToString());
    out += Join(cells, " | ") + "\n";
  }
  out += StrFormat("(%d rows)\n", static_cast<int>(result.rows.size()));
  return out;
}

}  // namespace subshare
