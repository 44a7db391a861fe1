// End-to-end benchmark driver. README.md in this directory describes the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric on which workload.
//
//   subshare_perfbench --workload <mqo_batch|report_exec|server_mixed>
//       --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//   subshare_perfbench --selftest
//
// One workload runs per process, so setup_s and peak_rss_mb belong to it.
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) spend half the time untraced and half driving each layer's
// public functions under spans, and print the per-layer metrics. Human
// readable lines come first; the last line of stdout is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "cache/fingerprint.h"
#include "report.h"
#include "server/server.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "trace.h"
#include "util/string_util.h"
#include "workloads.h"

namespace subshare::perfbench {

int SelfTest();  // selftest.cc

namespace {

constexpr int kSetupRepeats = 11;
constexpr int kMqoStatements = 300;
// Distinct mqo batches per run: plan choice and cost vary with the seed
// (plan_cost_ratio 0.48-0.52, batch_p50_ms with it), and a pool averages
// that out. Session s starts at pool entry s.
constexpr int kMqoPool = 3;
constexpr int kReportStatements = 10;
constexpr int kReportPool = 4;       // distinct report batches per run
constexpr int kServerVariants = 3;   // literal variants per server shape
constexpr int kReaders = 2;
// Pause between a reader's batches. Without it the two readers keep the
// reader-preferring data lock held almost continuously and an append waits
// for seconds behind them.
constexpr auto kReaderThink = std::chrono::milliseconds(2);
// Reader popularity of the twelve cores, hottest first: the four cores
// without orders/lineitem (never invalidated by appends) take ~72% of the
// Zipf(1) requests; the rest see invalidations and misses.
const int kCoresByPopularity[] = {6, 7, 8, 9, 3, 11, 2, 4, 0, 1, 5, 10};
constexpr double kAppendsPerSecond = 2;
// Uncontended append probe of mqo_batch and report_exec: each probe
// append carries kProbeOrders generated orders with their line items, so a
// sample is tens of microseconds of work rather than a few microseconds of
// timer noise.
constexpr int kProbeAppends = 200;
constexpr int kProbeOrders = 16;
constexpr double kProbeIntervalSeconds = 0.005;

struct Workload {
  const char* name;
  double scale_factor;
  int sessions;  // closed-loop reader sessions
};
// mqo_batch runs three sessions: the shared host's speed drifts by up to
// 1.7x over tens of seconds, partly independently per core, and three
// cores sample that drift three times as often as one. With one session
// the run-to-run spread of batch_p50_ms was 0.22-0.30.
const Workload kWorkloads[] = {{"mqo_batch", 0.005, 3},
                               {"report_exec", 0.05, 1},
                               {"server_mixed", 0.02, kReaders}};

// Per-layer metrics printed by traced runs, in order. Every workload prints
// all of them; a layer a workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const char* const kOpKinds[] = {"HashJoin",    "HashAgg",   "TableScan",
                                "IndexScan",   "IndexNLJoin", "SpoolScan",
                                "Sort",        "Project",   "Filter"};
const LayerMetric kLayerMetrics[] = {
    {"tpch.load_s", "s"},
    {"sql.parse_ms", "ms"},
    {"sql.bind_ms", "ms"},
    {"optimizer.step1_ms", "ms"},
    {"optimizer.memo_groups", "count"},
    {"optimizer.plan_computations", "count"},
    {"core.optimize_ms", "ms"},
    {"core.step2_ms", "ms"},
    {"core.step3_ms", "ms"},
    {"core.sharable_sets", "count"},
    {"core.candidates_generated", "count"},
    {"core.candidates_kept", "count"},
    {"core.candidates_dropped", "count"},
    {"core.alg1_merges", "count"},
    {"core.alg1_accept_ratio", "ratio"},
    {"core.cse_optimizations", "count"},
    {"core.used_cses", "count"},
    {"core.used_per_kept", "ratio"},
    {"exec.execute_ms", "ms"},
    {"exec.spool_ms", "ms"},
    {"exec.op.HashJoin_self_ms", "ms"},
    {"exec.op.HashAgg_self_ms", "ms"},
    {"exec.op.TableScan_self_ms", "ms"},
    {"exec.op.IndexScan_self_ms", "ms"},
    {"exec.op.IndexNLJoin_self_ms", "ms"},
    {"exec.op.SpoolScan_self_ms", "ms"},
    {"exec.op.Sort_self_ms", "ms"},
    {"exec.op.Project_self_ms", "ms"},
    {"exec.op.Filter_self_ms", "ms"},
    {"exec.rows_scanned", "count"},
    {"exec.rows_spooled", "count"},
    {"exec.spool_rows_read", "count"},
    {"exec.spool_bytes", "bytes"},
    {"exec.probe_keys", "count"},
    {"exec.rows_scanned_per_row_out", "ratio"},
    {"cache.fingerprint_ms", "ms"},
    {"cache.plan_hit_ratio", "ratio"},
    {"cache.plan_rebind_ratio", "ratio"},
    {"cache.plan_invalidations", "count"},
    {"cache.result_hit_ratio", "ratio"},
    {"cache.result_invalidations", "count"},
    {"cache.result_evictions", "count"},
    {"cache.result_rejected", "count"},
    {"cache.result_bytes", "bytes"},
    {"server.execute_ms", "ms"},
    {"server.outside_phases_ms", "ms"},
    {"server.append_ms", "ms"},
    {"server.append_lateness_ms", "ms"},
    {"server.plan_hits", "count"},
    {"server.plan_rebinds", "count"},
    {"server.spools_recycled", "count"},
    {"server.spools_admitted", "count"},
    {"server.appends", "count"},
    {"trace.batch_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  bool selftest = false;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Sleeps until shortly before `t`, then spins, so an event starts on time.
void WaitUntil(Clock::time_point t) {
  std::this_thread::sleep_until(t - std::chrono::milliseconds(1));
  while (Clock::now() < t) {
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Runs work(0..n-1) on `threads` threads (the correctness checks: the
// naive reference plans dominate a run's untimed time).
void ParallelFor(int n, int threads, const std::function<void(int)>& work) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = next++; i < n; i = next++) work(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// Per-request samples of the per-layer metrics; each is reported as the
// median over the requests that produced it.
class Layers {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  void Set(const std::string& name, double value) { samples_[name] = {value}; }
  void Merge(const Layers& other) {
    for (const auto& [name, values] : other.samples_) {
      std::vector<double>& mine = samples_[name];
      mine.insert(mine.end(), values.begin(), values.end());
    }
  }
  double Value(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0 : Median(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

void AddCoreLayers(const CseMetrics& m, double optimize_ms, double step1_ms,
                   Layers* layers) {
  double step3_ms = m.enumerate_seconds * 1e3;
  double accepted = 0;
  for (const OptTrace::Merge& merge : m.trace.merges) accepted += merge.accepted;
  layers->Add("core.optimize_ms", optimize_ms);
  layers->Add("core.step3_ms", step3_ms);
  if (step1_ms > 0) {
    layers->Add("core.step2_ms",
                std::max(0.0, optimize_ms - step1_ms - step3_ms));
  }
  layers->Add("core.sharable_sets", m.sharable_sets);
  layers->Add("core.candidates_generated", m.candidates_generated);
  layers->Add("core.candidates_kept", m.candidates_after_pruning);
  layers->Add("core.candidates_dropped",
              static_cast<double>(m.trace.candidates_dropped));
  layers->Add("core.alg1_merges", static_cast<double>(m.trace.merges.size()));
  layers->Add("core.alg1_accept_ratio",
              Ratio(accepted, static_cast<double>(m.trace.merges.size())));
  layers->Add("core.cse_optimizations", m.cse_optimizations);
  layers->Add("core.used_cses", m.used_cses);
  layers->Add("core.used_per_kept",
              Ratio(m.used_cses, m.candidates_after_pruning));
}

// Executor counters plus per-kind operator self time: an operator's
// inclusive Open+Next time minus that of its direct children (operators
// are listed in pre-order with their depth).
void AddExecLayers(const ExecutionMetrics& m, double execute_ms,
                   const std::vector<StatementResult>& results,
                   Layers* layers) {
  std::map<std::string, double> self_ms;
  double spool_ms = 0;
  const std::vector<OperatorMetrics>& ops = m.operators;
  for (size_t i = 0; i < ops.size(); ++i) {
    double inclusive = static_cast<double>(ops[i].open_ns + ops[i].next_ns);
    double children = 0;
    for (size_t j = i + 1; j < ops.size() && ops[j].phase == ops[i].phase &&
                           ops[j].depth > ops[i].depth;
         ++j) {
      if (ops[j].depth == ops[i].depth + 1) {
        children += static_cast<double>(ops[j].open_ns + ops[j].next_ns);
      }
    }
    self_ms[ops[i].op] += std::max(0.0, inclusive - children) / 1e6;
    if (ops[i].depth == 0 && ops[i].phase.rfind("cse", 0) == 0) {
      spool_ms += inclusive / 1e6;
    }
  }
  double rows_out = 0;
  for (const StatementResult& r : results) {
    rows_out += static_cast<double>(r.rows.size());
  }
  layers->Add("exec.execute_ms", execute_ms);
  layers->Add("exec.spool_ms", spool_ms);
  for (const char* kind : kOpKinds) {
    layers->Add(StrFormat("exec.op.%s_self_ms", kind), self_ms[kind]);
  }
  layers->Add("exec.rows_scanned", static_cast<double>(m.rows_scanned));
  layers->Add("exec.rows_spooled", static_cast<double>(m.rows_spooled));
  layers->Add("exec.spool_rows_read", static_cast<double>(m.spool_rows_read));
  layers->Add("exec.spool_bytes", static_cast<double>(m.spool_bytes));
  layers->Add("exec.probe_keys", static_cast<double>(m.probe_keys));
  layers->Add("exec.rows_scanned_per_row_out",
              Ratio(static_cast<double>(m.rows_scanned), rows_out));
}

// Times cache::FingerprintBatch on a freshly parsed copy of `sql`.
void AddFingerprintLayer(const std::string& sql, int64_t batch,
                         Tracer* tracer, Layers* layers) {
  StatusOr<std::vector<sql::AstSelectPtr>> asts = sql::ParseBatch(sql);
  if (!asts.ok()) return;
  int span = tracer->Begin("cache.fingerprint", batch);
  cache::BatchFingerprint fp = cache::FingerprintBatch(*asts);
  tracer->End(span);
  if (fp.text.empty()) Die("empty fingerprint");
  layers->Add("cache.fingerprint_ms", tracer->DurationMs(span));
}

// Loads TPC-H and starts a server kSetupRepeats times, keeping the last.
struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<server::Server> server;  // declared after db: dies first
  std::vector<double> setup_s;
  std::vector<double> load_s;
};

void SetUp(double scale_factor, Env* env) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    env->server.reset();
    env->db.reset();
    Clock::time_point start = Clock::now();
    auto db = std::make_unique<Database>();
    Status status = db->LoadTpch(scale_factor);
    if (!status.ok()) Die("LoadTpch: " + status.ToString());
    Clock::time_point loaded = Clock::now();
    auto server = std::make_unique<server::Server>(db.get());
    env->setup_s.push_back(Seconds(Clock::now() - start));
    env->load_s.push_back(Seconds(loaded - start));
    env->db = std::move(db);
    env->server = std::move(server);
  }
}

int64_t QueryInt(Database* db, const std::string& sql) {
  StatusOr<QueryResult> r = db->Execute(sql);
  if (!r.ok() || r->statements.empty() || r->statements[0].rows.empty()) {
    Die("setup query failed: " + sql);
  }
  return static_cast<int64_t>(r->statements[0].rows[0][0].AsDouble());
}

AppendGenerator MakeAppendGenerator(Database* db, uint64_t seed) {
  return AppendGenerator(
      seed, QueryInt(db, "select max(o_orderkey) as k from orders") + 1,
      QueryInt(db, "select count(*) as n from customer"),
      QueryInt(db, "select count(*) as n from part"),
      QueryInt(db, "select count(*) as n from supplier"));
}

bool AppendEventTo(server::Session* session, const AppendEvent& event) {
  return session->Append("orders", event.orders).ok() &&
         session->Append("lineitem", event.lineitems).ok();
}

// ---------------------------------------------------------------------------
// mqo_batch and report_exec: sessions in a closed loop over a pool of
// seeded batches, caches off, through Database::Execute.

QueryOptions UncachedOptions() {
  QueryOptions options;
  options.cse.strategy = EnumerationStrategy::kExhaustive;
  return options;
}

struct PoolBatch {
  std::vector<std::string> statements;
  std::string sql;  // statements joined with "; "
  // Written by every session, under `mu`.
  std::mutex mu;
  int64_t ok_runs = 0;
  bool have_result = false;
  std::vector<StatementResult> result;  // first successful run
  double final_cost = 0;
  double normal_cost = 0;
};

void Remember(PoolBatch* b, std::vector<StatementResult>* statements,
              const CseMetrics& metrics) {
  std::lock_guard<std::mutex> lock(b->mu);
  ++b->ok_runs;
  if (b->have_result) return;
  b->have_result = true;
  b->result = std::move(*statements);
  b->final_cost = metrics.final_cost;
  b->normal_cost = metrics.normal_cost;
}

struct Phase {
  std::vector<double> batch_ms;
  double seconds = 0;
};

// One batch through the uncached path of Database::ExecuteWith, driven
// layer by layer: ParseBatch -> BindSelect -> Optimize -> ExecutePlan.
// Step 1 alone (Optimize with enable_cse=false on a second binding) and the
// fingerprint are timed after the batch span, outside its latency.
bool TracedBatch(Database* db, PoolBatch* b, int64_t batch, Tracer* tracer,
                 Layers* layers, double* latency_ms) {
  const QueryOptions options = UncachedOptions();
  int root = tracer->Begin("batch", batch);
  int span = tracer->Begin("sql.parse", batch, root);
  StatusOr<std::vector<sql::AstSelectPtr>> asts = sql::ParseBatch(b->sql);
  tracer->End(span);
  const int parse_span = span;
  if (!asts.ok()) return false;
  int bind_span = -1;
  int optimize_span = -1;
  int execute_span = -1;
  CseMetrics metrics;
  ExecutionMetrics exec_metrics;
  std::vector<StatementResult> results;
  {  // Like ExecuteWith, the plan and context die inside the batch span.
    QueryContext ctx(&db->catalog());
    std::vector<Statement> statements;
    bind_span = tracer->Begin("sql.bind", batch, root);
    for (const sql::AstSelectPtr& ast : *asts) {
      StatusOr<Statement> stmt = sql::BindSelect(*ast, &ctx, b->sql);
      if (!stmt.ok()) return false;
      statements.push_back(std::move(*stmt));
    }
    tracer->End(bind_span);
    optimize_span = tracer->Begin("core.optimize", batch, root);
    CseQueryOptimizer optimizer(&ctx, options.cse);
    ExecutablePlan plan = optimizer.Optimize(statements, &metrics);
    tracer->End(optimize_span);
    span = tracer->Begin("api.plan_text", batch, root);
    std::string plan_text = plan.ToString(ctx.Namer());
    tracer->End(span);
    execute_span = tracer->Begin("exec.execute", batch, root);
    results = ExecutePlan(plan, options.exec, &exec_metrics);
    tracer->End(execute_span);
  }
  tracer->End(root);
  *latency_ms = tracer->DurationMs(root);

  // Step 1 alone, on its own binding of the same statements.
  QueryContext step1_ctx(&db->catalog());
  std::vector<Statement> step1_statements;
  for (const sql::AstSelectPtr& ast : *asts) {
    StatusOr<Statement> stmt = sql::BindSelect(*ast, &step1_ctx, b->sql);
    if (!stmt.ok()) return false;
    step1_statements.push_back(std::move(*stmt));
  }
  CseOptimizerOptions step1_options = options.cse;
  step1_options.enable_cse = false;
  CseQueryOptimizer step1(&step1_ctx, step1_options);
  CseMetrics step1_metrics;
  span = tracer->Begin("optimizer.step1", batch);
  step1.Optimize(step1_statements, &step1_metrics);
  tracer->End(span);
  double step1_ms = tracer->DurationMs(span);
  layers->Add("optimizer.step1_ms", step1_ms);
  layers->Add("optimizer.memo_groups", step1.optimizer().memo().num_groups());
  layers->Add("optimizer.plan_computations",
              static_cast<double>(step1_metrics.plan_computations));
  AddFingerprintLayer(b->sql, batch, tracer, layers);

  layers->Add("sql.parse_ms", tracer->DurationMs(parse_span));
  layers->Add("sql.bind_ms", tracer->DurationMs(bind_span));
  AddCoreLayers(metrics, tracer->DurationMs(optimize_span), step1_ms, layers);
  AddExecLayers(exec_metrics, tracer->DurationMs(execute_span), results,
                layers);
  Remember(b, &results, metrics);
  return true;
}

// One closed-loop session's outcome, spans and samples.
struct LoopState {
  Outcome outcome;
  Tracer tracer;
  Layers layers;
  Phase untraced;
  Phase traced;
};

// One session's closed loop over the pool until `deadline`, starting at
// pool entry `first`. With `trace`, whole passes over the pool alternate
// between Database::Execute and the traced layer-by-layer path, so both
// see the same batches and the same machine conditions.
void ClosedLoop(Database* db, std::vector<PoolBatch>* pool, size_t first,
                Clock::time_point deadline, bool trace, int64_t batch_base,
                LoopState* st) {
  const QueryOptions options = UncachedOptions();
  Clock::time_point start = Clock::now();
  for (int64_t n = 0; Clock::now() < deadline; ++n) {
    PoolBatch& b = (*pool)[(first + static_cast<size_t>(n)) % pool->size()];
    if (trace && (n / static_cast<int64_t>(pool->size())) % 2 == 1) {
      double latency_ms = 0;
      bool ok = TracedBatch(db, &b, batch_base + n, &st->tracer, &st->layers,
                            &latency_ms);
      st->outcome.Add(ok);
      if (ok) st->traced.batch_ms.push_back(latency_ms);
      continue;
    }
    Clock::time_point t0 = Clock::now();
    StatusOr<QueryResult> r = db->Execute(b.sql, options);
    Clock::time_point t1 = Clock::now();
    st->outcome.Add(r.ok());
    if (!r.ok()) {
      std::fprintf(stderr, "batch error: %s\n", r.status().ToString().c_str());
      continue;
    }
    st->untraced.batch_ms.push_back(Millis(t1 - t0));
    Remember(&b, &r->statements, r->metrics);
  }
  st->untraced.seconds = Seconds(Clock::now() - start);
}

// Runs `sessions` closed loops on their own threads until `seconds` have
// passed (each finishes the batch it is in); returns their merged state
// and, in `spans`, each session's spans.
LoopState ClosedLoops(Database* db, std::vector<PoolBatch>* pool, int sessions,
                      double seconds, bool trace,
                      std::vector<std::vector<Span>>* spans) {
  std::vector<LoopState> states(sessions);
  std::vector<std::thread> threads;
  Clock::time_point deadline = Clock::now() + ToDuration(seconds);
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back(ClosedLoop, db, pool, static_cast<size_t>(s),
                         deadline, trace, int64_t{s} * 1000000000, &states[s]);
  }
  for (std::thread& t : threads) t.join();
  LoopState merged = std::move(states[0]);
  spans->push_back(merged.tracer.spans());
  for (int s = 1; s < sessions; ++s) {
    LoopState& st = states[s];
    spans->push_back(st.tracer.spans());
    merged.outcome.Merge(st.outcome);
    merged.layers.Merge(st.layers);
    std::vector<double>& untraced = merged.untraced.batch_ms;
    untraced.insert(untraced.end(), st.untraced.batch_ms.begin(),
                    st.untraced.batch_ms.end());
    std::vector<double>& traced = merged.traced.batch_ms;
    traced.insert(traced.end(), st.traced.batch_ms.begin(),
                  st.traced.batch_ms.end());
    merged.untraced.seconds =
        std::max(merged.untraced.seconds, st.untraced.seconds);
  }
  return merged;
}

// Compares the first result of every pool batch that ran against the naive
// planner, statement by statement on kCheckThreads threads (no other work
// runs then); a mismatch fails every run of that batch.
constexpr int kCheckThreads = 3;

void CheckPool(Database* db, const std::vector<PoolBatch>& pool,
               Outcome* outcome) {
  std::vector<std::pair<size_t, size_t>> tasks;  // (batch, statement)
  for (size_t b = 0; b < pool.size(); ++b) {
    if (!pool[b].have_result) continue;
    for (size_t s = 0; s < pool[b].statements.size(); ++s) {
      tasks.emplace_back(b, s);
    }
  }
  std::vector<char> wrong(tasks.size(), 0);
  ParallelFor(static_cast<int>(tasks.size()), kCheckThreads, [&](int i) {
    const auto [b, s] = tasks[i];
    QueryOptions naive;
    naive.use_naive_plan = true;
    StatusOr<QueryResult> reference =
        db->Execute(pool[b].statements[s], naive);
    std::string why = reference.ok() ? "" : reference.status().ToString();
    if (!reference.ok() ||
        pool[b].result.size() != pool[b].statements.size() ||
        !SameResults({pool[b].result[s]}, reference->statements, &why)) {
      std::fprintf(stderr, "wrong result: %s\n  sql: %.200s\n", why.c_str(),
                   pool[b].statements[s].c_str());
      wrong[i] = 1;
    }
  });
  std::vector<char> batch_wrong(pool.size(), 0);
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (wrong[i]) batch_wrong[tasks[i].first] = 1;
  }
  for (size_t b = 0; b < pool.size(); ++b) {
    if (batch_wrong[b]) outcome->failed += pool[b].ok_runs;
  }
}

// Open loop of kProbeAppends appends on an idle server: the write path
// (exclusive data lock, row appends, version bumps) without readers.
OpenLoop AppendProbe(Env* env, uint64_t seed, Outcome* outcome) {
  AppendGenerator gen = MakeAppendGenerator(env->db.get(), seed);
  std::unique_ptr<server::Session> session = env->server->Connect("appender");
  OpenLoop loop(Clock::now() + std::chrono::milliseconds(5),
                kProbeIntervalSeconds);
  for (int64_t i = 0; i < kProbeAppends; ++i) {
    AppendEvent event;
    for (int k = 0; k < kProbeOrders; ++k) {
      AppendEvent one = gen.Next();
      event.orders.insert(event.orders.end(), one.orders.begin(),
                          one.orders.end());
      event.lineitems.insert(event.lineitems.end(), one.lineitems.begin(),
                             one.lineitems.end());
    }
    Clock::time_point due = loop.Due(i);
    WaitUntil(due);
    Clock::time_point started = Clock::now();
    bool ok = AppendEventTo(session.get(), event);
    loop.Record(due, started, Clock::now());
    outcome->Add(ok);
  }
  return loop;
}

struct CostSums {
  double final_cost = 0;
  double normal_cost = 0;
};

void AddEndToEnd(const std::vector<double>& setup_s,
                 const std::vector<double>& batch_ms, double batches_per_s,
                 const OpenLoop& appends, const CostSums& costs,
                 double peak_rss_mb, const Outcome& outcome, Report* report) {
  Tail batch_tail = TailPercentile(batch_ms);
  Tail append_tail = TailPercentile(appends.latency_ms());
  report->Note(StrFormat("batch_tail_ms is p%.1f of %lld batches (%lld beyond)",
                         batch_tail.percentile,
                         static_cast<long long>(batch_tail.samples),
                         static_cast<long long>(batch_tail.beyond)));
  report->Note(StrFormat(
      "append_p50_ms %.6f ms, append_tail_ms %.6f ms (p%.1f of %lld "
      "appends, %lld beyond); generator lateness p50 %.3f ms, max %.3f ms",
      Median(appends.latency_ms()), append_tail.value, append_tail.percentile,
      static_cast<long long>(append_tail.samples),
      static_cast<long long>(append_tail.beyond),
      Median(appends.lateness_ms()),
      appends.lateness_ms().empty()
          ? 0.0
          : *std::max_element(appends.lateness_ms().begin(),
                              appends.lateness_ms().end())));
  report->Note(StrFormat("failed_frac %.6f ratio (%lld of %lld attempted)",
                         outcome.FailedFraction(),
                         static_cast<long long>(outcome.failed),
                         static_cast<long long>(outcome.attempted)));
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("batch_p50_ms", Median(batch_ms), "ms");
  report->Add("batch_tail_ms", batch_tail.value, "ms");
  report->Add("batches_per_s", batches_per_s, "1/s");
  report->Add("plan_cost_ratio", Ratio(costs.final_cost, costs.normal_cost),
              "ratio");
  report->Add("peak_rss_mb", peak_rss_mb, "MiB");
}

void AddLayerMetrics(const Layers& layers, Report* report) {
  for (const LayerMetric& m : kLayerMetrics) {
    report->Add(m.name, layers.Value(m.name), m.unit);
  }
}

void NoteSelfTimes(const std::vector<std::vector<Span>>& per_thread,
                   int64_t batches, Report* report) {
  std::map<std::string, double> total;
  for (const std::vector<Span>& spans : per_thread) {
    for (const auto& [name, ms] : SelfTimeByName(spans)) total[name] += ms;
  }
  for (const auto& [name, ms] : total) {
    report->Note(StrFormat("self time %-22s %12.4f ms/batch", name.c_str(),
                           ms / static_cast<double>(std::max<int64_t>(
                                    1, batches))));
  }
}

void WriteSpanFile(const Args& args, Clock::time_point origin,
                   const std::vector<std::vector<Span>>& spans,
                   Report* report) {
  if (args.spans_path.empty()) return;
  if (!WriteSpans(args.spans_path, origin, spans)) {
    Die("cannot write " + args.spans_path);
  }
  report->Note("spans written to " + args.spans_path);
}

int RunUncached(const Args& args, const Workload& w) {
  Clock::time_point origin = Clock::now();
  Env env;
  SetUp(w.scale_factor, &env);
  const bool mqo = std::strcmp(w.name, "mqo_batch") == 0;
  std::vector<PoolBatch> pool(mqo ? kMqoPool : kReportPool);
  for (size_t i = 0; i < pool.size(); ++i) {
    uint64_t seed = MixSeed(args.seed, i);
    pool[i].statements = mqo ? MqoBatch(seed, kMqoStatements)
                             : ReportBatch(seed, kReportStatements);
    pool[i].sql = Join(pool[i].statements, "; ");
  }
  {  // Warm-up (untimed): first touches of lazily built state.
    StatusOr<QueryResult> r =
        env.db->Execute(pool[0].sql, UncachedOptions());
    if (!r.ok()) Die("warm-up batch failed: " + r.status().ToString());
  }

  Report report;
  std::vector<std::vector<Span>> spans;
  LoopState loops = ClosedLoops(env.db.get(), &pool, w.sessions, args.seconds,
                                args.trace, &spans);
  Outcome& outcome = loops.outcome;
  Layers& layers = loops.layers;
  const Phase& untraced = loops.untraced;
  const Phase& traced = loops.traced;
  const double peak_rss_mb = PeakRssMb();  // before the reference plans
  CheckPool(env.db.get(), pool, &outcome);
  OpenLoop appends = AppendProbe(&env, args.seed, &outcome);

  CostSums costs;
  for (const PoolBatch& b : pool) {
    if (!b.have_result) continue;
    costs.final_cost += b.final_cost;
    costs.normal_cost += b.normal_cost;
  }
  report.Note(StrFormat("workload %s seed %llu sf %.3f: %zu distinct "
                        "batch(es), caches off, %d session(s) closed loop",
                        w.name, static_cast<unsigned long long>(args.seed),
                        w.scale_factor, pool.size(), w.sessions));
  if (args.trace) {
    layers.Set("tpch.load_s", Median(env.load_s));
    double traced_p50 = Median(traced.batch_ms);
    layers.Set("trace.batch_p50_ms", traced_p50);
    layers.Set("trace.overhead_ms", traced_p50 - Median(untraced.batch_ms));
    layers.Set("server.append_ms", Median(appends.latency_ms()));
    layers.Set("server.append_lateness_ms",
               *std::max_element(appends.lateness_ms().begin(),
                                 appends.lateness_ms().end()));
    layers.Set("server.appends", kProbeAppends);
    NoteSelfTimes(spans, static_cast<int64_t>(traced.batch_ms.size()),
                  &report);
    WriteSpanFile(args, origin, spans, &report);
    AddLayerMetrics(layers, &report);
  } else {
    AddEndToEnd(env.setup_s, untraced.batch_ms,
                Ratio(static_cast<double>(untraced.batch_ms.size()),
                      untraced.seconds),
                appends, costs, peak_rss_mb, outcome, &report);
  }
  bool correct = outcome.failed == 0 && outcome.attempted > 0;
  report.Print(correct, outcome);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// server_mixed: two closed-loop reader sessions with both caches on, one
// open-loop appender session adding orders/lineitem rows.

QueryOptions CachedOptions() {
  QueryOptions options = UncachedOptions();
  options.cache.plan_cache = true;
  options.cache.result_cache = true;
  return options;
}

struct ReaderState {
  std::vector<double> batch_ms;   // untraced batches
  std::vector<double> traced_ms;  // traced batches (--trace 1 only)
  Outcome outcome;
  std::vector<int64_t> ok_runs;  // per distinct batch
  CostSums costs;
  Tracer tracer;
  Layers layers;
  std::vector<std::vector<Span>> thread_spans;  // all readers, after merging
};

// With `trace`, every other batch is traced: a span around
// Session::Execute with the program's PhaseTimings as derived children.
void Reader(server::Session* session, const std::vector<std::string>& batches,
            uint64_t seed, Clock::time_point deadline, bool trace,
            int64_t batch_base, ReaderState* st) {
  const QueryOptions options = CachedOptions();
  Rng rng(seed);
  std::vector<double> cumulative;  // Zipf(1) over popularity ranks
  for (int rank = 0; rank < kServerShapes; ++rank) {
    cumulative.push_back((rank == 0 ? 0 : cumulative.back()) + 1.0 / (rank + 1));
  }
  for (int64_t n = 0; Clock::now() < deadline; ++n) {
    if (n > 0) std::this_thread::sleep_for(kReaderThink);
    // Popularity rank r is core kCoresByPopularity[r/2], two statements for
    // even r and one for odd r.
    double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 *
               cumulative.back();
    int rank = static_cast<int>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    rank = std::min(rank, kServerShapes - 1);
    int core = kCoresByPopularity[rank / 2];
    int shape = rank % 2 == 0 ? core : kServerShapes / 2 + core;
    size_t index = static_cast<size_t>(
        shape * kServerVariants + rng.Uniform(0, kServerVariants - 1));
    const std::string& sql = batches[index];
    const int64_t batch = batch_base + n;
    const bool traced = trace && n % 2 == 1;
    int span = traced ? st->tracer.Begin("server.execute", batch) : -1;
    Clock::time_point t0 = Clock::now();
    StatusOr<QueryResult> r = session->Execute(sql, options);
    Clock::time_point t1 = Clock::now();
    st->outcome.Add(r.ok());
    if (!r.ok()) {
      std::fprintf(stderr, "batch error: %s\n", r.status().ToString().c_str());
      if (traced) st->tracer.End(span);
      continue;
    }
    (traced ? st->traced_ms : st->batch_ms).push_back(Millis(t1 - t0));
    ++st->ok_runs[index];
    const bool optimized = !r->cache.plan_cache_hit;
    if (optimized) {
      st->costs.final_cost += r->metrics.final_cost;
      st->costs.normal_cost += r->metrics.normal_cost;
    }
    if (!traced) continue;
    Tracer& tracer = st->tracer;
    tracer.End(span);
    const PhaseTimings& p = r->phases;
    tracer.AddDerived("sql.parse", span, p.parse_seconds);
    tracer.AddDerived("sql.bind", span, p.bind_seconds);
    tracer.AddDerived("core.optimize", span, p.optimize_seconds);
    tracer.AddDerived("exec.execute", span, p.execute_seconds);
    double execute_ms = tracer.DurationMs(span);
    st->layers.Add("server.execute_ms", execute_ms);
    st->layers.Add("server.outside_phases_ms",
                   execute_ms - 1e3 * (p.parse_seconds + p.bind_seconds +
                                       p.optimize_seconds +
                                       p.execute_seconds));
    st->layers.Add("sql.parse_ms", p.parse_seconds * 1e3);
    st->layers.Add("sql.bind_ms", p.bind_seconds * 1e3);
    if (optimized) {
      AddCoreLayers(r->metrics, p.optimize_seconds * 1e3, 0, &st->layers);
    }
    AddExecLayers(r->execution, p.execute_seconds * 1e3, r->statements,
                  &st->layers);
    AddFingerprintLayer(sql, batch, &tracer, &st->layers);
  }
}

struct AppenderState {
  OpenLoop loop;
  Outcome outcome;
  std::vector<double> hold_ms;  // started -> finished
  Tracer tracer;
};

// Sends an append event every 1/kAppendsPerSecond seconds until `stop`;
// latencies are recorded for events due before `record_until`.
void Appender(server::Session* session, AppendGenerator* gen,
              Clock::time_point record_until, bool traced,
              const std::atomic<bool>* stop, AppenderState* st) {
  for (int64_t i = 0;; ++i) {
    AppendEvent event = gen->Next();
    Clock::time_point due = st->loop.Due(i);
    while (Clock::now() < due - std::chrono::milliseconds(2)) {
      if (stop->load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    WaitUntil(due);
    if (stop->load()) return;
    int span = traced ? st->tracer.Begin("server.append", i) : -1;
    Clock::time_point started = Clock::now();
    bool ok = AppendEventTo(session, event);
    Clock::time_point finished = Clock::now();
    if (traced) st->tracer.End(span);
    st->outcome.Add(ok);
    if (due < record_until) {
      st->loop.Record(due, started, finished);
      st->hold_ms.push_back(Millis(finished - started));
    }
  }
}

struct CacheSnapshot {
  cache::PlanCacheStats plan;
  cache::ResultCacheStats result;
  server::ServerStats server;
};

CacheSnapshot Snapshot(server::Server* server) {
  return {server->plan_cache().stats(), server->result_cache().stats(),
          server->stats()};
}

void AddCacheLayers(server::Server* server, const CacheSnapshot& a,
                    const CacheSnapshot& b, Layers* layers) {
  double hits = static_cast<double>(b.plan.hits - a.plan.hits);
  double rebinds = static_cast<double>(b.plan.rebind_hits - a.plan.rebind_hits);
  double misses = static_cast<double>(b.plan.misses - a.plan.misses);
  layers->Set("cache.plan_hit_ratio",
              Ratio(hits + rebinds, hits + rebinds + misses));
  layers->Set("cache.plan_rebind_ratio",
              Ratio(rebinds, hits + rebinds + misses));
  layers->Set("cache.plan_invalidations",
              static_cast<double>(b.plan.invalidations - a.plan.invalidations));
  double r_hits = static_cast<double>(b.result.hits - a.result.hits);
  double r_misses = static_cast<double>(b.result.misses - a.result.misses);
  layers->Set("cache.result_hit_ratio", Ratio(r_hits, r_hits + r_misses));
  layers->Set("cache.result_invalidations",
              static_cast<double>(b.result.invalidations -
                                  a.result.invalidations));
  layers->Set("cache.result_evictions",
              static_cast<double>(b.result.evictions - a.result.evictions));
  layers->Set("cache.result_rejected",
              static_cast<double>(b.result.rejected - a.result.rejected));
  layers->Set("cache.result_bytes",
              static_cast<double>(server->result_cache().bytes_used()));
  layers->Set("server.plan_hits",
              static_cast<double>(b.server.plan_hits - a.server.plan_hits));
  layers->Set("server.plan_rebinds", static_cast<double>(
                                         b.server.plan_rebinds -
                                         a.server.plan_rebinds));
  layers->Set("server.spools_recycled",
              static_cast<double>(b.server.spools_recycled -
                                  a.server.spools_recycled));
  layers->Set("server.spools_admitted",
              static_cast<double>(b.server.spools_admitted -
                                  a.server.spools_admitted));
  layers->Set("server.appends",
              static_cast<double>(b.server.appends - a.server.appends));
}

// Runs both readers until `deadline`; returns their merged state.
ReaderState RunReaders(server::Server* server,
                       const std::vector<std::string>& batches, uint64_t seed,
                       Clock::time_point deadline, bool trace) {
  std::vector<ReaderState> states(kReaders);
  std::vector<std::unique_ptr<server::Session>> sessions;
  for (int r = 0; r < kReaders; ++r) {
    sessions.push_back(server->Connect(StrFormat("reader-%d", r)));
    states[r].ok_runs.assign(batches.size(), 0);
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(Reader, sessions[r].get(), std::cref(batches),
                         MixSeed(seed, 100, static_cast<uint64_t>(r)),
                         deadline, trace, (int64_t{r} + 1) * 1000000000,
                         &states[r]);
  }
  for (std::thread& t : threads) t.join();
  ReaderState merged = std::move(states[0]);
  merged.thread_spans.push_back(merged.tracer.spans());
  for (int r = 1; r < kReaders; ++r) {
    ReaderState& s = states[r];
    merged.thread_spans.push_back(s.tracer.spans());
    merged.layers.Merge(s.layers);
    merged.batch_ms.insert(merged.batch_ms.end(), s.batch_ms.begin(),
                           s.batch_ms.end());
    merged.traced_ms.insert(merged.traced_ms.end(), s.traced_ms.begin(),
                            s.traced_ms.end());
    merged.outcome.Merge(s.outcome);
    for (size_t i = 0; i < s.ok_runs.size(); ++i) {
      merged.ok_runs[i] += s.ok_runs[i];
    }
    merged.costs.final_cost += s.costs.final_cost;
    merged.costs.normal_cost += s.costs.normal_cost;
  }
  return merged;
}

int RunServerMixed(const Args& args, const Workload& w) {
  Clock::time_point origin = Clock::now();
  Env env;
  SetUp(w.scale_factor, &env);
  server::Server* server = env.server.get();
  std::vector<std::string> batches;
  for (int shape = 0; shape < kServerShapes; ++shape) {
    for (int v = 0; v < kServerVariants; ++v) {
      batches.push_back(Join(ServerBatch(args.seed, shape, v), "; "));
    }
  }
  AppendGenerator gen = MakeAppendGenerator(env.db.get(), args.seed);
  Outcome outcome;
  {  // Warm-up (untimed): every distinct batch once, filling both caches.
    std::unique_ptr<server::Session> warm = server->Connect("warmup");
    for (const std::string& sql : batches) {
      StatusOr<QueryResult> r = warm->Execute(sql, CachedOptions());
      if (!r.ok()) Die("warm-up batch failed: " + r.status().ToString());
    }
  }

  std::unique_ptr<server::Session> writer = server->Connect("appender");
  Clock::time_point start = Clock::now();
  Clock::time_point end = start + ToDuration(args.seconds);
  AppenderState appender{OpenLoop(start, 1.0 / kAppendsPerSecond), {}, {}, {}};
  std::atomic<bool> stop{false};
  std::thread appender_thread(Appender, writer.get(), &gen, end, args.trace,
                              &stop, &appender);

  CacheSnapshot before = Snapshot(server);
  ReaderState readers = RunReaders(server, batches, args.seed, end, args.trace);
  const double seconds = Seconds(Clock::now() - start);
  CacheSnapshot after = Snapshot(server);
  const double peak_rss_mb = PeakRssMb();  // before the reference plans

  // Correctness, outside the timed window but beside the running appender:
  // each distinct batch that ran, cached run and naive reference under one
  // ExecuteAtomic snapshot.
  const std::vector<int64_t>& ok_runs = readers.ok_runs;
  std::vector<char> wrong(batches.size(), 0);
  ParallelFor(static_cast<int>(batches.size()), kReaders, [&](int i) {
    if (ok_runs[i] == 0) return;
    std::unique_ptr<server::Session> checker = server->Connect("checker");
    QueryOptions naive;
    naive.use_naive_plan = true;
    StatusOr<std::vector<QueryResult>> pair = checker->ExecuteAtomic(
        {{batches[i], CachedOptions()}, {batches[i], naive}});
    std::string why = pair.ok() ? "" : pair.status().ToString();
    if (!pair.ok() ||
        !SameResults((*pair)[0].statements, (*pair)[1].statements, &why)) {
      std::fprintf(stderr, "wrong result: %s\n  sql: %.200s\n", why.c_str(),
                   batches[i].c_str());
      wrong[i] = 1;
    }
  });
  for (size_t i = 0; i < batches.size(); ++i) {
    if (wrong[i]) outcome.failed += ok_runs[i];
  }
  stop.store(true);
  appender_thread.join();

  outcome.Merge(readers.outcome);
  outcome.Merge(appender.outcome);
  int64_t distinct_run = 0;
  for (int64_t n : ok_runs) distinct_run += n > 0;

  Report report;
  report.Note(StrFormat(
      "workload %s seed %llu sf %.3f: %d readers closed loop, 1 appender at "
      "%.1f/s; %d shapes x %d literal variants (%lld ran) vs plan cache %zu "
      "keys x %zu variants; result cache holds %lld bytes of %lld budget",
      w.name, static_cast<unsigned long long>(args.seed), w.scale_factor,
      kReaders, kAppendsPerSecond, kServerShapes, kServerVariants,
      static_cast<long long>(distinct_run), server::ServerOptions{}.plan_cache_keys,
      server::ServerOptions{}.plan_cache_variants_per_key,
      static_cast<long long>(server->result_cache().bytes_used()),
      static_cast<long long>(server->result_cache().budget_bytes())));
  if (args.trace) {
    Layers& layers = readers.layers;
    layers.Set("tpch.load_s", Median(env.load_s));
    AddCacheLayers(server, before, after, &layers);
    layers.Set("server.append_ms", Median(appender.hold_ms));
    layers.Set("server.append_lateness_ms",
               appender.loop.lateness_ms().empty()
                   ? 0
                   : *std::max_element(appender.loop.lateness_ms().begin(),
                                       appender.loop.lateness_ms().end()));
    double traced_p50 = Median(readers.traced_ms);
    layers.Set("trace.batch_p50_ms", traced_p50);
    layers.Set("trace.overhead_ms", traced_p50 - Median(readers.batch_ms));
    NoteSelfTimes(readers.thread_spans,
                  static_cast<int64_t>(readers.traced_ms.size()), &report);
    std::vector<std::vector<Span>> all = readers.thread_spans;
    all.push_back(appender.tracer.spans());
    WriteSpanFile(args, origin, all, &report);
    AddLayerMetrics(layers, &report);
  } else {
    AddEndToEnd(env.setup_s, readers.batch_ms,
                Ratio(static_cast<double>(readers.batch_ms.size()), seconds),
                appender.loop, readers.costs, peak_rss_mb, outcome, &report);
  }
  bool correct = outcome.failed == 0 && outcome.attempted > 0;
  report.Print(correct, outcome);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.selftest) return SelfTest();
  if (args.seconds <= 0) Die("--seconds must be positive");
  for (const Workload& w : kWorkloads) {
    if (args.workload != w.name) continue;
    return args.workload == "server_mixed" ? RunServerMixed(args, w)
                                           : RunUncached(args, w);
  }
  Die("unknown workload '" + args.workload + "'");
}

}  // namespace
}  // namespace subshare::perfbench

int main(int argc, char** argv) {
  return subshare::perfbench::Main(argc, argv);
}
