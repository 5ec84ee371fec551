// Experiment Scal-1: compile-time cost of the analysis pipeline
// (PFG + dominators + MHP + mutex structures + SSA + CSSA + CSSAME) as
// program size, thread count and lock count grow. The paper reports no
// compile times; a production library must characterize its own cost.
// Expected shape: near-linear in statement count for fixed thread count;
// the conflict-edge/π work grows with (threads × shared accesses).
//
// Before the timing series, a size sweep over lock-region programs (about
// 250, 500, 1k, 2k and 4k statements) fits two growth exponents and
// fails the binary (exit 1) when either exceeds its gate:
//   * mutex-structure construction time vs statements  <= 1.3
//   * π rewrite + csan time vs conflict edges |Ecf|      <= 1.3
// The rewrite and csan walk conflict edges and π arguments, and on this
// family |Ecf| itself grows with the square of the statement count, so
// their gate is fitted against |Ecf|. The mutex gate times the structures
// rebuilt over the analyzed graph: inside the pipeline the phase runs
// right after the conflict-edge phase, whose quadratic working set evicts
// the graph from cache at the larger sizes, and that refill (not the
// algorithm) would bend the fit. The in-pipeline phase time is recorded
// beside it with its own, ungated, exponent. The rows and exponents go to
// the "pipeline_sweep" member of BENCH_scale.json (other members of an
// existing file are kept).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/driver/pipeline.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"
#include "src/service/json.h"
#include "src/support/timer.h"
#include "src/workload/generator.h"

namespace {

using namespace cssame;

// ---------------------------------------------------------------------------
// Size sweep with fitted gates.
// ---------------------------------------------------------------------------

constexpr double kExponentGate = 1.3;

/// Three threads of lock(L)/lock(M) regions over shared x, y, z — the
/// bench_service program family, with `scale` times its region counts
/// (scale 1 is about 490 statements).
std::string lockRegionSource(double scale) {
  const auto regions = [scale](int base) {
    return static_cast<int>(std::lround(base * scale));
  };
  std::string s = "int x = 0, y = 0, z = 0;\nlock L;\nlock M;\ncobegin {\n";
  s += "  thread A {\n";
  for (int k = 0; k < regions(44); ++k)
    s += "    lock(L); x = x + " + std::to_string(k + 1) + "; unlock(L);\n";
  s += "    lock(M); y = 1; unlock(M);\n  }\n";
  s += "  thread B {\n";
  for (int k = 0; k < regions(44); ++k)
    s += "    lock(L); x = x * 2; unlock(L); lock(M); z = z + " +
         std::to_string(k) + "; unlock(M);\n";
  s += "  }\n";
  s += "  thread C {\n";
  for (int k = 0; k < regions(28); ++k)
    s += "    lock(M); z = z + y + " + std::to_string(k) + "; unlock(M);\n";
  s += "  }\n}\nprint(x); print(y); print(z);\n";
  return s;
}

struct SweepRow {
  std::size_t statements = 0;
  std::size_t conflictEdges = 0;
  double mutexMs = 0.0;          ///< structures rebuilt over the graph
  double mutexPipelineMs = 0.0;  ///< the pipeline's own mutex phase
  double rewriteMs = 0.0;
  double csanMs = 0.0;
};

/// Keeps the smaller of a best-so-far time and a new sample.
void keepBest(double& best, double sample, int rep) {
  if (rep == 0 || sample < best) best = sample;
}

double phaseMs(const driver::Compilation& c, const char* name) {
  for (const support::PhaseTime& p : c.phaseTimes())
    if (p.name == name) return p.seconds * 1e3;
  return 0.0;
}

/// Best of `reps` cold analyses (with warnings, as cssamec runs them) and
/// csan runs of the program at `scale`.
SweepRow measureSweepRow(double scale, int reps) {
  ir::Program prog = parser::parseOrDie(lockRegionSource(scale));
  SweepRow row;
  row.statements = prog.size();
  for (int r = 0; r < reps; ++r) {
    const driver::Compilation c = driver::analyze(prog, {.warnings = true});
    DiagEngine diag;
    const support::Stopwatch watch;
    const sanalysis::CsanReport report = sanalysis::runCsan(c, diag);
    const double csanMs = watch.seconds() * 1e3;
    benchmark::DoNotOptimize(report.totalFindings());
    row.conflictEdges = c.graph().conflicts.size();
    const double rewriteMs = phaseMs(c, "cssame-rewrite");
    keepBest(row.mutexPipelineMs, phaseMs(c, "mutex"), r);
    if (r == 0 || rewriteMs + csanMs < row.rewriteMs + row.csanMs) {
      row.rewriteMs = rewriteMs;
      row.csanMs = csanMs;
    }
    for (int m = 0; m < 5; ++m) {
      DiagEngine mutexDiag;
      const support::Stopwatch mutexWatch;
      const mutex::MutexStructures structures(c.graph(), c.dom(), c.pdom(),
                                              &mutexDiag);
      keepBest(row.mutexMs, mutexWatch.seconds() * 1e3, r + m);
      benchmark::DoNotOptimize(structures.bodies().size());
    }
  }
  return row;
}

/// Least-squares slope of log(y) against log(x).
double fittedExponent(const std::vector<double>& x,
                      const std::vector<double>& y) {
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += std::log(x[i]);
    my += std::log(y[i]);
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(x.size());
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = std::log(x[i]) - mx;
    sxy += dx * (std::log(y[i]) - my);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

/// Runs the sweep, prints its table rows and writes BENCH_scale.json.
/// Returns false when a fitted exponent exceeds its gate.
bool runSizeSweep() {
  const double scales[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  std::vector<SweepRow> rows;
  for (double scale : scales) rows.push_back(measureSweepRow(scale, 3));

  std::vector<double> stmts, edges, mutexMs, mutexPipelineMs, laterMs;
  service::Json jsonRows = service::Json::array();
  for (const SweepRow& r : rows) {
    stmts.push_back(static_cast<double>(r.statements));
    edges.push_back(static_cast<double>(r.conflictEdges));
    mutexMs.push_back(r.mutexMs);
    mutexPipelineMs.push_back(r.mutexPipelineMs);
    laterMs.push_back(r.rewriteMs + r.csanMs);
    service::Json row = service::Json::object();
    row.set("statements", static_cast<std::uint64_t>(r.statements));
    row.set("conflict_edges", static_cast<std::uint64_t>(r.conflictEdges));
    row.set("mutex_ms", r.mutexMs);
    row.set("mutex_pipeline_ms", r.mutexPipelineMs);
    row.set("rewrite_ms", r.rewriteMs);
    row.set("csan_ms", r.csanMs);
    jsonRows.push(std::move(row));
    std::printf("  %6zu stmts  %8zu edges  mutex %7.3f ms (in pipeline "
                "%7.3f)  rewrite %8.3f ms  csan %9.3f ms\n",
                r.statements, r.conflictEdges, r.mutexMs, r.mutexPipelineMs,
                r.rewriteMs, r.csanMs);
  }
  const double mutexExp = fittedExponent(stmts, mutexMs);
  const double mutexPipelineExp = fittedExponent(stmts, mutexPipelineMs);
  const double laterExp = fittedExponent(edges, laterMs);
  const bool mutexOk = mutexExp <= kExponentGate;
  const bool laterOk = laterExp <= kExponentGate;

  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", mutexExp);
  benchutil::tableRowStr("mutex exponent vs statements", "<= 1.3", buf,
                         mutexOk);
  std::printf("  (in-pipeline mutex phase exponent, ungated: %.2f)\n",
              mutexPipelineExp);
  std::snprintf(buf, sizeof buf, "%.2f", laterExp);
  benchutil::tableRowStr("rewrite+csan exponent vs |Ecf|", "<= 1.3", buf,
                         laterOk);

  service::Json sweep = service::Json::object();
  sweep.set("workload", "lock-region programs (bench_service family), "
                        "best of 3 cold runs; mutex_ms best of 15 rebuilds");
  sweep.set("rows", std::move(jsonRows));
  sweep.set("mutex_exponent_vs_statements", mutexExp);
  sweep.set("mutex_pipeline_exponent_vs_statements", mutexPipelineExp);
  sweep.set("rewrite_csan_exponent_vs_conflict_edges", laterExp);
  sweep.set("exponent_gate", kExponentGate);
  sweep.set("gates_pass", mutexOk && laterOk);
  benchutil::mergeJsonFile(
      "BENCH_scale.json", service::Json::object().set("pipeline_sweep", sweep));
  std::printf("  wrote BENCH_scale.json (pipeline_sweep)\n");
  return mutexOk && laterOk;
}

// ---------------------------------------------------------------------------
// Timing series.
// ---------------------------------------------------------------------------

void BM_Pipeline_ByStmts(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.threads = 4;
  cfg.stmtsPerThread = static_cast<int>(state.range(0));
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
  state.counters["stmts"] = static_cast<double>(prog.size());
  state.counters["stmts/s"] = benchmark::Counter(
      static_cast<double>(prog.size()), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Pipeline_ByStmts)->Arg(10)->Arg(40)->Arg(160)->Arg(640);

void BM_Pipeline_ByThreads(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 11;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.stmtsPerThread = 40;
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.ssa().countLivePis());
  }
  state.counters["stmts"] = static_cast<double>(prog.size());
  state.counters["pis"] = static_cast<double>([&] {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    return c.ssa().countLivePis();
  }());
}
BENCHMARK(BM_Pipeline_ByThreads)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_Pipeline_ByLocks(benchmark::State& state) {
  workload::GeneratorConfig cfg;
  cfg.seed = 13;
  cfg.threads = 6;
  cfg.stmtsPerThread = 40;
  cfg.locks = static_cast<int>(state.range(0));
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.mutexes().bodies().size());
  }
}
BENCHMARK(BM_Pipeline_ByLocks)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Pipeline_PhaseBreakdown(benchmark::State& state) {
  // Times one full pipeline on a mid-size program; compare against the
  // ByStmts series to see which phase dominates (the π rewrite is
  // proportional to π arguments, not statements).
  workload::GeneratorConfig cfg;
  cfg.seed = 17;
  cfg.threads = 8;
  cfg.stmtsPerThread = 80;
  ir::Program prog = workload::generateRandom(cfg);
  for (auto _ : state) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    benchmark::DoNotOptimize(c.rewriteStats().argsRemoved);
  }
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  state.counters["pfg_nodes"] = static_cast<double>(c.graph().size());
  state.counters["conflict_edges"] =
      static_cast<double>(c.graph().conflicts.size());
  state.counters["pi_args_removed"] =
      static_cast<double>(c.rewriteStats().argsRemoved);
}
BENCHMARK(BM_Pipeline_PhaseBreakdown);

}  // namespace

int main(int argc, char** argv) {
  using namespace cssame::benchutil;
  tableHeader("Scal-1: pipeline compile-time scaling (ours)");
  // Sanity anchor: the pipeline on a ~2600-statement program must finish
  // (table checks feasibility; the timing series below shows the shape).
  workload::GeneratorConfig cfg;
  cfg.seed = 3;
  cfg.threads = 16;
  cfg.stmtsPerThread = 160;
  ir::Program prog = workload::generateRandom(cfg);
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  tableRow("statements analyzed", "(scales)",
           static_cast<long long>(prog.size()), prog.size() > 1000);
  tableRow("pi terms placed", "> 0",
           static_cast<long long>(c.piStats().pisPlaced),
           c.piStats().pisPlaced > 0);
  tableRow("pi args removed by CSSAME", "> 0",
           static_cast<long long>(c.rewriteStats().argsRemoved),
           c.rewriteStats().argsRemoved > 0);
  const bool gatesOk = runSizeSweep();
  std::printf("\n");
  const int rc = runBenchmarks(argc, argv);
  return gatesOk ? rc : 1;
}
