#include "pb/trace.h"

#include <map>
#include <thread>

#include "pb/oracles.h"
#include "pb/workloads.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/repair/repair.h"
#include "src/sanalysis/csan.h"
#include "src/sanalysis/tso.h"
#include "src/sanalysis/vrange.h"

namespace perfbench {

namespace svc = cssame::service;
namespace rep = cssame::repair;

namespace {

// Op inputs decomposed per traced run.
constexpr std::size_t kTraceInputs = 24;
// Layers a workload's op never calls are still timed on its inputs, with
// explorer budgets small enough to bound the traced run.
constexpr std::uint64_t kOffPathStates = 4096;
constexpr std::uint64_t kOffPathSteps = 1u << 16;
// Service requests replayed in-process, and socket/in-process pairs.
constexpr std::size_t kServiceReplay = 3000;
constexpr std::size_t kSocketSamples = 200;

/// Per-input samples by metric name (medians are reported), plus sums
/// for the ratio metrics, which are reported as totals over all inputs.
struct Samples {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, double> sums;

  void add(const std::string& name, double v) { values[name].push_back(v); }
  void sum(const std::string& name, double v) { sums[name] += v; }
  [[nodiscard]] double med(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] double total(const std::string& name) const {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double ratio(const std::string& num,
                             const std::string& den) const {
    const double d = total(den);
    return d > 0 ? total(num) / d : 0.0;
  }
};

cssame::interp::ExploreOptions offPathExplore() {
  cssame::interp::ExploreOptions o;
  o.detectRaces = true;
  o.maxStates = kOffPathStates;
  o.maxSteps = kOffPathSteps;
  o.workers = 1;
  return o;
}

/// The explorer options the repair engine verifies candidates with.
cssame::interp::ExploreOptions repairExplore(const rep::RepairLimits& l) {
  cssame::interp::ExploreOptions o;
  o.detectRaces = true;
  o.maxStates = l.exploreMaxStates;
  o.maxSteps = l.exploreMaxSteps;
  o.workers = l.exploreWorkers;
  return o;
}

rep::RepairLimits offPathRepair() {
  rep::RepairLimits l;
  l.exploreMaxStates = kOffPathStates;
  l.exploreMaxSteps = kOffPathSteps;
  return l;
}

/// Spans of the calls a workload op makes: their summed self time and the
/// wall time from the first call's start to the last call's end.
struct PathTime {
  double spansMs = 0.0;
  double wallMs = 0.0;
};

/// The analysis layers on one source: parse, the pipeline phases, the
/// lazy solves, csan, vrange, tso and the explorer. The op path is parse,
/// analyze, held locks and csan (plus vrange when `vrangeOnPath`).
PathTime tracePipeline(const std::string& source, bool vrangeOnPath,
                       const cssame::interp::ExploreOptions& explore,
                       Samples& s) {
  PathTime path;
  const Clock::time_point start = Clock::now();
  Clock::time_point t0 = start;
  cssame::parser::ParseResult pr = cssame::parser::parseChecked(source);
  const double parseMs = msSince(t0);
  s.add("parser.parse_ms", parseMs);
  if (!pr.ok()) return path;

  t0 = Clock::now();
  cssame::driver::Compilation c = cssame::driver::analyze(pr.program);
  const double analyzeMs = msSince(t0);
  std::map<std::string, double> ph;
  for (const cssame::support::PhaseTime& p : c.phaseTimes())
    ph[p.name] += p.seconds * 1e3;
  s.add("pfg.build_ms", ph["pfg"]);
  s.add("analysis.dom_ms", ph["dom"] + ph["pdom"]);
  s.add("analysis.mhp_ms", ph["mhp"]);
  s.add("analysis.conflicts_ms", ph["sites"] + ph["conflicts"]);
  s.add("mutex.structures_ms", ph["mutex"]);
  s.add("ssa.build_ms", ph["ssa"]);
  s.add("cssa.pi_ms", ph["cssa-pi"]);
  s.add("cssa.rewrite_ms", ph["cssame-rewrite"]);
  s.add("sanalysis.pointsto_ms", ph["pointsto"] + ph["sites-refined"]);
  s.add("analysis.conflict_edges",
        static_cast<double>(c.graph().conflicts.size()));
  const auto& bodies = c.mutexes().bodies();
  std::size_t wellFormed = 0;
  for (const auto& b : bodies) wellFormed += b.wellFormed ? 1 : 0;
  s.add("mutex.bodies", static_cast<double>(bodies.size()));
  s.sum("mutex.wellformed", static_cast<double>(wellFormed));
  s.sum("mutex.built", static_cast<double>(bodies.size()));
  s.add("cssa.pi_terms", static_cast<double>(c.piStats().pisPlaced));
  s.add("cssa.pi_args_removed",
        static_cast<double>(c.rewriteStats().argsRemoved));

  t0 = Clock::now();
  const cssame::dataflow::HeldLocks& held = c.heldLocks();
  const double heldMs = msSince(t0);
  s.add("dataflow.heldlocks_ms", heldMs);
  s.add("dataflow.heldlocks_iterations",
        static_cast<double>(held.stats().iterations));

  cssame::DiagEngine diag;
  t0 = Clock::now();
  const cssame::sanalysis::CsanReport csan =
      cssame::sanalysis::runCsan(c, diag);
  const double csanMs = msSince(t0);
  s.add("sanalysis.csan_ms", csanMs);
  s.add("sanalysis.csan_findings", static_cast<double>(csan.totalFindings()));

  t0 = Clock::now();
  (void)cssame::sanalysis::analyzeValueRanges(c, &diag);
  const double vrangeMs = msSince(t0);
  s.add("sanalysis.vrange_ms", vrangeMs);
  path.wallMs = msSince(start);
  path.spansMs = parseMs + analyzeMs + heldMs + csanMs;
  if (vrangeOnPath) {
    path.spansMs += vrangeMs;
  } else {
    path.wallMs -= vrangeMs;
  }

  // Off the op path from here on.
  t0 = Clock::now();
  (void)c.reaching();
  s.add("cssa.reaching_ms", msSince(t0));
  t0 = Clock::now();
  (void)cssame::sanalysis::runTso(c, diag);
  s.add("sanalysis.tso_ms", msSince(t0));

  t0 = Clock::now();
  const cssame::interp::ExploreResult ex =
      cssame::interp::exploreAllSchedules(pr.program, explore);
  const double exploreMs = msSince(t0);
  s.add("interp.explore_ms", exploreMs);
  s.add("interp.states", static_cast<double>(ex.statesExplored));
  s.sum("interp.states", static_cast<double>(ex.statesExplored));
  s.sum("interp.explore_s", exploreMs / 1e3);
  s.add("interp.dpor_pruned", static_cast<double>(ex.dpor.prunedSuccessors));
  s.add("interp.peak_frontier_kb",
        static_cast<double>(ex.peakFrontierBytes) / 1024.0);
  return path;
}

/// The repair engine's steps on one source, as repairSource runs them for
/// the first target: analyzeForRepair + collectTargets, then candidates
/// in order through analyzeForRepair + verifyCandidate until one holds.
PathTime traceRepair(const std::string& source, const rep::RepairLimits& l,
                     Samples& s) {
  const Clock::time_point start = Clock::now();
  rep::Snapshot base = rep::analyzeForRepair(source, l);
  std::vector<rep::RepairTarget> targets;
  if (base.ok)
    targets = rep::collectTargets(*base.comp, base.csan, base.tso,
                                  rep::FixTarget::All, source,
                                  l.maxCandidatesPerTarget);
  const double analyzeMs = msSince(start);
  double verifyMs = 0.0;
  std::size_t tried = 0, verified = 0;
  if (!targets.empty()) {
    for (const rep::Candidate& cand : targets.front().candidates) {
      const Clock::time_point t0 = Clock::now();
      const std::string patched =
          rep::applyEdits(source, cand.edits(source));
      rep::Snapshot snap = rep::analyzeForRepair(patched, l);
      const rep::Verdict v =
          rep::verifyCandidate(base, snap, targets.front(), l);
      verifyMs += msSince(t0);
      ++tried;
      if (v.ok) {
        ++verified;
        break;
      }
    }
  }
  s.add("repair.analyze_ms", analyzeMs);
  s.add("repair.verify_ms", verifyMs);
  s.add("repair.candidates_tried", static_cast<double>(tried));
  s.sum("repair.tried", static_cast<double>(tried));
  s.sum("repair.verified", static_cast<double>(verified));
  return {analyzeMs + verifyMs, msSince(start)};
}

/// cssamed's layers on a request stream: decode, in-process handling by
/// cache tier, encode, the cache counters, and the socket round trip
/// against in-process handling of the same (memory-tier) requests.
void traceService(const std::vector<std::string>& stream,
                  const svc::ServerOptions& opts, Samples& s) {
  SocketServer daemon(opts, socketPath("trace"));
  svc::Server& server = daemon.server();
  for (const std::string& req : stream) {
    Clock::time_point t0 = Clock::now();
    (void)svc::parseJson(req);
    s.add("service.decode_ms", msSince(t0));
    t0 = Clock::now();
    const std::string resp = server.handlePayload(req);
    const double handleMs = msSince(t0);
    cssame::Expected<svc::Json> env = svc::parseJson(resp);
    if (!env) continue;
    const std::string tier = env->getString("cached", "");
    if (tier == "memory") s.add("service.handle_hit_ms", handleMs);
    if (tier == "miss") s.add("service.handle_miss_ms", handleMs);
    t0 = Clock::now();
    (void)env->write();
    s.add("service.encode_ms", msSince(t0));
  }
  const svc::Json stats = server.statsJson();
  const svc::Json& cache = stats.get("cache");
  s.sum("service.hits", static_cast<double>(cache.getInt("responseHits", 0)));
  s.sum("service.requests", static_cast<double>(stream.size()));
  s.add("service.evictions",
        static_cast<double>(cache.getInt("responseEvictions", 0)));

  // The last requests of the stream are the most recently used, so they
  // are answered from the memory tier on both paths.
  std::vector<std::string> recent;
  for (std::size_t i = stream.size(); i > 0 && recent.size() < 8; --i)
    recent.push_back(stream[i - 1]);
  if (recent.empty()) return;
  cssame::support::FdStream conn = daemon.connect();
  std::vector<double> inproc, socket;
  for (std::size_t k = 0; k < kSocketSamples; ++k) {
    const std::string& req = recent[k % recent.size()];
    Clock::time_point t0 = Clock::now();
    (void)server.handlePayload(req);
    inproc.push_back(msSince(t0));
    t0 = Clock::now();
    (void)roundTrip(conn, req);
    socket.push_back(msSince(t0));
  }
  s.add("service.socket_ms", median(socket) - median(inproc));
}

/// The workload op of one traced input: its untraced latency, thread
/// CPU share, and the layer spans that cover it.
struct OpSamples {
  std::vector<double> opMs, cpuWall, unattributed, tracedMs;

  template <typename F>
  void untraced(F op) {
    const double c0 = threadCpuMs();
    const Clock::time_point t0 = Clock::now();
    op();
    const double ms = msSince(t0);
    opMs.push_back(ms);
    cpuWall.push_back(ms > 0 ? (threadCpuMs() - c0) / ms : 0.0);
  }
  void traced(const PathTime& p) {
    unattributed.push_back(opMs.back() - p.spansMs);
    tracedMs.push_back(p.wallMs);
  }
};

RunResult finish(const Samples& s, const OpSamples& d, RunResult r) {
  std::map<std::string, double> special = {
      {"mutex.wellformed_ratio", s.ratio("mutex.wellformed", "mutex.built")},
      {"interp.states_per_s", s.ratio("interp.states", "interp.explore_s")},
      {"repair.verified_ratio", s.ratio("repair.verified", "repair.tried")},
      {"service.hit_ratio", s.ratio("service.hits", "service.requests")},
      {"driver.run_source_ms", median(d.opMs)},
      {"driver.unattributed_ms", median(d.unattributed)},
      {"driver.cpu_wall_ratio", median(d.cpuWall)},
      {"driver.trace_overhead_ms", median(d.tracedMs) - median(d.opMs)},
      {"driver.hardware_threads",
       static_cast<double>(std::thread::hardware_concurrency())},
      {"fail_ratio", r.attempted > 0 ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 0.0},
  };
  for (const auto& [name, unit] : layerMetrics()) {
    const auto it = special.find(name);
    r.add(name, it != special.end() ? it->second : s.med(name), unit);
  }
  return r;
}

void check(RunResult& r, bool ok, const char* what, const std::string& why) {
  ++r.attempted;
  if (!ok) r.fail(what, why);
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& layerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"parser.parse_ms", "ms"},
      {"pfg.build_ms", "ms"},
      {"analysis.dom_ms", "ms"},
      {"analysis.mhp_ms", "ms"},
      {"analysis.conflicts_ms", "ms"},
      {"analysis.conflict_edges", "count"},
      {"mutex.structures_ms", "ms"},
      {"mutex.bodies", "count"},
      {"mutex.wellformed_ratio", "ratio"},
      {"ssa.build_ms", "ms"},
      {"cssa.pi_ms", "ms"},
      {"cssa.rewrite_ms", "ms"},
      {"cssa.reaching_ms", "ms"},
      {"cssa.pi_terms", "count"},
      {"cssa.pi_args_removed", "count"},
      {"dataflow.heldlocks_ms", "ms"},
      {"dataflow.heldlocks_iterations", "count"},
      {"sanalysis.csan_ms", "ms"},
      {"sanalysis.csan_findings", "count"},
      {"sanalysis.vrange_ms", "ms"},
      {"sanalysis.tso_ms", "ms"},
      {"sanalysis.pointsto_ms", "ms"},
      {"interp.explore_ms", "ms"},
      {"interp.states", "count"},
      {"interp.states_per_s", "1/s"},
      {"interp.dpor_pruned", "count"},
      {"interp.peak_frontier_kb", "kB"},
      {"repair.analyze_ms", "ms"},
      {"repair.verify_ms", "ms"},
      {"repair.candidates_tried", "count"},
      {"repair.verified_ratio", "ratio"},
      {"service.decode_ms", "ms"},
      {"service.encode_ms", "ms"},
      {"service.handle_hit_ms", "ms"},
      {"service.handle_miss_ms", "ms"},
      {"service.socket_ms", "ms"},
      {"service.hit_ratio", "ratio"},
      {"service.evictions", "count"},
      {"driver.run_source_ms", "ms"},
      {"driver.unattributed_ms", "ms"},
      {"driver.cpu_wall_ratio", "ratio"},
      {"driver.trace_overhead_ms", "ms"},
      {"driver.hardware_threads", "count"},
      {"fail_ratio", "ratio"},
  };
  return kMetrics;
}

RunResult traceCsanLocked(const Args& args) {
  const LockedPlan plan = planCsanLocked(args);
  const cssame::driver::RunOptions opts = lockedOptions();
  Samples s;
  OpSamples d;
  RunResult r;
  std::string why;
  for (std::size_t i = 0; i < std::min(kTraceInputs, plan.cold.size()); ++i) {
    const LockedProgram& p = plan.cold[i];
    cssame::driver::RunOutput out;
    d.untraced([&] {
      out = cssame::driver::runSource(p.source, kFileName, opts);
    });
    check(r, checkLockedVerdict(p, out.err, why), "csan_locked", why);
    d.traced(tracePipeline(p.source, true, offPathExplore(), s));
    (void)traceRepair(p.source, offPathRepair(), s);
  }
  std::vector<std::string> stream;
  for (std::size_t j = 0; j < plan.warm.size(); ++j)
    stream.push_back(csanRequest(static_cast<std::int64_t>(j),
                                 plan.warm[j].source, true));
  for (const Op& op : plan.ops)
    if (op.warm) stream.push_back(std::string(stream[op.input]));
  traceService(stream, svc::ServerOptions{}, s);
  return finish(s, d, r);
}

RunResult traceFixRacy(const Args& args) {
  const RacyPlan plan = planFixRacy(args);
  const rep::RepairLimits limits;
  Samples s;
  OpSamples d;
  RunResult r;
  std::string why;
  for (std::size_t i = 0; i < std::min(kTraceInputs, plan.cold.size()); ++i) {
    const RacyProgram& p = plan.cold[i];
    rep::RepairResult res;
    d.untraced([&] {
      res = rep::repairSource(p.source, rep::FixTarget::All, limits);
    });
    check(r,
          checkRepair(p.source, res.status == rep::RepairStatus::Fixed,
                      res.patchedSource, why),
          "fix_racy", why);
    d.traced(traceRepair(p.source, limits, s));
    (void)tracePipeline(p.source, false, repairExplore(limits), s);
  }
  std::vector<std::string> stream;
  for (std::size_t j = 0; j < plan.warm.size(); ++j)
    stream.push_back(
        fixRequest(static_cast<std::int64_t>(j), plan.warm[j].source));
  for (const Op& op : plan.ops)
    if (op.warm) stream.push_back(std::string(stream[op.input]));
  traceService(stream, svc::ServerOptions{}, s);
  return finish(s, d, r);
}

RunResult traceServiceMix(const Args& args) {
  const ServicePlan plan = planServiceMix(args);
  const cssame::driver::RunOptions opts = serviceOptions();
  Samples s;
  OpSamples d;
  RunResult r;
  std::string why;
  std::vector<bool> seen(plan.sources.size(), false);
  std::size_t traced = 0;
  for (std::size_t i = 0; i < plan.stream.size() && traced < kTraceInputs;
       ++i) {
    const std::size_t src = plan.stream[i];
    if (seen[src]) continue;
    seen[src] = true;
    ++traced;
    const std::string& source = plan.sources[src];
    cssame::driver::RunOutput out;
    d.untraced([&] {
      out = cssame::driver::runSource(source, kFileName, opts);
    });
    // The service oracle: the in-process answer equals the standalone run.
    svc::Server server(serviceMixServerOptions());
    check(r,
          checkCsanResponse(server.handlePayload(csanRequest(0, source, false)),
                            out, why),
          "service_mix", why);
    d.traced(tracePipeline(source, false, offPathExplore(), s));
    (void)traceRepair(source, offPathRepair(), s);
  }
  std::vector<std::string> stream;
  for (std::size_t i = 0; i < std::min(kServiceReplay, plan.stream.size());
       ++i)
    stream.push_back(csanRequest(static_cast<std::int64_t>(i),
                                 plan.sources[plan.stream[i]], false));
  traceService(stream, serviceMixServerOptions(), s);
  return finish(s, d, r);
}

}  // namespace perfbench
