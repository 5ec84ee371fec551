#include "src/driver/runner.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include "src/cssa/form_printer.h"
#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/mutex/deadlock.h"
#include "src/opt/lockstats.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/pfg/dot.h"
#include "src/repair/repair.h"
#include "src/sanalysis/csan.h"
#include "src/sanalysis/pointsto.h"
#include "src/sanalysis/sarif.h"
#include "src/sanalysis/tso.h"
#include "src/sanalysis/vrange.h"

namespace cssame::driver {

namespace {

/// printf into a growing string — output is buffered so callers (parallel
/// batch jobs, the service) can route it wherever it belongs.
void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[4096];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Writes structured output to `path` ("" = the buffered stdout stream).
/// Fails the run on I/O errors so CI runs fail loudly instead of
/// uploading an empty log.
bool writeOut(const std::string& path, const std::string& text,
              std::string& out, std::string& err) {
  if (path.empty()) {
    out += text + "\n";
    return true;
  }
  std::ofstream f(path);
  if (!f) {
    appendf(err, "cssamec: cannot write '%s'\n", path.c_str());
    return false;
  }
  f << text << "\n";
  return true;
}

/// The read-only rendering shared by the cold path (runSource, after its
/// own parse + analyze) and the cache-hit path (runCompiled): everything
/// cssamec prints except --opt/--run, which mutate or execute the
/// program. Appends into `r`; returns false when the run failed and the
/// caller must stop (r.code already set).
bool renderCompiled(const ir::Program& prog, const Compilation& c,
                    const std::string& fileName, const RunOptions& o,
                    RunOutput& r) {
  std::string& out = r.out;
  std::string& err = r.err;
  for (const auto& d : c.diag().diagnostics())
    appendf(err, "%s\n", d.str().c_str());

  if (o.doRaces) {
    DiagEngine raceDiag;
    (void)sanalysis::perVariableRaces(c, raceDiag);
    mutex::detectDeadlocks(c.graph(), c.mhp(), c.mutexes(), raceDiag);
    for (const auto& d : raceDiag.diagnostics())
      appendf(err, "%s\n", d.str().c_str());
  }
  // Analyzer diagnostics (csan, then vrange) accumulate into one engine
  // so the SARIF/JSON streams carry every finding.
  DiagEngine toolDiag;
  if (o.doCsan) {
    const sanalysis::CsanReport report = sanalysis::runCsan(c, toolDiag);
    for (const auto& d : toolDiag.diagnostics())
      appendf(err, "%s\n", d.str().c_str());
    // The "(+N may-alias)" clause appears only for pointer/array races,
    // keeping the scalar-program summary byte-identical to older builds.
    char aliasPart[48] = "";
    if (report.mayAliasRaces > 0)
      std::snprintf(aliasPart, sizeof aliasPart, " (+%zu may-alias)",
                    report.mayAliasRaces);
    appendf(err,
            "csan: %zu finding(s): %zu race(s)%s, %zu inconsistent, "
            "%zu deadlock(s), %zu self-deadlock(s), %zu leak(s), "
            "%zu body lint(s), %zu unprotected pi read(s)\n",
            report.totalFindings(), report.potentialRaces, aliasPart,
            report.inconsistentLocking,
            report.deadlocks.abbaPairs + report.deadlocks.orderCycles,
            report.selfDeadlocks, report.lockLeaks,
            report.emptyBodies + report.redundantBodies +
                report.overwideBodies,
            report.unprotectedPiReads);
  }
  if (o.doVrange) {
    const std::size_t before = toolDiag.diagnostics().size();
    const sanalysis::VrangeResult vr =
        sanalysis::analyzeValueRanges(c, &toolDiag);
    for (std::size_t i = before; i < toolDiag.diagnostics().size(); ++i)
      appendf(err, "%s\n", toolDiag.diagnostics()[i].str().c_str());
    appendf(err, "%s\n", vr.stats.str().c_str());
    const std::string mismatch = sanalysis::crossCheckConstants(c, vr);
    if (!mismatch.empty()) {
      appendf(err, "vrange: CSCC cross-check FAILED: %s\n", mismatch.c_str());
      r.code = 1;
      return false;
    }
  }
  if (o.doTso) {
    const std::size_t before = toolDiag.diagnostics().size();
    const sanalysis::TsoReport report = sanalysis::runTso(c, toolDiag);
    for (std::size_t i = before; i < toolDiag.diagnostics().size(); ++i)
      appendf(err, "%s\n", toolDiag.diagnostics()[i].str().c_str());
    appendf(err,
            "tso: %zu finding(s): %zu reorderable store/load pair(s), "
            "%zu redundant fence(s)\n",
            report.totalFindings(), report.notJustified,
            report.redundantFences);
  }
  if (o.doPointsTo) {
    const sanalysis::PointsToResult* pt = c.pointsTo();
    if (pt == nullptr) {
      appendf(out, "points-to: no pointer accesses\n");
    } else {
      const ir::SymbolTable& syms = prog.symbols;
      // The result maps are unordered; render deref sites in source order
      // so the output is stable across runs and job counts.
      struct Site {
        SourceLoc loc;
        const char* kind;
        const sanalysis::PtSet* pts;
      };
      std::vector<Site> sites;
      for (const auto& [e, pts] : pt->loadPts)
        sites.push_back({e->loc, "load", &pts});
      for (const auto& [s, pts] : pt->storePts)
        sites.push_back({s->loc, "store", &pts});
      std::sort(sites.begin(), sites.end(),
                [](const Site& a, const Site& b) {
                  if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
                  if (a.loc.column != b.loc.column)
                    return a.loc.column < b.loc.column;
                  return std::strcmp(a.kind, b.kind) < 0;
                });
      for (const Site& s : sites)
        appendf(out, "points-to: %s at %s may touch %s\n", s.kind,
                s.loc.str().c_str(),
                sanalysis::formatPtSet(*s.pts, syms).c_str());
      // Cells whose flow-insensitive contents may address storage.
      std::vector<SymbolId> cells;
      for (const auto& [cell, pts] : pt->locPts)
        if (!pts.empty()) cells.push_back(cell);
      std::sort(cells.begin(), cells.end(), [&](SymbolId a, SymbolId b) {
        const std::string& an = syms[a].name;
        const std::string& bn = syms[b].name;
        return an != bn ? an < bn : a.index() < b.index();
      });
      for (SymbolId cell : cells)
        appendf(out, "points-to: cell %s holds %s\n",
                syms[cell].name.c_str(),
                sanalysis::formatPtSet(pt->locPts.at(cell), syms).c_str());
      const sanalysis::PointsToStats& st = pt->stats;
      appendf(out,
              "points-to: %zu deref site(s), %zu wild, %zu outer pass(es), "
              "%llu inner iteration(s), avg %.2f target(s)%s\n",
              st.derefSites, st.anywhereSites, st.outerPasses,
              static_cast<unsigned long long>(st.innerIterations),
              st.avgTargets, st.converged ? "" : " (DID NOT CONVERGE)");
    }
  }
  // Exploration result, kept past its block so --stats can render the
  // reduction counters alongside the solver/phase lines.
  std::optional<interp::ExploreResult> explored;
  if (o.doExplore) {
    interp::ExploreOptions eo;
    eo.dpor = o.dpor;
    eo.model = o.memoryModel;
    explored.emplace(interp::exploreAllSchedules(prog, eo));
    const interp::ExploreResult& ex = *explored;
    appendf(out, "explore: %zu distinct output(s) over %llu state(s)%s\n",
            ex.outputs.size(),
            static_cast<unsigned long long>(ex.statesExplored),
            ex.complete ? "" : " (budget exhausted)");
    // The output set is std::set-ordered, so these lines are stable; cap
    // the listing so a pathological program cannot flood the log.
    constexpr std::size_t kMaxOutputLines = 64;
    std::size_t shown = 0;
    for (const auto& seq : ex.outputs) {
      if (shown == kMaxOutputLines) {
        appendf(out, "explore: ... %zu more output(s)\n",
                ex.outputs.size() - shown);
        break;
      }
      std::string line = "explore: output:";
      for (long long v : seq) line += " " + std::to_string(v);
      appendf(out, "%s\n", line.c_str());
      ++shown;
    }
    if (ex.anyDeadlock) appendf(err, "explore: some schedule deadlocks\n");
    if (ex.anyLockError)
      appendf(err, "explore: some schedule unlocks without holding\n");
    if (ex.anyAssertFailure)
      appendf(err, "explore: some schedule fails an assertion\n");
    if (ex.anyPtrError)
      appendf(err, "explore: some schedule makes a wild pointer access\n");
  }
  if (o.doSarif || o.doJson) {
    // One stream in emission order: pipeline warnings, then the analyzers'.
    std::vector<Diagnostic> all = c.diag().diagnostics();
    all.insert(all.end(), toolDiag.diagnostics().begin(),
               toolDiag.diagnostics().end());
    if (o.doSarif &&
        !writeOut(o.sarifPath, sanalysis::toSarif(all, fileName.c_str()), out,
                  err)) {
      r.code = 1;
      return false;
    }
    if (o.doJson &&
        !writeOut(o.jsonPath, sanalysis::toJson(all, fileName.c_str()), out,
                  err)) {
      r.code = 1;
      return false;
    }
  }
  if (o.doStats) {
    appendf(out, "statements:        %zu\n", prog.size());
    appendf(out, "pfg nodes:         %zu\n", c.graph().size());
    appendf(out, "conflict edges:    %zu\n", c.graph().conflicts.size());
    appendf(out, "mutex bodies:      %zu\n", c.mutexes().bodies().size());
    appendf(out, "phi terms:         %zu\n", c.ssa().countLivePhis());
    appendf(out, "pi terms:          %zu\n", c.ssa().countLivePis());
    appendf(out, "pi conflict args:  %zu\n", c.ssa().countPiConflictArgs());
    if (o.cssame)
      appendf(out, "pi args removed:   %zu (pis folded: %zu)\n",
              c.rewriteStats().argsRemoved, c.rewriteStats().pisRemoved);
    // Scalar-only programs have no points-to solution; omitting the line
    // keeps their --stats output byte-identical to pre-pointer builds.
    if (const sanalysis::PointsToResult* pt = c.pointsTo())
      appendf(out, "points-to:         %zu alias class(es), %zu deref "
              "site(s), %zu wild, %zu outer pass(es)\n",
              c.graph().aliases.nonSingletonClasses(), pt->stats.derefSites,
              pt->stats.anywhereSites, pt->stats.outerPasses);
    const opt::CriticalSectionReport cs = opt::analyzeCriticalSections(c);
    appendf(out,
            "critical sections: %zu stmts locked, %zu lock independent "
            "(%.0f%%)\n",
            cs.totalInterior, cs.totalIndependent,
            100.0 * cs.independentFraction());
    // Force the lazy dataflow caches so the stats are deterministic.
    (void)c.heldLocks();
    (void)c.reaching();
    for (const dataflow::SolveStats& s : c.solverStats())
      appendf(out, "solver:            %s\n", s.str().c_str());
    for (const support::PhaseTime& p : c.phaseTimes())
      appendf(out, "phase:             %s\n", p.str().c_str());
    if (explored) {
      const interp::ExploreResult::DporStats& d = explored->dpor;
      appendf(out,
              "dpor:              %llu pruned, %llu sleep-set hit(s), "
              "%llu dep quer%s, %llu re-expansion(s)\n",
              static_cast<unsigned long long>(d.prunedSuccessors),
              static_cast<unsigned long long>(d.sleepSetHits),
              static_cast<unsigned long long>(d.depQueries),
              d.depQueries == 1 ? "y" : "ies",
              static_cast<unsigned long long>(d.partialReexpansions));
      appendf(out, "explore frontier:  %llu peak byte(s)\n",
              static_cast<unsigned long long>(explored->peakFrontierBytes));
    }
  }
  if (o.dumpPfg) appendf(out, "%s", pfg::toDot(c.graph()).c_str());
  if (o.dumpForm)
    appendf(out, "%s", cssa::printForm(c.graph(), c.ssa()).c_str());
  return true;
}

RunOutput runSourceUnguarded(std::string_view source,
                             const std::string& fileName,
                             const RunOptions& o) {
  RunOutput r;
  std::string& out = r.out;
  std::string& err = r.err;

  DiagEngine diag;
  ir::Program prog = parser::parseProgram(source, diag);
  for (const auto& d : diag.diagnostics())
    appendf(err, "%s\n", d.str().c_str());
  if (diag.hasErrors()) {
    // Structured modes still get a log (with the parse errors), so CI can
    // upload something meaningful for broken inputs.
    bool ok = true;
    if (o.doSarif)
      ok &= writeOut(o.sarifPath,
                     sanalysis::toSarif(diag.diagnostics(), fileName.c_str()),
                     out, err);
    if (o.doJson)
      ok &= writeOut(o.jsonPath,
                     sanalysis::toJson(diag.diagnostics(), fileName.c_str()),
                     out, err);
    (void)ok;
    r.code = 1;
    return r;
  }

  driver::Compilation c = driver::analyze(prog, {.enableCssame = o.cssame});
  if (!renderCompiled(prog, c, fileName, o, r)) return r;

  if (o.doFix) {
    repair::FixTarget target = repair::FixTarget::All;
    // Callers validated the name already; an unknown one (programmatic
    // misuse) degrades to the default rather than crashing the run.
    (void)repair::parseFixTarget(o.fixTarget, target);
    const repair::RepairResult fix =
        repair::repairSource(std::string(source), target);
    out += repair::renderFixReport(fix, target);
    if (o.doStats) out += repair::renderRepairStats(fix.stats);
    if (fix.status == repair::RepairStatus::Partial ||
        fix.status == repair::RepairStatus::NoSafeFix ||
        fix.status == repair::RepairStatus::Error)
      r.code = 1;
  }
  if (o.doOpt) {
    opt::OptimizeReport report =
        opt::optimizeProgram(prog, {.cssame = o.cssame});
    appendf(out, "%s", ir::printProgram(prog).c_str());
    appendf(err,
            "; opt: %zu uses folded, %zu dead removed, %zu hoisted, "
            "%zu sunk, %d iterations\n",
            report.constProp.usesReplaced, report.deadCode.stmtsRemoved,
            report.lockMotion.hoisted, report.lockMotion.sunk,
            report.iterations);
  }
  if (o.doRun) {
    interp::RunResult res =
        interp::run(prog, {.seed = o.seed, .model = o.memoryModel});
    for (long long v : res.output) appendf(out, "%lld\n", v);
    if (!res.completed)
      appendf(err, "%s\n",
              res.deadlocked ? "deadlock" : "step limit exceeded");
    if (res.lockError) appendf(err, "lock error\n");
    if (res.assertFailed) appendf(err, "assertion failed\n");
  }
  return r;
}

}  // namespace

RunOutput runCompiled(const ir::Program& prog, const Compilation& c,
                      const std::string& preErr,
                      const std::string& fileName, const RunOptions& opts) {
  RunOutput r;
  if (opts.doOpt || opts.doRun || opts.doFix) {
    // These mutate, execute or repair the program; a shared compilation
    // cannot serve them. Callers (the service router) pre-screen, so
    // reaching this is a programming error upstream — degrade, don't
    // crash.
    r.err = "cssamec: internal: runCompiled called with --opt/--run/--fix\n";
    r.code = 1;
    return r;
  }
  r.err = preErr;
  try {
    (void)renderCompiled(prog, c, fileName, opts, r);
  } catch (const InvariantError& e) {
    r.err += std::string("cssamec: internal invariant violated: ") +
             e.what() + "\n";
    r.code = 1;
  } catch (const std::exception& e) {
    // The fleet gateway's in-process fallback relies on this function
    // never throwing: any escape (bad_alloc included) would take the
    // gateway down with the request it was trying to save.
    r.err += std::string("cssamec: internal error: ") + e.what() + "\n";
    r.code = 1;
  } catch (...) {
    r.err += "cssamec: internal error: unknown exception\n";
    r.code = 1;
  }
  return r;
}

RunOutput runSource(std::string_view source, const std::string& fileName,
                    const RunOptions& opts) {
  try {
    return runSourceUnguarded(source, fileName, opts);
  } catch (const InvariantError& e) {
    // A hostile input that slipped past the parser's structural checks:
    // degrade to a structured failure, matching the library's
    // never-abort contract for service embedders.
    RunOutput r;
    r.err = std::string("cssamec: internal invariant violated: ") + e.what() +
            "\n";
    r.code = 1;
    return r;
  } catch (const std::exception& e) {
    // Same contract for every other escape: the daemon (and the fleet
    // gateway's last-resort fallback) must outlive any single request.
    RunOutput r;
    r.err = std::string("cssamec: internal error: ") + e.what() + "\n";
    r.code = 1;
    return r;
  } catch (...) {
    RunOutput r;
    r.err = "cssamec: internal error: unknown exception\n";
    r.code = 1;
    return r;
  }
}

}  // namespace cssame::driver
