// The per-file analysis option table: every RunOptions field, declared
// once. cssamec's flag parsing and usage line, the service request JSON
// (src/service/request_options.h) and RunOptions::cacheKey() are all
// generated from these rows, so a new analysis flag is one row plus the
// code that acts on it. Defaults are RunOptions' member initializers;
// the CLI spelling of a bool row flips its default. Row order is cache
// key order — the bool rows give the key's bit string — so reordering
// rows changes every persisted cache address.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/driver/runner.h"

namespace cssame::driver {

/// How a row is spelled and validated, and what it adds to the key.
enum class OptionKind : std::uint8_t {
  Flag,    ///< --x flips the default; JSON bool; one key bit
  Run,     ///< a Flag whose spelling takes an optional seed argument
  Output,  ///< --x[=FILE]: a Flag implying csan; FILE is CLI-only
  Fix,     ///< --x[=TARGET]: the flag plus a validated target string
  Model,   ///< --x=M: a validated memory model; JSON string
  Seed,    ///< JSON integer; on the CLI it is --run's argument
};

struct OptionRow {
  OptionKind kind;
  std::string_view cli;   ///< command-line spelling; empty when none
  std::string_view json;  ///< request JSON key
  bool RunOptions::*flag = nullptr;         ///< the bool, when the row has one
  std::string RunOptions::*text = nullptr;  ///< Output: FILE; Fix: target
};

inline constexpr OptionRow kOptionTable[] = {
    // print the Parallel Flow Graph as Graphviz DOT
    {OptionKind::Flag, "--dump-pfg", "dumpPfg", &RunOptions::dumpPfg},
    // print the CSSA/CSSAME form (like the paper's Fig. 3)
    {OptionKind::Flag, "--dump-form", "dumpForm", &RunOptions::dumpForm},
    // stop at plain CSSA (skip the π rewriting)
    {OptionKind::Flag, "--no-cssame", "cssame", &RunOptions::cssame},
    // run CSCC + PDCE + LICM and print the optimized program
    {OptionKind::Flag, "--opt", "opt", &RunOptions::doOpt},
    // execute under the interleaving interpreter
    {OptionKind::Run, "--run", "run", &RunOptions::doRun},
    // run the lock-consistency data race checks
    {OptionKind::Flag, "--races", "races", &RunOptions::doRaces},
    // print analysis statistics and per-phase wall-clock
    {OptionKind::Flag, "--stats", "stats", &RunOptions::doStats},
    // run the full static concurrency analyzer
    {OptionKind::Flag, "--csan", "csan", &RunOptions::doCsan},
    // emit all diagnostics as SARIF 2.1.0 (implies --csan); FILE
    // defaults to stdout
    {OptionKind::Output, "--sarif", "sarif", &RunOptions::doSarif,
     &RunOptions::sarifPath},
    // emit all diagnostics as compact JSON (implies --csan); FILE
    // defaults to stdout
    {OptionKind::Output, "--json", "json", &RunOptions::doJson,
     &RunOptions::jsonPath},
    // run the concurrent value-range analysis (CVRA)
    {OptionKind::Flag, "--vrange", "vrange", &RunOptions::doVrange},
    // run the TSO weak-memory analysis (reorderable store/load pairs;
    // redundant fences)
    {OptionKind::Flag, "--tso", "tso", &RunOptions::doTso},
    // print the concurrent points-to solution (per deref site targets,
    // pointer-holding cells, solver stats)
    {OptionKind::Flag, "--points-to", "pointsTo", &RunOptions::doPointsTo},
    // exhaustively enumerate every schedule (bounded) and print the
    // output set plus deadlock / lock-error / assertion verdicts
    {OptionKind::Flag, "--explore", "explore", &RunOptions::doExplore},
    // disable dynamic partial-order reduction during --explore (the
    // unreduced sweep: slower, identical verdicts)
    {OptionKind::Flag, "--no-dpor", "dpor", &RunOptions::dpor},
    // synthesize and print a verified repair for the analyses' findings;
    // TARGET is all (default), race, may-alias, tso, fence, or a
    // diagnostic code name; exit 1 when some finding has no safe fix
    {OptionKind::Fix, "--fix", "fix", &RunOptions::doFix,
     &RunOptions::fixTarget},
    // memory model for --run and --explore: sc (default) or tso (plain
    // stores buffer per thread and flush asynchronously)
    {OptionKind::Model, "--memory-model", "memoryModel"},
    // the --run schedule seed (default 1)
    {OptionKind::Seed, "", "seed"},
};

/// Sets an Output, Fix or Model row from its text: the FILE, the fix
/// target (canonicalized; the fix flag goes on) or the memory model.
/// False when the text names no known target or model.
[[nodiscard]] bool setOptionText(const OptionRow& row, std::string_view text,
                                 RunOptions& o);

/// The value of a Fix, Model or Seed row as text.
[[nodiscard]] std::string optionText(const OptionRow& row,
                                     const RunOptions& o);

/// "unknown memory model 'x' (sc or tso)"; `lead` prefixes the accepted
/// values ("expected " in service errors).
[[nodiscard]] std::string unknownValueMessage(const OptionRow& row,
                                              std::string_view text,
                                              std::string_view lead);

}  // namespace cssame::driver
