// The text-in/text-out analysis runner shared by cssamec and cssamed.
//
// One request = one source file plus the option set of the cssamec
// command line; one result = exactly the bytes the standalone tool would
// print (stdout and stderr separately) plus its exit code. Both the CLI
// and the analysis service call this single entry point, which is what
// makes service responses byte-identical to standalone runs *by
// construction* — there is no second rendering path to drift.
//
// RunOptions::cacheKey() canonicalizes the options into a stable string;
// the service folds it (with the source text and build fingerprint) into
// the 128-bit content address under which results are cached
// (docs/SERVICE.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/support/memmodel.h"

namespace cssame::ir {
class Program;
}

namespace cssame::driver {

/// The cssamec per-file option set (everything except --jobs/--connect,
/// which shape the process, not one analysis): one row each of
/// kOptionTable (src/driver/options.h).
struct RunOptions {
  bool dumpPfg = false;
  bool dumpForm = false;
  bool cssame = true;
  bool doOpt = false;
  bool doRun = false;
  bool doRaces = false;
  bool doStats = false;
  bool doCsan = false;
  bool doSarif = false;  ///< implies csan
  bool doJson = false;   ///< implies csan
  bool doVrange = false;
  bool doTso = false;
  bool doPointsTo = false;
  /// Read-only (the explorer forks machine copies), so it is cacheable
  /// and valid on the runCompiled fast path.
  bool doExplore = false;
  bool dpor = true;
  /// Prints the verified patched program plus a line diff. Re-parses and
  /// re-explores candidate programs, so like --opt/--run it is excluded
  /// from the runCompiled fast path.
  bool doFix = false;
  /// Canonical target name ("all", "race", "may-alias", "tso", "fence").
  std::string fixTarget = "all";
  /// SC preserves every pre-TSO seeded schedule bit-identically; TSO adds
  /// per-thread store buffers (buffered stores flush as separate
  /// scheduler actions).
  support::MemoryModel memoryModel = support::MemoryModel::SC;
  /// Output files for --sarif=FILE/--json=FILE; empty = the buffered
  /// stdout stream, the only form the service uses.
  std::string sarifPath, jsonPath;
  std::uint64_t seed = 1;

  /// Canonical, stable rendering of every field that affects the output
  /// bytes — the options part of the service's cache key, generated from
  /// kOptionTable. Two option sets with equal cacheKey() produce
  /// identical results for identical sources.
  [[nodiscard]] std::string cacheKey() const;
};

/// What the run would have printed, plus its exit code.
struct RunOutput {
  std::string out;  ///< stdout bytes
  std::string err;  ///< stderr bytes
  int code = 0;     ///< process exit code (0 ok, 1 errors found)
};

/// Parses and analyzes `source` under `opts`, producing the exact bytes
/// `cssamec [opts] <file>` prints for that file. `fileName` appears in
/// SARIF/JSON artifact URIs and error messages; it is presentation only
/// (never opened). Never throws: pipeline faults become diagnostics on
/// the error stream and a nonzero code.
[[nodiscard]] RunOutput runSource(std::string_view source,
                                  const std::string& fileName,
                                  const RunOptions& opts);

class Compilation;

/// The cache-hit fast path: renders the same bytes runSource() would
/// produce, from an already-analyzed compilation, skipping parse and the
/// whole analysis chain. Only valid for read-only option sets —
/// `opts.doOpt`, `opts.doRun` and `opts.doFix` mutate, execute or repair
/// the program and must take the runSource() path (enforced: they yield
/// an error output). The
/// compilation is shared across concurrent callers, so everything here
/// goes through its const, thread-safe accessors. `preErr` carries the
/// rendered parse diagnostics of the parse that produced `prog` (empty
/// for clean parses), keeping the error stream's line order identical to
/// a cold run.
[[nodiscard]] RunOutput runCompiled(const ir::Program& prog,
                                    const Compilation& c,
                                    const std::string& preErr,
                                    const std::string& fileName,
                                    const RunOptions& opts);

}  // namespace cssame::driver
