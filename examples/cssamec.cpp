// cssamec — command line driver for the CSSAME compiler library.
//
// Usage:
//   cssamec [options] <file.cp> [more files...]
//
// Options (the analysis ones are the rows of src/driver/options.h):
//   --dump-pfg        print the Parallel Flow Graph as Graphviz DOT
//   --dump-form       print the CSSA/CSSAME form (like the paper's Fig. 3)
//   --no-cssame       stop at plain CSSA (skip the π rewriting)
//   --opt             run CSCC + PDCE + LICM and print the optimized program
//   --run [seed]      execute under the interleaving interpreter
//   --races           run the lock-consistency data race checks
//   --stats           print analysis statistics and per-phase wall-clock
//   --csan            run the full static concurrency analyzer
//   --vrange          run the concurrent value-range analysis (CVRA)
//   --tso             run the TSO weak-memory analysis (reorderable
//                     store/load pairs; redundant fences)
//   --points-to       print the concurrent points-to solution (per deref
//                     site targets, pointer-holding cells, solver stats)
//   --explore         exhaustively enumerate every schedule (bounded) and
//                     print the output set plus deadlock / lock-error /
//                     assertion verdicts
//   --no-dpor         disable dynamic partial-order reduction during
//                     --explore (the unreduced sweep: slower, identical
//                     verdicts)
//   --fix[=TARGET]    synthesize and print a verified repair for the
//                     analyses' findings; TARGET is all (default), race,
//                     may-alias, tso, fence, or a diagnostic code name;
//                     exit 1 when some finding has no safe fix
//   --memory-model=M  memory model for --run and --explore: sc (default)
//                     or tso (plain stores buffer per thread and flush
//                     asynchronously)
//   --sarif[=FILE]    emit all diagnostics as SARIF 2.1.0 (implies --csan);
//                     FILE defaults to stdout
//   --json[=FILE]     emit all diagnostics as compact JSON (implies --csan);
//                     FILE defaults to stdout
//   --jobs=N          analyze the input files on N threads (0 = one per
//                     hardware thread); output stays in input order
//   --connect=SOCK    send the files to a running cssamed at Unix socket
//                     SOCK instead of analyzing in-process; output is
//                     byte-identical to a local run (both sides call the
//                     same driver::runSource)
//   --timeout-ms=N    client-side deadline per request in --connect mode
//                     (default 30000; negative waits forever). A timed-out
//                     or failed exchange is retried once on a fresh
//                     connection after a small jittered pause — a daemon
//                     mid-restart gets one chance to come back — and then
//                     reported as a clear error with exit code 1.
//   --version         print version and build fingerprint, then exit
//
// With several input files each file is analyzed independently; with
// --jobs=N the analyses run concurrently on a thread pool, and each
// file's stdout/stderr is buffered and flushed in input order, so the
// output is byte-identical for every job count. --sarif=FILE/--json=FILE
// are single-file options (the streams would overwrite each other).
//
// SIGINT/SIGTERM during a batch run stop scheduling new files, flush the
// buffered output of every file already analyzed (in input order, as
// usual), and exit 130 — a killed batch never loses finished work.
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/driver/options.h"
#include "src/driver/runner.h"
#include "src/service/json.h"
#include "src/service/protocol.h"
#include "src/service/request_options.h"
#include "src/support/io.h"
#include "src/support/threadpool.h"
#include "src/support/version.h"

using namespace cssame;

namespace {

struct Options {
  driver::RunOptions run;
  unsigned jobs = 1;
  std::string connectPath;
  /// Per-request wall-clock budget in --connect mode; negative disables.
  int timeoutMs = 30000;
};

/// Set by the SIGINT/SIGTERM handler; the batch loop polls it before
/// starting each file.
std::atomic<bool> gInterrupted{false};

void onSignal(int) { gInterrupted.store(true, std::memory_order_relaxed); }

/// The option-table rows (file-writing ones last), then the process ones.
void usage() {
  // The value syntax of each OptionKind, in declaration order.
  constexpr const char* kSyntax[] = {"",          " [seed]", "[=FILE]",
                                     "[=TARGET]", "=sc|tso", ""};
  std::string line = "usage: cssamec";
  for (const bool outputs : {false, true})
    for (const driver::OptionRow& row : driver::kOptionTable)
      if (!row.cli.empty() &&
          (row.kind == driver::OptionKind::Output) == outputs)
        line += " [" + std::string(row.cli) +
                kSyntax[static_cast<int>(row.kind)] + "]";
  std::fprintf(stderr,
               "%s [--jobs=N] [--connect=SOCK] [--timeout-ms=N] "
               "[--version] <file> [more files...]\n",
               line.c_str());
  std::exit(2);
}

/// Applies argv[i] if it spells an option-table row (and --run's seed);
/// false when no row matches. An unknown fix target or model exits 2.
bool parseTableOption(int argc, char** argv, int& i, driver::RunOptions& o) {
  using driver::OptionKind;
  const std::string_view arg = argv[i];
  for (const driver::OptionRow& row : driver::kOptionTable) {
    if (row.cli.empty() || !arg.starts_with(row.cli)) continue;
    const std::string_view rest = arg.substr(row.cli.size());
    // `--x` alone suits every kind but Model; `--x=V` only valued kinds.
    if (rest.empty() ? row.kind == OptionKind::Model
                     : rest[0] != '=' || row.kind == OptionKind::Flag ||
                           row.kind == OptionKind::Run)
      continue;
    if (row.flag) o.*row.flag = !(driver::RunOptions{}.*row.flag);
    if (row.kind == OptionKind::Output) o.doCsan = true;
    if (!rest.empty() && !driver::setOptionText(row, rest.substr(1), o)) {
      std::fprintf(
          stderr, "cssamec: %s\n",
          driver::unknownValueMessage(row, rest.substr(1), "").c_str());
      std::exit(2);
    }
    if (row.kind == OptionKind::Run && i + 1 < argc &&
        std::isdigit(static_cast<unsigned char>(argv[i + 1][0])))
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    return true;
  }
  return false;
}

/// Reads one input file; returns false (with a message in `err`) when it
/// cannot be opened.
bool readFile(const std::string& file, std::string& source,
              std::string& err) {
  std::ifstream in(file);
  if (!in) {
    err += "cssamec: cannot open '" + file + "'\n";
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  source = buf.str();
  return true;
}

/// Analyzes one input file in-process. Returns the per-file exit code.
int processFile(const std::string& file, const driver::RunOptions& o,
                std::string& out, std::string& err) {
  std::string source;
  if (!readFile(file, source, err)) return 1;
  driver::RunOutput r = driver::runSource(source, file, o);
  out += r.out;
  err += r.err;
  return r.code;
}

/// Client mode: ships each file to a running cssamed and unpacks the
/// response into the same (out, err, code) triple a local run produces.
/// Every frame carries the client deadline, so a wedged or dead daemon
/// surfaces as a bounded failure, never a hang. `transportFailed` is set
/// when the *connection* broke (send/recv failure or timeout — the stream
/// is desynchronized and must be abandoned), as opposed to the daemon
/// answering with a structured error.
int processRemote(const service::Json& request, support::FdStream& conn,
                  std::size_t maxPayload, int timeoutMs, std::string& out,
                  std::string& err, bool* transportFailed = nullptr) {
  if (transportFailed) *transportFailed = false;
  const support::Deadline deadline = support::Deadline::in(timeoutMs);
  if (Status s = service::writeFrameDeadline(conn, request.write(),
                                             maxPayload, deadline);
      !s.ok()) {
    err += "cssamec: send failed: " + s.fault().message + "\n";
    if (transportFailed) *transportFailed = true;
    return 1;
  }
  std::string payload;
  const service::FrameStatus fs =
      service::readFrameDeadline(conn, payload, maxPayload, deadline);
  if (fs != service::FrameStatus::Ok) {
    err += std::string("cssamec: bad response frame: ") +
           service::frameStatusName(fs) + "\n";
    if (transportFailed) *transportFailed = true;
    return 1;
  }
  Expected<service::Json> response = service::parseJson(payload);
  if (!response) {
    err += "cssamec: unparseable response: " + response.fault().message +
           "\n";
    return 1;
  }
  if (!response->getBool("ok", false)) {
    const service::Json& fault = response->get("error");
    err += "cssamec: server error [" + fault.getString("kind", "?") +
           "/" + fault.getString("stage", "?") +
           "]: " + fault.getString("message", "") + "\n";
    return 1;
  }
  const service::Json& result = response->get("result");
  out += result.getString("out", "");
  err += result.getString("err", "");
  return static_cast<int>(result.getInt("code", 0));
}

/// One request with one recovery attempt: when the exchange breaks (the
/// daemon died, was restarting, or timed out), pause a jittered moment —
/// so a thundering herd of clients doesn't reconnect in lockstep — and
/// retry once on a fresh connection. The first attempt's error text is
/// discarded if the retry succeeds; otherwise the retry's error stands.
int processRemoteWithRetry(const service::Json& request,
                           support::FdStream& conn,
                           const std::string& connectPath,
                           std::size_t maxPayload, int timeoutMs,
                           std::string& out, std::string& err) {
  std::string out1, err1;
  bool transportFailed = false;
  const int code = processRemote(request, conn, maxPayload, timeoutMs, out1,
                                 err1, &transportFailed);
  if (!transportFailed) {
    out += out1;
    err += err1;
    return code;
  }
  const int jitterMs = 10 + static_cast<int>(::getpid() % 50);
  std::this_thread::sleep_for(std::chrono::milliseconds(jitterMs));
  Expected<support::FdStream> fresh = support::connectUnix(connectPath);
  if (!fresh) {
    err += err1;
    err += "cssamec: reconnect to '" + connectPath +
           "' failed: " + fresh.fault().message + "\n";
    return 1;
  }
  conn = std::move(*fresh);
  std::string out2, err2;
  const int retryCode = processRemote(request, conn, maxPayload, timeoutMs,
                                      out2, err2, &transportFailed);
  if (transportFailed) err += err1;  // both attempts failed: report both
  out += out2;
  err += err2;
  return retryCode;
}

/// With --stats in --connect mode, asks the daemon for its `stats` body
/// and renders the fleet-health section (when the far end is a fleet
/// gateway): routing/retry/fallback/deadline counters and per-worker
/// restart counts. Returns the empty string for a standalone daemon (or
/// any failure); the caller prints to stderr after the per-file output,
/// like the local per-phase stats.
std::string fleetHealthReport(support::FdStream& conn,
                              std::size_t maxPayload, int timeoutMs) {
  service::Json request = service::Json::object();
  request.set("id", "stats").set("method", "stats");
  const support::Deadline deadline = support::Deadline::in(timeoutMs);
  if (Status s = service::writeFrameDeadline(conn, request.write(),
                                             maxPayload, deadline);
      !s.ok())
    return "";
  std::string payload;
  if (service::readFrameDeadline(conn, payload, maxPayload, deadline) !=
      service::FrameStatus::Ok)
    return "";
  Expected<service::Json> response = service::parseJson(payload);
  if (!response || !response->getBool("ok", false)) return "";
  const service::Json& result = response->get("result");
  const service::Json& fleet = result.get("fleet");
  if (!fleet.isObject()) return "";  // a standalone daemon: nothing to add
  auto n = [&fleet](const char* key) {
    return std::to_string(fleet.getInt(key, 0));
  };
  std::string report = "== service fleet health\n";
  report += "gateway: " + n("workers") + " workers, " + n("requests") +
            " requests (" + n("routed") + " routed, " + n("retried") +
            " retried, " + n("fallbacks") + " fallbacks, " +
            n("deadlines") + " deadline expiries)\n";
  report += "supervision: " + n("workerDeaths") + " worker deaths, " +
            n("restarts") + " restarts (" + n("failedRestarts") +
            " failed), " + n("breakerTrips") + " breaker trips, " +
            n("probeFailures") + "/" + n("probes") + " probes failed\n";
  for (const service::Json& slot : result.get("slots").items()) {
    report += "worker " + std::to_string(slot.getInt("slot", -1)) + ": " +
              slot.getString("state", "?") + ", restarts " +
              std::to_string(slot.getInt("restarts", 0)) + "\n";
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("%s\n", support::versionLine("cssamec").c_str());
      return 0;
    } else if (parseTableOption(argc, argv, i, o.run)) {
      continue;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      o.jobs = static_cast<unsigned>(std::strtoul(arg + 7, nullptr, 10));
    } else if (std::strncmp(arg, "--connect=", 10) == 0) {
      o.connectPath = arg + 10;
    } else if (std::strncmp(arg, "--timeout-ms=", 13) == 0) {
      o.timeoutMs = static_cast<int>(std::strtol(arg + 13, nullptr, 10));
    } else if (arg[0] == '-') {
      usage();
    } else {
      files.emplace_back(arg);
    }
  }
  if (files.empty()) usage();
  if (files.size() > 1 &&
      (!o.run.sarifPath.empty() || !o.run.jsonPath.empty())) {
    std::fprintf(stderr,
                 "cssamec: --sarif=FILE/--json=FILE take a single input "
                 "file (outputs would overwrite each other)\n");
    return 2;
  }
  if (!o.connectPath.empty() &&
      (!o.run.sarifPath.empty() || !o.run.jsonPath.empty())) {
    std::fprintf(stderr,
                 "cssamec: --sarif=FILE/--json=FILE cannot be combined "
                 "with --connect (the daemon does not write client "
                 "files)\n");
    return 2;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  std::vector<std::string> outs(files.size()), errs(files.size());
  std::string fleetHealth;
  std::vector<int> codes(files.size(), 0);
  // char, not bool: vector<bool> packs bits, and parallel workers writing
  // adjacent elements would race on the shared bytes.
  std::vector<char> ran(files.size(), 0);

  if (!o.connectPath.empty()) {
    // Client mode: one connection, files in order. The daemon runs the
    // same driver::runSource this binary would, so the flushed bytes are
    // identical to a local run.
    Expected<support::FdStream> conn = support::connectUnix(o.connectPath);
    if (!conn) {
      std::fprintf(stderr, "cssamec: cannot connect to '%s': %s\n",
                   o.connectPath.c_str(), conn.fault().message.c_str());
      return 1;
    }
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (gInterrupted.load(std::memory_order_relaxed)) break;
      std::string source;
      if (!readFile(files[i], source, errs[i])) {
        codes[i] = 1;
        ran[i] = true;
        continue;
      }
      // The daemon decodes the options back into the identical
      // driver::RunOptions.
      service::Json request = service::Json::object();
      request.set("id", i)
          .set("method", "analyze")
          .set("file", files[i])
          .set("source", source)
          .set("options", service::encodeRunOptions(o.run));
      codes[i] = processRemoteWithRetry(request, *conn, o.connectPath,
                                        service::kDefaultMaxPayload,
                                        o.timeoutMs, outs[i], errs[i]);
      ran[i] = true;
    }
    if (o.run.doStats && conn->valid() &&
        !gInterrupted.load(std::memory_order_relaxed))
      fleetHealth = fleetHealthReport(*conn, service::kDefaultMaxPayload,
                                      o.timeoutMs);
  } else {
    support::ThreadPool pool(o.jobs);
    pool.parallelFor(files.size(), [&](std::size_t i, unsigned) {
      // A signal stops new work; files already being analyzed finish and
      // their buffered output is flushed below.
      if (gInterrupted.load(std::memory_order_relaxed)) return;
      codes[i] = processFile(files[i], o.run, outs[i], errs[i]);
      ran[i] = true;
    });
  }

  int code = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!ran[i]) continue;
    if (files.size() > 1 && (!outs[i].empty() || !errs[i].empty())) {
      std::fprintf(stderr, "== %s\n", files[i].c_str());
    }
    std::fwrite(outs[i].data(), 1, outs[i].size(), stdout);
    std::fwrite(errs[i].data(), 1, errs[i].size(), stderr);
    if (code == 0) code = codes[i];
  }
  std::fwrite(fleetHealth.data(), 1, fleetHealth.size(), stderr);
  if (gInterrupted.load(std::memory_order_relaxed)) {
    std::fflush(stdout);
    std::fprintf(stderr, "cssamec: interrupted; flushed completed files\n");
    return 130;
  }
  return code;
}
