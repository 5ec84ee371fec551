// perfbench: the repository benchmark program.
//
//   perfbench --workload <csan_locked|fix_racy|service_mix> --seed N
//             --seconds S --trace 0|1
//   perfbench --selftest-oracles
//
// One invocation runs one workload in its own process. The untraced run
// (--trace 0) prints the end-to-end metrics; the traced run (--trace 1)
// prints the per-layer metrics. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it holds
// the run's context (hardware threads, build type, compiler). Progress and
// oracle failures go to stderr. See perfbench/README.md.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "pb/bench.h"
#include "pb/oracles.h"
#include "pb/rotate.h"
#include "pb/trace.h"
#include "pb/workloads.h"
#include "src/repair/repair.h"
#include "src/service/json.h"
#include "src/service/server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

// Short enough that a fix_racy op (~40 ms) visits every vCPU once and a
// csan_locked op (~110 ms) about three times.
constexpr std::chrono::microseconds kRotatePeriod{10000};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  return cssame::service::Json(s).write();
}

void printResult(const Args& args, const RunResult& r) {
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"hardware_threads\": %u, \"build_type\": %s, "
      "\"compiler\": %s}}\n",
      quoted(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_COMPILER).c_str());
  std::string line = "{\"correct\": ";
  line += r.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += quoted(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Feeds each oracle one genuine result, which it must accept, and one
/// deliberately corrupted result, which it must reject.
int selftestOracles() {
  int bad = 0;
  std::string why;
  auto expect = [&](const char* name, bool got, bool want) {
    const bool ok = got == want;
    std::printf("%-52s %s\n", name, ok ? "ok" : "FAILED");
    if (!ok) {
      std::printf("  (%s)\n", want ? why.c_str() : "accepted");
      ++bad;
    }
  };
  Rng rng = streamFor(7, "selftest");
  const cssame::driver::RunOptions lopts = lockedOptions();

  const LockedProgram clean = makeLockedProgram(rng, false);
  const LockedProgram racy = makeLockedProgram(rng, true);
  const std::string cleanErr =
      cssame::driver::runSource(clean.source, kFileName, lopts).err;
  const std::string racyErr =
      cssame::driver::runSource(racy.source, kFileName, lopts).err;
  expect("csan_locked: race-free verdict accepted",
         checkLockedVerdict(clean, cleanErr, why), true);
  expect("csan_locked: injected verdict accepted",
         checkLockedVerdict(racy, racyErr, why), true);
  expect("csan_locked: flipped verdict (race dropped) rejected",
         checkLockedVerdict(racy, cleanErr, why), false);
  expect("csan_locked: flipped verdict (race invented) rejected",
         checkLockedVerdict(clean, racyErr, why), false);

  const RacyProgram fixable = makeRacyProgram(rng);
  const cssame::repair::RepairResult res = cssame::repair::repairSource(
      fixable.source, cssame::repair::FixTarget::All);
  const bool fixed = res.status == cssame::repair::RepairStatus::Fixed;
  expect("fix_racy: verified repair accepted",
         checkRepair(fixable.source, fixed, res.patchedSource, why), true);
  expect("fix_racy: unpatched source claimed fixed rejected",
         checkRepair(fixable.source, true, fixable.source, why), false);
  expect("fix_racy: repair not reported as fixed rejected",
         checkRepair(fixable.source, false, res.patchedSource, why), false);

  const std::string source = makeServiceSource(11);
  const cssame::driver::RunOutput standalone =
      cssame::driver::runSource(source, kFileName, serviceOptions());
  cssame::service::Server server(serviceMixServerOptions());
  const std::string response =
      server.handlePayload(csanRequest(1, source, false));
  expect("service: byte-identical response accepted",
         checkCsanResponse(response, standalone, why), true);
  // Change one byte inside the response's "err" string.
  std::string corrupted = response;
  const std::size_t at = corrupted.find("\"err\":\"") + 7;
  corrupted[at] = corrupted[at] == 'x' ? 'y' : 'x';
  expect("service: one-byte response change rejected",
         checkCsanResponse(corrupted, standalone, why), false);
  const std::string fixResp =
      server.handlePayload(fixRequest(2, fixable.source));
  std::string fixCorrupted = fixResp;
  const std::size_t fat = fixCorrupted.find("\"patchedSource\":\"") + 17;
  fixCorrupted[fat] = fixCorrupted[fat] == 'x' ? 'y' : 'x';
  expect("service: fix response equal to itself accepted",
         checkFixResponse(fixResp, fixResp, why), true);
  expect("service: one-byte fix response change rejected",
         checkFixResponse(fixCorrupted, fixResp, why), false);
  return bad == 0 ? 0 : 1;
}

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveWorkload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
      haveWorkload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atoi(v);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return haveWorkload && argc % 2 == 1 && a.seconds >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest-oracles") == 0)
    return selftestOracles();
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  // csan_locked and fix_racy run each op on one thread, which is moved
  // across every vCPU (see pb/rotate.h). service_mix's four busy threads
  // already spread over them.
  std::optional<CpuRotator> rotator;
  if (args.workload != "service_mix") rotator.emplace(kRotatePeriod);
  RunResult r;
  if (args.workload == "csan_locked") {
    r = args.trace ? traceCsanLocked(args) : runCsanLocked(args);
  } else if (args.workload == "fix_racy") {
    r = args.trace ? traceFixRacy(args) : runFixRacy(args);
  } else if (args.workload == "service_mix") {
    r = args.trace ? traceServiceMix(args) : runServiceMix(args);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  printResult(args, r);
  return 0;
}
