// Shared helpers for the experiment benchmarks: each bench binary prints
// a paper-vs-measured table for its figure before running the
// google-benchmark timing loops, so `./bench_*` regenerates both the
// qualitative result and its compile-time cost.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "src/service/json.h"

namespace cssame::benchutil {

/// Worker count for schedule explorations, from the CSSAME_EXPLORE_WORKERS
/// environment variable (default 1, 0 = one per hardware thread). The
/// explorer's result is identical for every worker count, so this only
/// changes wall-clock time — every reported metric stays comparable
/// across settings.
inline unsigned exploreWorkers() {
  const char* env = std::getenv("CSSAME_EXPLORE_WORKERS");
  return env == nullptr
             ? 1u
             : static_cast<unsigned>(std::strtoul(env, nullptr, 10));
}

/// Partial-order reduction toggle for the bench explorations, from
/// CSSAME_EXPLORE_DPOR (default on; "0" runs the unreduced sweep). Every
/// contract field a bench asserts on — outputs, racedVars, the verdict
/// bits — is identical either way, so like exploreWorkers() this only
/// moves wall-clock time; observedRanges may shrink to a subset with the
/// reduction on (still valid for the vrange lower-bound oracle).
inline bool exploreDpor() {
  const char* env = std::getenv("CSSAME_EXPLORE_DPOR");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

/// Indented JSON rendering with six significant digits per double — the
/// shape of the committed BENCH_*.json files.
inline void writePretty(std::ostream& out, const service::Json& v,
                        int indent = 0) {
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  if (v.isObject() && !v.members().empty()) {
    out << "{\n";
    const auto& members = v.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      out << pad << service::Json(members[i].first).write() << ": ";
      writePretty(out, members[i].second, indent + 2);
      out << (i + 1 < members.size() ? ",\n" : "\n");
    }
    out << std::string(static_cast<std::size_t>(indent), ' ') << "}";
  } else if (v.isArray() && !v.items().empty()) {
    out << "[\n";
    for (std::size_t i = 0; i < v.items().size(); ++i) {
      out << pad;
      writePretty(out, v.items()[i], indent + 2);
      out << (i + 1 < v.items().size() ? ",\n" : "\n");
    }
    out << std::string(static_cast<std::size_t>(indent), ' ') << "]";
  } else if (v.kind() == service::Json::Kind::Double) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v.doubleValue());
    out << buf;
  } else {
    out << v.write();
  }
}

/// Merges the members of `update` (an object) into the JSON object in
/// `path`: a member already in the file is replaced where it stands,
/// a new one is appended, and every other member of the file is kept, so
/// benches that own different sections of one file can run in any
/// order. The file is created if missing or unreadable.
inline void mergeJsonFile(const char* path, const service::Json& update) {
  service::Json merged = service::Json::object();
  std::ifstream in(path);
  if (in) {
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = service::parseJson(text.str());
    if (parsed.ok() && parsed.value().isObject())
      for (const auto& [key, value] : parsed.value().members())
        merged.set(key, update.get(key).isNull() ? value : update.get(key));
  }
  in.close();
  for (const auto& [key, value] : update.members())
    if (merged.get(key).isNull()) merged.set(key, value);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  writePretty(out, merged);
  out << "\n";
}

inline void tableHeader(const char* experiment) {
  std::printf("== %s ==\n", experiment);
  std::printf("%-44s | %-18s | %-18s | %s\n", "metric", "paper", "measured",
              "ok");
  std::printf("%.44s-+-%.18s-+-%.18s-+---\n",
              "--------------------------------------------",
              "------------------", "------------------");
}

inline void tableRow(const char* metric, const char* paper,
                     long long measured, bool ok) {
  std::printf("%-44s | %-18s | %-18lld | %s\n", metric, paper, measured,
              ok ? "yes" : "NO");
}

inline void tableRowStr(const char* metric, const char* paper,
                        const char* measured, bool ok) {
  std::printf("%-44s | %-18s | %-18s | %s\n", metric, paper, measured,
              ok ? "yes" : "NO");
}

/// Runs the verification table, then hands control to google-benchmark.
/// Returns nonzero if any table row failed, so the harness can flag
/// regressions.
inline int runBenchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace cssame::benchutil
