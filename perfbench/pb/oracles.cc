#include "pb/oracles.h"

#include <set>
#include <sstream>
#include <vector>

#include "src/interp/explore.h"
#include "src/parser/parser.h"
#include "src/service/json.h"

namespace perfbench {

using cssame::service::Json;

namespace {

constexpr const char* kRaceTag = "warning [potential-data-race] ";

/// One potential-data-race diagnostic: its primary line, the variable it
/// names, and the lines of its notes (the other witness sites).
struct RaceDiag {
  std::uint32_t line = 0;
  std::string var;
  std::set<std::uint32_t> noteLines;
};

std::uint32_t leadingLine(const std::string& s, std::size_t from) {
  std::uint32_t v = 0;
  while (from < s.size() && s[from] >= '0' && s[from] <= '9')
    v = v * 10 + static_cast<std::uint32_t>(s[from++] - '0');
  return v;
}

std::vector<RaceDiag> parseRaces(const std::string& err) {
  std::vector<RaceDiag> races;
  std::istringstream in(err);
  std::string line;
  bool inRace = false;
  while (std::getline(in, line)) {
    if (line.rfind(kRaceTag, 0) == 0) {
      RaceDiag d;
      d.line = leadingLine(line, std::string(kRaceTag).size());
      const std::size_t q = line.find("variable '");
      if (q != std::string::npos) {
        const std::size_t start = q + 10;
        d.var = line.substr(start, line.find('\'', start) - start);
      }
      races.push_back(std::move(d));
      inRace = true;
    } else if (inRace && line.rfind("  note ", 0) == 0) {
      races.back().noteLines.insert(leadingLine(line, 7));
    } else {
      inRace = false;
    }
  }
  return races;
}

struct Explored {
  bool ok = false;
  cssame::interp::ExploreResult result;
};

Explored exploreFresh(const std::string& source) {
  Explored e;
  cssame::parser::ParseResult pr = cssame::parser::parseChecked(source);
  if (!pr.ok()) return e;
  cssame::interp::ExploreOptions opts;
  opts.detectRaces = true;
  opts.dpor = false;  // the unreduced sweep: independent of the reduction
  opts.workers = 1;
  e.result = cssame::interp::exploreAllSchedules(pr.program, opts);
  e.ok = true;
  return e;
}

}  // namespace

bool checkLockedVerdict(const LockedProgram& p, const std::string& err,
                        std::string& why) {
  const std::vector<RaceDiag> races = parseRaces(err);
  if (!p.injected) {
    if (races.empty()) return true;
    why = "race-free program reported " + std::to_string(races.size()) +
          " potential data race(s)";
    return false;
  }
  if (races.empty()) {
    why = "injected write of '" + p.injectedVar + "' on line " +
          std::to_string(p.injectedLine) + " was not reported";
    return false;
  }
  bool sawLine = false;
  for (const RaceDiag& d : races) {
    if (d.var != p.injectedVar) {
      why = "race reported on '" + d.var + "', injected was '" +
            p.injectedVar + "'";
      return false;
    }
    if (d.line == p.injectedLine || d.noteLines.contains(p.injectedLine))
      sawLine = true;
  }
  if (!sawLine) {
    why = "no race names the injected line " +
          std::to_string(p.injectedLine);
    return false;
  }
  return true;
}

bool checkRepair(const std::string& original, bool claimedFixed,
                 const std::string& patchedSource, std::string& why) {
  if (!claimedFixed) {
    why = "repair did not report the known race as fixed";
    return false;
  }
  const Explored before = exploreFresh(original);
  const Explored after = exploreFresh(patchedSource);
  if (!before.ok || !after.ok) {
    why = before.ok ? "patched source does not parse"
                    : "original source does not parse";
    return false;
  }
  if (!before.result.complete || !after.result.complete) {
    why = "exploration budget exhausted";
    return false;
  }
  if (!before.result.anyRace()) {
    why = "original program does not race";
    return false;
  }
  if (after.result.anyRace()) {
    why = "patched program still races";
    return false;
  }
  if (after.result.anyDeadlock || after.result.anyLockError) {
    why = "patched program deadlocks or misuses a lock";
    return false;
  }
  for (const auto& out : after.result.outputs)
    if (!before.result.outputs.contains(out)) {
      why = "patched program produces an output the original cannot";
      return false;
    }
  return true;
}

bool checkCsanResponse(const std::string& payload,
                       const cssame::driver::RunOutput& expected,
                       std::string& why, std::string* tier) {
  cssame::Expected<Json> env = cssame::service::parseJson(payload);
  if (!env) {
    why = "response is not JSON";
    return false;
  }
  if (!env->getBool("ok", false)) {
    why = "error envelope: " + env->get("error").write();
    return false;
  }
  const Json& result = env->get("result");
  if (result.getString("out", "") != expected.out ||
      result.getString("err", "") != expected.err ||
      result.getInt("code", -1) != expected.code) {
    why = "response differs from the standalone run";
    return false;
  }
  if (tier != nullptr) *tier = env->getString("cached", "");
  return true;
}

bool checkFixResponse(const std::string& payload,
                      const std::string& referencePayload,
                      std::string& why) {
  cssame::Expected<Json> env = cssame::service::parseJson(payload);
  cssame::Expected<Json> ref = cssame::service::parseJson(referencePayload);
  if (!env || !ref) {
    why = "response is not JSON";
    return false;
  }
  if (!env->getBool("ok", false)) {
    why = "error envelope: " + env->get("error").write();
    return false;
  }
  const Json& result = env->get("result");
  if (result.write() != ref->get("result").write()) {
    why = "response differs from the reference response";
    return false;
  }
  return true;
}

}  // namespace perfbench
