#include "src/service/request_options.h"

#include <algorithm>

#include "src/driver/options.h"

namespace cssame::service {

namespace {

using driver::OptionKind;
using driver::OptionRow;
using EO = interp::ExploreOptions;

/// False, with the message in `err`, when `v` is present but not of
/// `kind`; absent keys read as null and keep their default.
bool typed(const Json& v, Json::Kind kind, std::string_view key,
           std::string& err) {
  if (v.isNull() || v.kind() == kind) return true;
  err = "option '" + std::string(key) + "' must be " +
        (kind == Json::Kind::Bool  ? "a boolean"
         : kind == Json::Kind::Int ? "an integer"
                                   : "a string");
  return false;
}

/// An explore budget and its default when the request omits it; every
/// budget is clamped to the library default, so a client cannot demand
/// an exploration bigger than the daemon would run for itself.
struct Budget {
  std::string_view name;
  std::uint64_t EO::*member;
  std::uint64_t dflt;
};
constexpr Budget kBudgets[] = {
    {"maxSteps", &EO::maxSteps, 1u << 16},
    {"maxStates", &EO::maxStates, 1u << 16},
    {"maxDepth", &EO::maxDepthPerRun, 1024},
    {"maxMemoryBytes", &EO::maxMemoryBytes, 64u << 20},
};
constexpr std::pair<std::string_view, bool EO::*> kExploreFlags[] = {
    {"detectRaces", &EO::detectRaces},
    {"recordValues", &EO::recordValues},
};

}  // namespace

Json encodeRunOptions(const driver::RunOptions& o) {
  Json options = Json::object();
  for (const OptionRow& row : driver::kOptionTable) {
    const std::string key(row.json);
    switch (row.kind) {
      case OptionKind::Seed: options.set(key, o.seed); break;
      case OptionKind::Model: options.set(key, optionText(row, o)); break;
      case OptionKind::Fix:
        if (o.*row.flag) options.set(key, o.*row.text);
        break;
      default: options.set(key, o.*row.flag);
    }
  }
  return options;
}

bool decodeRunOptions(const Json& options, driver::RunOptions& o,
                      std::string& err) {
  for (const OptionRow& row : driver::kOptionTable) {
    const Json& v = options.get(row.json);
    switch (row.kind) {
      case OptionKind::Seed:
        if (!typed(v, Json::Kind::Int, row.json, err)) return false;
        if (v.isInt()) o.seed = static_cast<std::uint64_t>(v.intValue());
        break;
      case OptionKind::Model:
      case OptionKind::Fix:
        if (!typed(v, Json::Kind::String, row.json, err)) return false;
        if (v.isString() && !setOptionText(row, v.stringValue(), o)) {
          err = unknownValueMessage(row, v.stringValue(), "expected ");
          return false;
        }
        break;
      default:
        if (!typed(v, Json::Kind::Bool, row.json, err)) return false;
        if (!v.isBool()) break;
        o.*row.flag = v.boolValue();
        // Mirror the CLI: --sarif/--json imply --csan.
        if (row.kind == OptionKind::Output && v.boolValue()) o.doCsan = true;
    }
  }
  return true;
}

bool decodeExploreOptions(const Json& options, EO& eo, std::string& key,
                          std::string& err) {
  const EO defaults;
  for (const Budget& b : kBudgets) {
    const Json& v = options.get(b.name);
    if (!typed(v, Json::Kind::Int, b.name, err)) return false;
    eo.*b.member = std::min(
        v.isInt() ? static_cast<std::uint64_t>(v.intValue()) : b.dflt,
        defaults.*b.member);
    key += ":" + std::to_string(eo.*b.member);
  }
  for (const auto& [name, flag] : kExploreFlags) {
    const Json& v = options.get(name);
    if (!typed(v, Json::Kind::Bool, name, err)) return false;
    eo.*flag = v.isBool() && v.boolValue();
    key += eo.*flag ? ":1" : ":0";
  }
  return true;
}

}  // namespace cssame::service
