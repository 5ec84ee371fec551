#include "src/driver/options.h"

#include "src/repair/candidates.h"

namespace cssame::driver {

bool setOptionText(const OptionRow& row, std::string_view text,
                   RunOptions& o) {
  repair::FixTarget target = repair::FixTarget::All;
  switch (row.kind) {
    case OptionKind::Output: o.*row.text = text; return true;
    case OptionKind::Model:
      return support::parseMemoryModel(text, o.memoryModel);
    case OptionKind::Fix:
      if (!repair::parseFixTarget(text, target)) return false;
      o.*row.flag = true;
      o.*row.text = repair::fixTargetName(target);
      return true;
    default: return false;
  }
}

std::string optionText(const OptionRow& row, const RunOptions& o) {
  switch (row.kind) {
    case OptionKind::Model: return support::memoryModelName(o.memoryModel);
    case OptionKind::Seed: return std::to_string(o.seed);
    default: return row.text ? o.*row.text : std::string();
  }
}

std::string unknownValueMessage(const OptionRow& row, std::string_view text,
                                std::string_view lead) {
  const bool model = row.kind == OptionKind::Model;
  return "unknown " + std::string(model ? "memory model" : "fix target") +
         " '" + std::string(text) + "' (" + std::string(lead) +
         (model ? "sc or tso)"
                : "all, race, may-alias, tso, fence, or a diagnostic code "
                  "name)");
}

std::string RunOptions::cacheKey() const {
  // "v5:", one bit per bool row, then the valued rows (the Output files
  // last). The tag is persisted inside disk-cache addresses: bump it if
  // the rendering ever changes meaning. Every field is keyed
  // unconditionally, so a fix response never answers a read method and
  // an SC-cached response never answers a TSO request.
  std::string key = "v5:";
  for (const OptionRow& row : kOptionTable)
    if (row.flag) key += this->*row.flag ? '1' : '0';
  for (const bool outputs : {false, true})
    for (const OptionRow& row : kOptionTable)
      if (row.kind != OptionKind::Flag && row.kind != OptionKind::Run &&
          (row.kind == OptionKind::Output) == outputs)
        key += ":" +
               std::string(row.kind == OptionKind::Model ? "mm" : row.json) +
               "=" + optionText(row, *this);
  return key;
}

}  // namespace cssame::driver
