#include "src/sanalysis/lockset.h"

namespace cssame::sanalysis {

bool locksetsDisjoint(const std::set<SymbolId>& a,
                      const std::set<SymbolId>& b) {
  for (SymbolId x : a)
    if (b.contains(x)) return false;
  return true;
}

std::string locksetStr(const std::set<SymbolId>& lockset,
                       const ir::SymbolTable& syms) {
  if (lockset.empty()) return "{}";
  std::string out = "{";
  bool first = true;
  for (SymbolId l : lockset) {
    if (!first) out += ", ";
    out += syms.nameOf(l);
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace cssame::sanalysis
