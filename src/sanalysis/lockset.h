// Lockset helpers for the static concurrency analyzers (csan, tso).
//
// An access site's lockset is MutexStructures::locksetAt(): the locks
// whose *well-formed* mutex bodies (paper Definition 3/4) contain the
// node — the must-hold notion the Section 6 race warnings are defined
// over. The lock-lifecycle checks, which also need *ill-formed* regions,
// use the held-locks dataflow (dataflow::HeldLocks) instead.
#pragma once

#include <set>
#include <string>

#include "src/ir/symbol.h"

namespace cssame::sanalysis {

[[nodiscard]] bool locksetsDisjoint(const std::set<SymbolId>& a,
                                    const std::set<SymbolId>& b);

/// Renders "{L, M}" / "{}" for diagnostics and witness notes.
[[nodiscard]] std::string locksetStr(const std::set<SymbolId>& lockset,
                                     const ir::SymbolTable& syms);

}  // namespace cssame::sanalysis
