// Dynamic partial-order reduction for the schedule explorer.
//
// The explorer enumerates interleavings; most of them are equivalent
// permutations of independent actions (Mazurkiewicz traces). This module
// computes, per dynamic state, which enabled actions actually need
// expansion:
//
//  - a *persistent set* (Godefroid): a subset P of the enabled actions
//    such that every action reachable without executing P is independent
//    with all of P. Exploring only P from the state preserves every
//    terminal state, deadlock, assertion failure and error flag of the
//    full search. The closure is seeded with the first enabled thread
//    and pulls in every thread whose *static whole-body footprint*
//    (src/ir — the same conflict information the CSSAME construction
//    derives from its conflict edges: common sync symbol, common symbol
//    with a write, or an everything-conflicts global action) may clash
//    with an enabled action's *dynamic* facts. Blocked threads that join
//    the closure contribute a necessary-enabling set instead: the lock
//    holder, every potential event setter, the first unfinished child,
//    the first blocking barrier sibling — whoever must move first before
//    the blocked operation can fire.
//
//  - the pairwise *dependence masks* the sleep-set layer needs: two
//    enabled actions are dependent iff they belong to the same thread,
//    either is global (assert / cobegin), both print, both are barrier
//    operations, both touch the same sync symbol, their dynamically
//    resolved memory cells conflict with a write, or their frame-unwind
//    loop-condition reads overlap a write at symbol granularity. TSO
//    note: a buffered store counts as a write of its target cell even
//    though commit happens at a later flush — keeping the pair dependent
//    is what preserves `racedVars` bit-exactly under reduction.
//
// Everything here is a pure function of the machine state, which is what
// lets the explorer run it in its deterministic classify phase: the
// result cannot depend on the worker count.
//
// Under SC the reduced explorer also runs some mutex bodies as single
// steps (AtomicBodies below): an acquire of such a lock executes the
// body through its unlock in the same successor.
//
// Soundness caveat (shared discipline): dependence only tracks *shared*
// variables, mirroring the race oracle — the parser scopes thread-local
// declarations to their thread body, so cross-thread access to a
// non-shared symbol cannot be expressed.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/interp/machine.h"
#include "src/ir/program.h"

namespace cssame::interp::dpor {

/// Static over-approximation of everything one thread body (and every
/// thread it may transitively spawn) can do, at symbol granularity.
struct Footprint {
  std::vector<bool> reads;   ///< per symbol: some statement may read it
  std::vector<bool> writes;  ///< per symbol: some statement may write it
  std::vector<bool> syncs;   ///< per symbol: lock/unlock/set/wait on it
  std::vector<bool> sets;    ///< per symbol: a Set(e) may post the event
  bool anywhereRead = false;   ///< a pointer deref may read any cell
  bool anywhereWrite = false;  ///< a pointer deref may write any cell
  bool hasBarrier = false;
  bool hasPrint = false;
  /// Contains an assert or cobegin — conflicts with everything.
  bool hasGlobal = false;
  bool hasAnyWrite = false;  ///< any writes bit set, or anywhereWrite
};

/// Whole-body footprints for every spawnable thread body of a program:
/// the program body (main) plus each cobegin arm, keyed by the arm's
/// statement list — the same pointer Machine::rootListOf reports.
class StaticFootprints {
 public:
  explicit StaticFootprints(const ir::Program& prog);

  /// Footprint of a thread body, or nullptr for an unknown list (the
  /// caller then falls back to full expansion — never unsound).
  [[nodiscard]] const Footprint* of(const ir::StmtList* body) const {
    auto it = byBody_.find(body);
    return it == byBody_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<const ir::StmtList*, Footprint> byBody_;
};

/// The mutex bodies the SC explorer runs as one step with their lock —
/// Lipton reduction, the dynamic twin of the paper's Theorems 1 and 2: a
/// lock is a right-mover, an unlock a left-mover, and an access to a
/// variable only ever touched under the same lock commutes with
/// everything another thread can do meanwhile. `lock(L)` starts a
/// qualifying body when, in its own statement list,
///
///  - the first later statement that locks or unlocks L (at any nesting)
///    is an `unlock(L)`, and everything between is a straight run of
///    non-atomic assignments and call statements without pointer
///    operations — so no print, assert, fence, sync, barrier, branch,
///    loop or cobegin;
///  - every shared variable the body touches is L-consistent: each of
///    its accesses inside any cobegin arm, at any nesting, sits
///    lexically between a `lock(L)` and its unlock in the accessing
///    arm's own code. Main-thread accesses outside every cobegin are
///    exempt (main is joining while any arm runs);
///  - it is not inside a top-level cobegin whose arms take an address or
///    dereference a pointer anywhere (a pointer may name any cell).
///
/// docs/PERFORMANCE.md gives the soundness argument.
class AtomicBodies {
 public:
  explicit AtomicBodies(const ir::Program& prog);

  /// The body enabled action `a` of `machine` runs after its acquire, or
  /// nullptr when `a` is not an acquire of a qualifying lock (a program
  /// step or WaitLock resume at the lock, with the lock free).
  [[nodiscard]] const AtomicBody* of(const Machine& machine,
                                     Machine::Action a) const;

  /// Number of qualifying lock statements.
  [[nodiscard]] std::size_t size() const { return byLock_.size(); }

 private:
  std::unordered_map<const ir::Stmt*, AtomicBody> byLock_;
};

/// Action key: bit index identifying one scheduler action of a state —
/// thread index times two, plus one for the store-buffer flush action.
/// Fits 32 threads in a 64-bit mask; states with more threads fall back
/// to full expansion.
[[nodiscard]] inline unsigned actionKey(Machine::Action a) {
  return static_cast<unsigned>(a.thread) * 2u + (a.flush ? 1u : 0u);
}
[[nodiscard]] inline std::uint64_t actionKeyBit(Machine::Action a) {
  return 1ull << actionKey(a);
}
inline constexpr std::size_t kMaxDporThreads = 32;

/// Per-state reduction sets, computed in the explorer's classify phase.
struct StateSets {
  /// False when this state cannot use the reduction (more than 32
  /// threads, or an unregistered thread body): expand everything.
  bool ok = false;
  std::uint64_t enabledMask = 0;  ///< key bits of all enabled actions
  std::uint64_t pMask = 0;        ///< key bits of the persistent set
  std::uint64_t depQueries = 0;  ///< dependence/conflict tests performed
};

/// Working storage for computeStateSets, owned by one worker and reused
/// across calls, so a steady-state call allocates nothing.
struct Scratch {
  std::vector<Machine::ActionFacts> facts;  ///< per enabled action
};

/// True when the two enabled actions (facts resolved in the same state)
/// may not commute. Symmetric.
[[nodiscard]] bool dependent(const Machine::ActionFacts& a,
                             const Machine::ActionFacts& b);

/// True when thread body `fp` may ever perform an action dependent with
/// an action whose current facts are `f`.
[[nodiscard]] bool futureConflict(const Footprint& fp,
                                  const Machine::ActionFacts& f);

/// Computes the persistent set and dependence masks for one state.
/// `ready` must be machine.readyActions() (non-empty); `bodies` (may be
/// null) names the acquires that run their body in the same step, whose
/// facts then include the body's accesses. When the result is
/// ok, `depMask` (parallel to `ready`) receives, per enabled action, the
/// key bits of the other enabled actions it is dependent with — its own
/// thread's other action included, since same-thread actions never
/// commute.
[[nodiscard]] StateSets computeStateSets(
    const Machine& machine, std::span<const Machine::Action> ready,
    const StaticFootprints& footprints, const AtomicBodies* bodies,
    Scratch& scratch, std::span<std::uint64_t> depMask);

}  // namespace cssame::interp::dpor
