// Held-locks dataflow, as a DenseSolver instance.
//
// A forward may analysis of Lock/Unlock effects over the PFG's control
// edges: Lock(L) adds L at the node's out, Unlock(L) removes it, and the
// meet is union over predecessors (some path holds the lock). Unlike the
// mutex-structure locksets it also covers *ill-formed* regions — a
// lock(L) whose unlock does not post-dominate it still holds L in
// between — which is exactly what the lock-lifecycle checks
// (self-deadlock, lock leak) need.
//
// Lives below the driver layer so driver::Compilation can cache one
// instance per analysis the way it caches access sites.
#pragma once

#include "src/dataflow/framework.h"
#include "src/support/bitset.h"

namespace cssame::dataflow {

class HeldLocks {
 public:
  explicit HeldLocks(const pfg::Graph& graph, SolverOptions opts = {});

  /// Some path may hold `lock` when control *enters* the node.
  [[nodiscard]] bool mayHoldOnEntry(NodeId n, SymbolId lock) const {
    return solver_.inOf(n).test(lock.index());
  }

  /// True when some control path from `from`'s successors reaches `to`
  /// without executing any Unlock(lock) node — the reachability kernel of
  /// the self-deadlock witness and the lock-leak check.
  [[nodiscard]] bool reachesWithoutUnlock(NodeId from, NodeId to,
                                          SymbolId lock) const;

  [[nodiscard]] const SolveStats& stats() const { return solver_.stats(); }

 private:
  struct Problem {
    using Value = DynBitset;
    static constexpr Direction direction = Direction::Forward;
    std::size_t locks = 0;  ///< bitset width (symbol count)

    [[nodiscard]] const char* name() const { return "held-locks"; }
    /// Nothing is held at program entry.
    [[nodiscard]] DynBitset boundary() const { return DynBitset(locks); }
    /// Optimistic start: no path holds anything yet.
    [[nodiscard]] DynBitset top(NodeId) const { return DynBitset(locks); }
    void meet(DynBitset& into, const DynBitset& from) const {
      into.unionWith(from);
    }
    [[nodiscard]] DynBitset transfer(const pfg::Node& n,
                                     const DynBitset& in) const {
      DynBitset out = in;
      if (n.kind == pfg::NodeKind::Lock)
        out.set(n.syncStmt->sync.index());
      else if (n.kind == pfg::NodeKind::Unlock)
        out.reset(n.syncStmt->sync.index());
      return out;
    }
  };

  const pfg::Graph& graph_;
  DenseSolver<Problem> solver_;
};

}  // namespace cssame::dataflow
