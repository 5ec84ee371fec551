// May-happen-in-parallel (MHP) analysis.
//
// Base relation: two nodes may execute concurrently when their thread
// paths first diverge at a common cobegin with different thread indices
// (cobegin forks all threads; coend joins them, so nodes sequentially
// before/after a cobegin never overlap with its threads).
//
// Refinement (Edsync): a guaranteed ordering u ≺ v is established by an
// event e when some Set(e) node s satisfies u DOM s and some Wait(e) node
// w satisfies w DOM v. Then v executes only after w proceeds, which
// requires s to have executed, which requires u to have executed first.
// (If s never executes, w blocks and v never executes, so the ordering
// holds vacuously.) This is a conservative subset of Lee et al.'s
// guaranteed-ordering computation; it only ever *removes* MHP pairs, so
// any imprecision keeps the analysis sound.
//
// Refinement (barriers — extension; the paper lists barrier support as
// future work): a barrier rendezvouses all threads of its enclosing
// cobegin. For sibling arms i and j, node u (arm i) and node v (arm j)
// cannot overlap when the number of arm-i barriers *dominating* u
// exceeds the number of arm-j barriers from which v is *reachable*: u
// runs only after its thread passed k barriers, which requires v's
// thread to have arrived at (and therefore executed everything before)
// its own k-th barrier — but fewer than k barriers can precede v on any
// path, so v has already completed. The refinement is disabled for a
// cobegin whenever one of its barriers sits on a control cycle (a
// barrier inside a loop executes repeatedly, which breaks the "distinct
// barriers reaching v" counting argument).
//
// Query cost: the constructor memoizes everything the hot queries need
// (docs/PERFORMANCE.md). Thread paths are interned into *contexts* —
// two nodes with the same (cobegin, arm) stack share one context — and
// the pairwise divergence of all contexts is tabulated once, making
// inConcurrentThreads / conflicting / divergenceOf O(1). The set/wait
// ordering facts are precomputed as per-node bitsets over the ordering
// events, making orderedBefore one bitset intersection.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/analysis/dominance.h"
#include "src/pfg/graph.h"
#include "src/support/bitset.h"

namespace cssame::analysis {

class Mhp {
 public:
  /// `dom` must be the forward dominator tree of `graph`.
  Mhp(const pfg::Graph& graph, const Dominators& dom);

  /// True if the two nodes may execute concurrently.
  [[nodiscard]] bool mayHappenInParallel(NodeId a, NodeId b) const;

  /// Conflict relation used for Ecf edges and π placement: thread
  /// divergence WITHOUT the set/wait refinement. A definition in a thread
  /// ordered *before* a use still reaches that use (the ordering makes
  /// the data flow deterministic, it does not remove it), so π arguments
  /// must be kept; dropping them would let constant propagation wrongly
  /// fold the use to the value on the sequential control path. The
  /// ordering-refined mayHappenInParallel remains sound for LICM legality
  /// and data-race reports, where "cannot overlap" is what matters.
  [[nodiscard]] bool conflicting(NodeId a, NodeId b) const {
    return a != b && inConcurrentThreads(a, b);
  }

  /// True if a guaranteed ordering a ≺ b is established by set/wait.
  /// O(events/64) — one bitset intersection over precomputed facts.
  [[nodiscard]] bool orderedBefore(NodeId a, NodeId b) const {
    return orderingEvents_ != 0 &&
           ordSrc_[a.index()].intersects(ordDst_[b.index()]);
  }

  /// True if the thread paths of a and b diverge at a common cobegin
  /// (ignoring set/wait ordering). O(1) via the context table.
  [[nodiscard]] bool inConcurrentThreads(NodeId a, NodeId b) const {
    return ctxConcurrent_[ctxOf_[a.index()]].test(ctxOf_[b.index()]);
  }

  /// True if a barrier phase separation proves the two nodes (already
  /// known to be in concurrent arms of `cobegin`) cannot overlap.
  [[nodiscard]] bool separatedByBarrier(NodeId a, NodeId b,
                                        StmtId cobegin,
                                        std::uint32_t armA,
                                        std::uint32_t armB) const;

  /// The MHP justification for a concurrent pair: the cobegin where the
  /// two thread paths diverge and the sibling arms each node runs in.
  /// csan embeds this in race witness traces.
  struct Divergence {
    StmtId cobegin;
    std::uint32_t armA = 0;
    std::uint32_t armB = 0;
  };

  /// The divergence point of two nodes in concurrent threads, or nullopt
  /// when the nodes share one thread lineage (sequential). O(1).
  [[nodiscard]] std::optional<Divergence> divergenceOf(NodeId a,
                                                       NodeId b) const {
    const std::uint32_t ca = ctxOf_[a.index()], cb = ctxOf_[b.index()];
    if (!ctxConcurrent_[ca].test(cb)) return std::nullopt;
    return ctxDivergence_[ca * contextCount_ + cb];
  }

 private:
  struct ArmKey {
    StmtId cobegin;
    std::uint32_t arm;
    bool operator==(const ArmKey&) const = default;
  };
  struct ArmKeyHash {
    std::size_t operator()(const ArmKey& k) const {
      return std::hash<StmtId>{}(k.cobegin) * 31 + k.arm;
    }
  };

  /// Builds the interned-context divergence tables and the per-node
  /// set/wait ordering bitsets (called once from the constructor).
  void buildContextTables();
  void buildOrderingFacts();

  /// Reference path walk the tables are built from: finds the first
  /// divergence point of two thread paths. Returns false when the paths
  /// share one thread lineage (sequential).
  [[nodiscard]] static bool pathsDiverge(const pfg::ThreadPath& pa,
                                         const pfg::ThreadPath& pb,
                                         Divergence* d);

  /// Nodes reachable from `from` along control edges (cached).
  [[nodiscard]] const DynBitset& reachableFrom(NodeId from) const;

  const pfg::Graph& graph_;
  const Dominators& dom_;
  // Per event variable: its Set nodes and Wait nodes.
  std::unordered_map<SymbolId, std::vector<NodeId>> setNodes_;
  std::unordered_map<SymbolId, std::vector<NodeId>> waitNodes_;
  // Barrier nodes directly in each cobegin arm.
  std::unordered_map<ArmKey, std::vector<NodeId>, ArmKeyHash> armBarriers_;
  // Cobegins whose barrier refinement is disabled (barrier on a cycle).
  std::unordered_set<StmtId> barrierDisabled_;
  mutable std::unordered_map<NodeId, DynBitset> reachCache_;

  // --- memoized query tables (immutable after construction) ---
  // Interned thread contexts: ctxOf_[node] indexes the distinct thread
  // paths; ctxConcurrent_[ca].test(cb) iff the contexts diverge; the
  // divergence point for each concurrent context pair is tabulated.
  std::uint32_t contextCount_ = 0;
  std::vector<std::uint32_t> ctxOf_;
  std::vector<DynBitset> ctxConcurrent_;
  std::vector<Divergence> ctxDivergence_;
  // Set/wait ordering facts over the `orderingEvents_` events that have
  // both a Set and a Wait node: ordSrc_[n] bit e ⟺ n dominates some
  // Set(e); ordDst_[n] bit e ⟺ some Wait(e) dominates n.
  std::size_t orderingEvents_ = 0;
  std::vector<DynBitset> ordSrc_;
  std::vector<DynBitset> ordDst_;
};

/// Definition and use sites of shared storage at statement granularity;
/// the CSSA π-placement consumes these (one π argument per concurrent
/// definition site). `byNode` is the node-granularity view of the same
/// walk — the shared access index the conflict-edge construction and the
/// lockset engines reuse instead of re-walking statements.
///
/// Both maps are keyed by *alias-class representative* (graph.aliases).
/// Under the identity partition the key is the accessed symbol itself and
/// the index matches the historic symbol-keyed one exactly; for pointer
/// programs a `*p = e` store lands in the class of everything p may point
/// to, and `a[i]` accesses key by the array symbol.
struct AccessSites {
  struct Def {
    ir::Stmt* stmt;  ///< the Assign statement
    NodeId node;
    /// Syntactic lhs symbol (the array for Index stores); invalid for
    /// Deref stores, which name no symbol at the site.
    SymbolId accessedSym{};
    bool viaDeref = false;  ///< `*p = e` store
  };
  struct Use {
    const ir::Expr* ref;  ///< the VarRef / Index / Deref expression
    ir::Stmt* stmt;       ///< statement containing the use
    NodeId node;
    /// Syntactic symbol read (the array for Index loads); invalid for
    /// Deref loads.
    SymbolId accessedSym{};
    bool viaDeref = false;  ///< `*p` load
  };
  std::unordered_map<SymbolId, std::vector<Def>> defs;
  std::unordered_map<SymbolId, std::vector<Use>> uses;

  /// Alias classes each node defines / uses, first-occurrence statement
  /// order, deduplicated. Indexed by NodeId. `defFirst[i]` is the
  /// position in `defs.at(defs[i])` of the node's first record of that
  /// class (likewise `useFirst` for uses).
  struct NodeAccess {
    std::vector<SymbolId> defs;
    std::vector<SymbolId> uses;
    std::vector<std::uint32_t> defFirst;
    std::vector<std::uint32_t> useFirst;
  };
  std::vector<NodeAccess> byNode;

  /// The first Def / Use record of class `cls` at `node` (statement
  /// order), or null.
  [[nodiscard]] const Def* defAt(NodeId node, SymbolId cls) const;
  [[nodiscard]] const Use* useAt(NodeId node, SymbolId cls) const;
};

/// Populates graph.conflicts (Ecf), graph.mutexEdges (Emutex) and
/// graph.dsyncEdges (Edsync) from the MHP relation, completing the PFG of
/// Definition 1. Conflict edges run from every node defining a shared
/// alias class to every concurrent node using (DU) or defining (DD) it;
/// ConflictEdge::var carries the class representative. Only nodes
/// touching the same class are ever paired (the access index bounds the
/// sweep), and the emitted edge sequence is identical to the all-pairs
/// definition.
void computeSyncAndConflictEdges(pfg::Graph& graph, const Mhp& mhp,
                                 const AccessSites& sites);

/// Convenience overload that collects the access index itself.
void computeSyncAndConflictEdges(pfg::Graph& graph, const Mhp& mhp);

/// Collects per-alias-class access sites over the whole graph, consulting
/// graph.aliases for the class of each direct, indexed or pointer access.
[[nodiscard]] AccessSites collectAccessSites(const pfg::Graph& graph);

}  // namespace cssame::analysis
