// Mutex bodies and mutex structures (paper Section 3.2, Algorithm A.1).
//
// A mutex body B_L(n,x) is the single-entry/single-exit region delimited
// by a Lock(L) node n and an Unlock(L) node x with n DOM x and x PDOM n,
// containing all nodes strictly dominated by n and post-dominated by x
// (x itself is a member, n is not — Definition 3). A candidate containing
// another Lock(L)/Unlock(L) node is *ill-formed*; unlike Masticola's
// strict intervals, ill-formed bodies do not invalidate the whole mutex
// structure — they are simply never used to reduce data dependencies
// (paper Section 3.2, point 3).
//
// Ill-formed candidates are therefore never built. A Lock(L) node n has at
// most one well-formed partner: the first Lock(L)/Unlock(L) node on n's
// post-dominator chain, if that node is an Unlock(L) strictly dominated by
// n (any later candidate contains it). One bounded walk from n over the
// body's own region then collects the members — membership is still the
// DOM/PDOM test of Definition 3 — and gives up on meeting another
// Lock(L)/Unlock(L) node. Well-formed bodies of one lock are disjoint, so
// construction is linear per lock variable. The walk relies on the PFG
// being structured (if/while/cobegin only): every member is then reached
// from n through members.
//
// Queries are lookups in a per-node index of the bodies containing each
// node. The Section 6 warnings for ill-formed candidates and unmatched
// delimiters come from the delimiters that bound no well-formed body.
#pragma once

#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/analysis/dominance.h"
#include "src/pfg/graph.h"
#include "src/support/diag.h"

namespace cssame::mutex {

/// Member nodes of a mutex body, ascending by node id.
class BodyMembers {
 public:
  BodyMembers() = default;
  explicit BodyMembers(std::vector<NodeId> sorted)
      : nodes_(std::move(sorted)) {}

  /// Position of `node` in the ascending member list, or count() if the
  /// node is not a member.
  [[nodiscard]] std::size_t indexOf(NodeId node) const;

  [[nodiscard]] bool test(std::size_t nodeIndex) const {
    return indexOf(NodeId{static_cast<NodeId::value_type>(nodeIndex)}) !=
           nodes_.size();
  }
  [[nodiscard]] std::size_t count() const { return nodes_.size(); }
  [[nodiscard]] auto begin() const { return nodes_.begin(); }
  [[nodiscard]] auto end() const { return nodes_.end(); }

 private:
  std::vector<NodeId> nodes_;
};

struct MutexBody {
  MutexBodyId id;
  SymbolId lockVar;
  NodeId lockNode;      ///< n  = Lock(L)
  NodeId unlockNode;    ///< x  = Unlock(L)
  BodyMembers members;  ///< B_L(n,x); excludes n, includes x
  /// Always true: ill-formed candidates are never built.
  static constexpr bool wellFormed = true;
};

/// The mutex structure M_L of a lock variable is the set of its mutex
/// bodies (Definition 4). This class holds all structures of a program.
class MutexStructures {
 public:
  /// Runs Algorithm A.1. `dom`/`pdom` are the forward and reverse trees of
  /// `graph`. When `diag` is non-null, unmatched Lock/Unlock nodes and
  /// ill-formed candidates are reported as warnings (paper Section 6).
  MutexStructures(const pfg::Graph& graph, const analysis::Dominators& dom,
                  const analysis::Dominators& pdom, DiagEngine* diag);

  /// The well-formed bodies, by lock variable, then lock node id.
  [[nodiscard]] const std::vector<MutexBody>& bodies() const {
    return bodies_;
  }
  [[nodiscard]] const MutexBody& body(MutexBodyId id) const {
    return bodies_[id.index()];
  }

  /// Bodies of the mutex structure M_L.
  [[nodiscard]] const std::vector<MutexBodyId>& structureOf(
      SymbolId lockVar) const {
    static const std::vector<MutexBodyId> kEmpty;
    auto it = structures_.find(lockVar);
    return it == structures_.end() ? kEmpty : it->second;
  }

  /// All lock variables that own at least one body, ascending.
  [[nodiscard]] const std::vector<SymbolId>& lockVars() const {
    return lockVars_;
  }

  /// The body of lock L containing node `node`, if any. Bodies of one
  /// lock never overlap, so this is unique.
  [[nodiscard]] MutexBodyId wellFormedBodyContaining(NodeId node,
                                                     SymbolId lockVar) const;

  /// All bodies (of any lock) containing `node`, ascending; at most one
  /// per lock variable.
  [[nodiscard]] std::span<const MutexBodyId> bodiesContaining(
      NodeId node) const {
    return {containing_.data() + containingStart_[node.index()],
            containing_.data() + containingStart_[node.index() + 1]};
  }

  /// Lock variables of bodiesContaining(node) — the node's lockset, used
  /// by the data-race checks.
  [[nodiscard]] const std::set<SymbolId>& locksetAt(NodeId node) const {
    return locksets_[locksetOf_[node.index()]];
  }

 private:
  void buildNodeIndex(std::size_t nodes);

  std::vector<MutexBody> bodies_;
  std::unordered_map<SymbolId, std::vector<MutexBodyId>> structures_;
  std::vector<SymbolId> lockVars_;
  /// bodiesContaining(n) is containing_[containingStart_[n] ..
  /// containingStart_[n + 1]).
  std::vector<MutexBodyId> containing_;
  std::vector<std::uint32_t> containingStart_;
  /// The distinct locksets (locksets_[0] is empty) and each node's.
  std::vector<std::set<SymbolId>> locksets_;
  std::vector<std::uint32_t> locksetOf_;
};

}  // namespace cssame::mutex
