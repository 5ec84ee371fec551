#include "src/mutex/mutex_structures.h"

#include <algorithm>
#include <map>

namespace cssame::mutex {

namespace {

bool isDelimiterOf(const pfg::Node& n, SymbolId lockVar) {
  return (n.kind == pfg::NodeKind::Lock || n.kind == pfg::NodeKind::Unlock) &&
         n.syncStmt->sync == lockVar;
}

/// The only Unlock(L) node that can close a well-formed body opened at
/// lock node `n`, or invalid. Candidates x post-dominate n, so they all
/// lie on n's post-dominator chain, and one further up contains every
/// chain node below it that n dominates: the first Lock(L)/Unlock(L) node
/// on the chain is the sole possibility. Once the chain leaves the nodes
/// n strictly dominates, n dominates no node above it either.
NodeId partnerOf(const pfg::Graph& graph, const analysis::Dominators& dom,
                 const analysis::Dominators& pdom, NodeId n,
                 SymbolId lockVar) {
  for (NodeId c = pdom.idom(n); c.valid(); c = pdom.idom(c)) {
    if (!dom.strictlyDominates(n, c)) return NodeId{};
    const pfg::Node& node = graph.node(c);
    if (isDelimiterOf(node, lockVar))
      return node.kind == pfg::NodeKind::Unlock ? c : NodeId{};
  }
  return NodeId{};
}

}  // namespace

std::size_t BodyMembers::indexOf(NodeId node) const {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
  return it != nodes_.end() && *it == node
             ? static_cast<std::size_t>(it - nodes_.begin())
             : nodes_.size();
}

MutexStructures::MutexStructures(const pfg::Graph& graph,
                                 const analysis::Dominators& dom,
                                 const analysis::Dominators& pdom,
                                 DiagEngine* diag) {
  // Lines 1–5: collect plock_i / punlock_i per lock variable.
  struct Delimiters {
    std::vector<NodeId> locks, unlocks;
  };
  std::map<SymbolId, Delimiters> delimiters;
  for (const pfg::Node& n : graph.nodes()) {
    if (n.kind == pfg::NodeKind::Lock)
      delimiters[n.syncStmt->sync].locks.push_back(n.id);
    else if (n.kind == pfg::NodeKind::Unlock)
      delimiters[n.syncStmt->sync].unlocks.push_back(n.id);
  }

  // Collects B_L(n,x) into `members` by a walk from n that enters only
  // nodes passing the membership test of Definition 3. Returns false —
  // the candidate is ill-formed — on meeting another Lock(L)/Unlock(L).
  std::vector<std::uint32_t> seen(graph.size(), 0);
  std::uint32_t walk = 0;
  std::vector<NodeId> work, members;
  auto collect = [&](NodeId n, NodeId x, SymbolId l) {
    ++walk;
    members.clear();
    work.assign(1, n);
    while (!work.empty()) {
      const NodeId cur = work.back();
      work.pop_back();
      for (NodeId s : graph.node(cur).succs) {
        if (seen[s.index()] == walk) continue;
        seen[s.index()] = walk;
        if (!dom.strictlyDominates(n, s) || !pdom.dominates(x, s)) continue;
        if (s != x && isDelimiterOf(graph.node(s), l)) return false;
        members.push_back(s);
        work.push_back(s);
      }
    }
    return true;
  };

  // Lines 9–26, well-formed bodies only: each lock node's one possible
  // partner, then one walk over the body's region.
  std::vector<bool> delimitsBody(graph.size(), false);
  for (const auto& [l, d] : delimiters) {
    std::vector<MutexBodyId> structure;
    for (NodeId n : d.locks) {
      const NodeId x = partnerOf(graph, dom, pdom, n, l);
      if (!x.valid() || !collect(n, x, l)) continue;
      std::sort(members.begin(), members.end());
      const MutexBodyId id{static_cast<MutexBodyId::value_type>(
          bodies_.size())};
      delimitsBody[n.index()] = true;
      delimitsBody[x.index()] = true;
      structure.push_back(id);
      bodies_.push_back(MutexBody{id, l, n, x, BodyMembers(members)});
    }
    if (!structure.empty()) {
      structures_[l] = std::move(structure);
      lockVars_.push_back(l);
    }
  }

  buildNodeIndex(graph.size());

  if (diag == nullptr) return;
  const ir::SymbolTable& syms = graph.program().symbols;

  // Ill-formed candidates are only worth a warning when one of their
  // delimiters belongs to no well-formed body: two *sequential* regions
  // of the same lock also produce an ill-formed cross pair (first lock,
  // last unlock), but every delimiter still bounds a real body and the
  // structure is fine. Genuine nesting leaves the outer lock/unlock
  // unmatched, so it keeps warning here (and below as Unmatched*). A
  // candidate with an unmatched delimiter is necessarily ill-formed, so
  // only those delimiters' DOM/PDOM partners are enumerated — in
  // candidate order: lock variable, lock node, unlock node.
  for (const auto& [l, d] : delimiters) {
    std::vector<NodeId> unmatchedUnlocks;
    for (NodeId x : d.unlocks)
      if (!delimitsBody[x.index()]) unmatchedUnlocks.push_back(x);
    for (NodeId n : d.locks) {
      for (NodeId x : delimitsBody[n.index()] ? unmatchedUnlocks : d.unlocks) {
        if (!dom.dominates(n, x) || !pdom.dominates(x, n)) continue;
        diag->warn(DiagCode::IllFormedMutexBody,
                   graph.node(n).syncStmt->loc,
                   "mutex body for lock '" + syms.nameOf(l) +
                       "' contains nested lock/unlock of the same lock; "
                       "it will not be used to reduce dependencies");
      }
    }
  }

  // Section 6: every Lock/Unlock node that delimits no well-formed body is
  // reported as a potentially unsafe synchronization structure.
  for (const pfg::Node& n : graph.nodes()) {
    if (n.kind != pfg::NodeKind::Lock && n.kind != pfg::NodeKind::Unlock)
      continue;
    if (delimitsBody[n.id.index()]) continue;
    const bool isLock = n.kind == pfg::NodeKind::Lock;
    const std::string name = syms.nameOf(n.syncStmt->sync);
    diag->warn(isLock ? DiagCode::UnmatchedLock : DiagCode::UnmatchedUnlock,
               n.syncStmt->loc,
               std::string(isLock ? "lock(" : "unlock(") + name +
                   ") is not part of any well-formed mutex body");
  }
}

void MutexStructures::buildNodeIndex(std::size_t nodes) {
  // Bodies are numbered by lock variable, so each node's list comes out
  // ascending by body id and by lock variable alike.
  containingStart_.assign(nodes + 1, 0);
  for (const MutexBody& b : bodies_)
    for (NodeId m : b.members) ++containingStart_[m.index() + 1];
  for (std::size_t n = 0; n < nodes; ++n)
    containingStart_[n + 1] += containingStart_[n];
  containing_.resize(containingStart_[nodes]);
  std::vector<std::uint32_t> next(containingStart_.begin(),
                                  containingStart_.end() - 1);
  for (const MutexBody& b : bodies_)
    for (NodeId m : b.members) containing_[next[m.index()]++] = b.id;

  // Few distinct locksets occur; nodes share one copy of each.
  std::map<std::vector<SymbolId>, std::uint32_t> interned{{{}, 0}};
  locksets_.assign(1, {});
  locksetOf_.assign(nodes, 0);
  std::vector<SymbolId> key;
  for (std::size_t n = 0; n < nodes; ++n) {
    key.clear();
    for (MutexBodyId id : bodiesContaining(
             NodeId{static_cast<NodeId::value_type>(n)}))
      key.push_back(bodies_[id.index()].lockVar);
    if (key.empty()) continue;
    auto [it, added] = interned.try_emplace(
        key, static_cast<std::uint32_t>(locksets_.size()));
    if (added) locksets_.emplace_back(key.begin(), key.end());
    locksetOf_[n] = it->second;
  }
}

MutexBodyId MutexStructures::wellFormedBodyContaining(NodeId node,
                                                      SymbolId lockVar) const {
  for (MutexBodyId id : bodiesContaining(node))
    if (bodies_[id.index()].lockVar == lockVar) return id;
  return MutexBodyId{};
}

}  // namespace cssame::mutex
