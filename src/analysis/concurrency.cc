#include "src/analysis/concurrency.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace cssame::analysis {

namespace {

/// Lexicographic thread-path order, for interning distinct contexts.
struct PathLess {
  bool operator()(const pfg::ThreadPath& a, const pfg::ThreadPath& b) const {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const pfg::ThreadPathEntry& x, const pfg::ThreadPathEntry& y) {
          return std::tuple(x.cobegin.value(), x.threadIndex) <
                 std::tuple(y.cobegin.value(), y.threadIndex);
        });
  }
};

}  // namespace

Mhp::Mhp(const pfg::Graph& graph, const Dominators& dom)
    : graph_(graph), dom_(dom) {
  for (const pfg::Node& n : graph.nodes()) {
    if (n.kind == pfg::NodeKind::Set) {
      setNodes_[n.syncStmt->sync].push_back(n.id);
    } else if (n.kind == pfg::NodeKind::Wait) {
      waitNodes_[n.syncStmt->sync].push_back(n.id);
    } else if (n.kind == pfg::NodeKind::Barrier) {
      // A barrier belongs to the arm of its *innermost* cobegin.
      if (n.threadPath.empty()) continue;  // top level: no partners
      const pfg::ThreadPathEntry& arm = n.threadPath.back();
      armBarriers_[ArmKey{arm.cobegin, arm.threadIndex}].push_back(n.id);
      // A barrier on a control cycle (inside a loop) may fire repeatedly;
      // the phase-counting argument then breaks — disable the cobegin.
      const DynBitset& reach = reachableFrom(n.id);
      if (reach.test(n.id.index())) barrierDisabled_.insert(arm.cobegin);
    }
  }
  buildContextTables();
  buildOrderingFacts();
}

void Mhp::buildContextTables() {
  const std::size_t n = graph_.size();
  ctxOf_.assign(n, 0);

  // Intern the distinct thread paths. Real programs have one context per
  // (possibly nested) cobegin arm plus the sequential top level, so the
  // pairwise tables stay tiny even for huge graphs.
  std::map<pfg::ThreadPath, std::uint32_t, PathLess> interned;
  std::vector<const pfg::ThreadPath*> paths;
  for (const pfg::Node& node : graph_.nodes()) {
    auto [it, fresh] = interned.try_emplace(
        node.threadPath, static_cast<std::uint32_t>(paths.size()));
    if (fresh) paths.push_back(&it->first);
    ctxOf_[node.id.index()] = it->second;
  }
  contextCount_ = static_cast<std::uint32_t>(paths.size());

  ctxConcurrent_.assign(contextCount_, DynBitset(contextCount_));
  ctxDivergence_.assign(std::size_t{contextCount_} * contextCount_,
                        Divergence{});
  for (std::uint32_t ca = 0; ca < contextCount_; ++ca) {
    for (std::uint32_t cb = 0; cb < contextCount_; ++cb) {
      Divergence d;
      if (pathsDiverge(*paths[ca], *paths[cb], &d)) {
        ctxConcurrent_[ca].set(cb);
        ctxDivergence_[std::size_t{ca} * contextCount_ + cb] = d;
      }
    }
  }
}

void Mhp::buildOrderingFacts() {
  const std::size_t n = graph_.size();
  // Only events with both a Set and a Wait node can order anything.
  std::vector<std::pair<const std::vector<NodeId>*,
                        const std::vector<NodeId>*>> events;
  for (const auto& [event, sets] : setNodes_) {
    auto waitsIt = waitNodes_.find(event);
    if (waitsIt != waitNodes_.end()) events.push_back({&sets, &waitsIt->second});
  }
  orderingEvents_ = events.size();
  if (orderingEvents_ == 0) return;

  ordSrc_.assign(n, DynBitset(orderingEvents_));
  ordDst_.assign(n, DynBitset(orderingEvents_));
  for (std::size_t e = 0; e < events.size(); ++e) {
    // ordSrc: every dominator of a Set(e) node (the idom chain, s
    // included — dominance is reflexive).
    for (NodeId s : *events[e].first) {
      if (!dom_.reachable(s)) continue;
      for (NodeId x = s;;) {
        ordSrc_[x.index()].set(e);
        if (x == dom_.root()) break;
        x = dom_.idom(x);
        if (!x.valid()) break;
      }
    }
    // ordDst: every node dominated by a Wait(e) node (its dom subtree).
    for (NodeId w : *events[e].second) {
      if (!dom_.reachable(w)) continue;
      std::vector<NodeId> stack{w};
      while (!stack.empty()) {
        const NodeId x = stack.back();
        stack.pop_back();
        ordDst_[x.index()].set(e);
        for (NodeId c : dom_.children(x)) stack.push_back(c);
      }
    }
  }
}

const DynBitset& Mhp::reachableFrom(NodeId from) const {
  auto it = reachCache_.find(from);
  if (it != reachCache_.end()) return it->second;
  DynBitset reach(graph_.size());
  std::vector<NodeId> work;
  for (NodeId s : graph_.node(from).succs) {
    if (!reach.test(s.index())) {
      reach.set(s.index());
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const NodeId cur = work.back();
    work.pop_back();
    for (NodeId s : graph_.node(cur).succs) {
      if (!reach.test(s.index())) {
        reach.set(s.index());
        work.push_back(s);
      }
    }
  }
  return reachCache_.emplace(from, std::move(reach)).first->second;
}

bool Mhp::pathsDiverge(const pfg::ThreadPath& pa, const pfg::ThreadPath& pb,
                       Divergence* d) {
  const std::size_t common = std::min(pa.size(), pb.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (pa[i].cobegin != pb[i].cobegin) return false;  // unrelated forks
    if (pa[i].threadIndex != pb[i].threadIndex) {
      d->cobegin = pa[i].cobegin;
      d->armA = pa[i].threadIndex;
      d->armB = pb[i].threadIndex;
      return true;
    }
  }
  // One path is a prefix of the other: same thread lineage, sequential.
  return false;
}

bool Mhp::separatedByBarrier(NodeId a, NodeId b, StmtId cobegin,
                             std::uint32_t armA, std::uint32_t armB) const {
  if (barrierDisabled_.contains(cobegin)) return false;

  auto barriersDominating = [&](NodeId n, std::uint32_t arm) {
    std::size_t count = 0;
    auto it = armBarriers_.find(ArmKey{cobegin, arm});
    if (it == armBarriers_.end()) return count;
    for (NodeId bar : it->second)
      if (dom_.dominates(bar, n)) ++count;
    return count;
  };
  auto barriersReaching = [&](NodeId n, std::uint32_t arm) {
    std::size_t count = 0;
    auto it = armBarriers_.find(ArmKey{cobegin, arm});
    if (it == armBarriers_.end()) return count;
    for (NodeId bar : it->second)
      if (reachableFrom(bar).test(n.index())) ++count;
    return count;
  };

  if (barriersDominating(a, armA) > barriersReaching(b, armB)) return true;
  if (barriersDominating(b, armB) > barriersReaching(a, armA)) return true;
  return false;
}

bool Mhp::mayHappenInParallel(NodeId a, NodeId b) const {
  if (a == b) return false;  // a node does not conflict with itself
  const std::optional<Divergence> d = divergenceOf(a, b);
  if (!d) return false;
  if (orderedBefore(a, b) || orderedBefore(b, a)) return false;
  if (separatedByBarrier(a, b, d->cobegin, d->armA, d->armB)) return false;
  return true;
}

namespace {

/// Appends `cls` to a node's class list on its first record there,
/// remembering that record's position in the class's site list.
void addUnique(std::vector<SymbolId>& classes,
               std::vector<std::uint32_t>& first, SymbolId cls,
               std::size_t record) {
  if (std::find(classes.begin(), classes.end(), cls) != classes.end())
    return;
  classes.push_back(cls);
  first.push_back(static_cast<std::uint32_t>(record));
}

/// The record `byNode` points at for (classes, first), or null.
template <typename Record>
const Record* recordAt(
    const std::unordered_map<SymbolId, std::vector<Record>>& sites,
    const std::vector<SymbolId>& classes,
    const std::vector<std::uint32_t>& first, SymbolId cls) {
  const auto it = std::find(classes.begin(), classes.end(), cls);
  if (it == classes.end()) return nullptr;
  return &sites.at(cls)[first[static_cast<std::size_t>(it - classes.begin())]];
}

/// One symbol's accessor in the per-symbol candidate list.
struct SymNodeAccess {
  NodeId node;
  bool use = false;
  bool def = false;
};

}  // namespace

void computeSyncAndConflictEdges(pfg::Graph& graph, const Mhp& mhp,
                                 const AccessSites& sites) {
  CSSAME_CHECK(sites.byNode.size() == graph.size(),
               "access index does not match the graph");
  graph.conflicts.clear();
  graph.mutexEdges.clear();
  graph.dsyncEdges.clear();

  // Invert the shared access index: per alias class, the nodes touching
  // it in node-id order. Only these nodes can ever be paired by an Ecf
  // edge, so the sweep is bounded by Σ_v defs(v)·accessors(v) not N².
  std::unordered_map<SymbolId, std::vector<SymNodeAccess>> bySym;
  for (const pfg::Node& n : graph.nodes()) {
    const AccessSites::NodeAccess& acc = sites.byNode[n.id.index()];
    auto entry = [&](SymbolId v) -> SymNodeAccess& {
      std::vector<SymNodeAccess>& list = bySym[v];
      if (list.empty() || list.back().node != n.id)
        list.push_back(SymNodeAccess{n.id, false, false});
      return list.back();
    };
    for (SymbolId v : acc.uses) entry(v).use = true;
    for (SymbolId v : acc.defs) entry(v).def = true;
  }

  // Ecf: def -> concurrent use (DU) or concurrent def (DD). The emission
  // order replicates the all-pairs reference sweep exactly: defining
  // nodes in id order, their defined symbols in statement order, and for
  // each symbol its accessors in id order, DU before DD per accessor.
  for (const pfg::Node& d : graph.nodes()) {
    for (SymbolId v : sites.byNode[d.id.index()].defs) {
      for (const SymNodeAccess& u : bySym.find(v)->second) {
        if (!mhp.conflicting(d.id, u.node)) continue;
        if (u.use)
          graph.conflicts.push_back(pfg::ConflictEdge{d.id, u.node, v, false});
        if (u.def)
          graph.conflicts.push_back(pfg::ConflictEdge{d.id, u.node, v, true});
      }
    }
  }

  // Sync nodes, indexed by kind (and target symbol for the edge heads) so
  // the pairing below touches only same-symbol candidates.
  std::vector<const pfg::Node*> lockNodes, setNodes;
  std::unordered_map<SymbolId, std::vector<const pfg::Node*>> unlocksBySym,
      waitsBySym;
  for (const pfg::Node& n : graph.nodes()) {
    switch (n.kind) {
      case pfg::NodeKind::Lock: lockNodes.push_back(&n); break;
      case pfg::NodeKind::Unlock:
        unlocksBySym[n.syncStmt->sync].push_back(&n);
        break;
      case pfg::NodeKind::Set: setNodes.push_back(&n); break;
      case pfg::NodeKind::Wait:
        waitsBySym[n.syncStmt->sync].push_back(&n);
        break;
      default: break;
    }
  }

  // Emutex: Lock(L) <-> Unlock(L) in concurrent threads.
  for (const pfg::Node* a : lockNodes) {
    auto it = unlocksBySym.find(a->syncStmt->sync);
    if (it == unlocksBySym.end()) continue;
    for (const pfg::Node* b : it->second) {
      if (!mhp.mayHappenInParallel(a->id, b->id)) continue;
      graph.mutexEdges.push_back(
          pfg::MutexEdge{a->id, b->id, a->syncStmt->sync});
    }
  }

  // Edsync: Set(e) -> Wait(e) in concurrent threads.
  for (const pfg::Node* a : setNodes) {
    auto it = waitsBySym.find(a->syncStmt->sync);
    if (it == waitsBySym.end()) continue;
    for (const pfg::Node* b : it->second) {
      if (!mhp.inConcurrentThreads(a->id, b->id)) continue;
      graph.dsyncEdges.push_back(
          pfg::DsyncEdge{a->id, b->id, a->syncStmt->sync});
    }
  }
}

void computeSyncAndConflictEdges(pfg::Graph& graph, const Mhp& mhp) {
  computeSyncAndConflictEdges(graph, mhp, collectAccessSites(graph));
}

const AccessSites::Def* AccessSites::defAt(NodeId node, SymbolId cls) const {
  const NodeAccess& acc = byNode[node.index()];
  return recordAt(defs, acc.defs, acc.defFirst, cls);
}

const AccessSites::Use* AccessSites::useAt(NodeId node, SymbolId cls) const {
  const NodeAccess& acc = byNode[node.index()];
  return recordAt(uses, acc.uses, acc.useFirst, cls);
}

AccessSites collectAccessSites(const pfg::Graph& graph) {
  AccessSites sites;
  sites.byNode.resize(graph.size());
  const ir::SymbolTable& syms = graph.program().symbols;
  const ir::AliasClasses& aliases = graph.aliases;

  // Every reading expression — VarRef, Index load, Deref load — keys by
  // its alias class. Under the identity partition this degenerates to the
  // historic walk: shared VarRefs only (Index keys by its array symbol;
  // Deref sites are only mapped once a partition is installed).
  auto collectUses = [&](const ir::Expr& e, ir::Stmt* stmt, NodeId node) {
    ir::forEachExpr(e, [&](const ir::Expr& sub) {
      const SymbolId cls = aliases.useTargetOf(sub);
      if (!cls.valid() || !aliases.classShared(cls, syms)) return;
      const bool viaDeref = sub.kind == ir::ExprKind::Deref;
      std::vector<AccessSites::Use>& list = sites.uses[cls];
      AccessSites::NodeAccess& acc = sites.byNode[node.index()];
      addUnique(acc.uses, acc.useFirst, cls, list.size());
      list.push_back(AccessSites::Use{
          &sub, stmt, node, viaDeref ? SymbolId{} : sub.var, viaDeref});
    });
  };

  for (const pfg::Node& n : graph.nodes()) {
    for (ir::Stmt* s : n.stmts) {
      if (s->expr) collectUses(*s->expr, s, n.id);
      // `a[i] = e` reads i; `*p = e` reads p. The address operand is a
      // plain use walk of its own.
      if (s->lhsAddr) collectUses(*s->lhsAddr, s, n.id);
      const SymbolId def = aliases.defTargetOf(*s);
      if (def.valid() && aliases.classShared(def, syms)) {
        const bool viaDeref = s->lhsKind == ir::LValueKind::Deref;
        std::vector<AccessSites::Def>& list = sites.defs[def];
        AccessSites::NodeAccess& acc = sites.byNode[n.id.index()];
        addUnique(acc.defs, acc.defFirst, def, list.size());
        list.push_back(AccessSites::Def{
            s, n.id, viaDeref ? SymbolId{} : s->lhs, viaDeref});
      }
    }
    if (n.terminator != nullptr && n.terminator->expr)
      collectUses(*n.terminator->expr, n.terminator, n.id);
  }
  return sites;
}

}  // namespace cssame::analysis
