#include "src/cssa/rewrite.h"

#include <algorithm>
#include <deque>

namespace cssame::cssa {

namespace {

/// True if the statement overwrites the whole alias class `cls` — only
/// strong definitions (scalar store to a singleton class) kill. An Index
/// or Deref store updates at most one member/cell, so values written
/// earlier may survive it and it must not end a path search.
bool killsClass(const pfg::Graph& graph, const ir::Stmt* s, SymbolId cls) {
  return graph.aliases.strongDef(*s) && graph.aliases.repOf(s->lhs) == cls;
}

/// True if the block node contains a killing definition of class `var`.
bool nodeDefines(const pfg::Graph& graph, const pfg::Node& n, SymbolId var) {
  for (const ir::Stmt* s : n.stmts)
    if (killsClass(graph, s, var)) return true;
  return false;
}

}  // namespace

bool isUpwardExposedFromBody(const pfg::Graph& graph,
                             const mutex::MutexBody& b, SymbolId var,
                             const ir::Expr* ref, const ir::Stmt* useStmt,
                             NodeId node) {
  (void)ref;
  const pfg::Node& start = graph.node(node);

  // A killing definition before the use in the same node ends the
  // exposure. When the use sits in the terminator condition, every
  // statement of the node precedes it.
  for (const ir::Stmt* s : start.stmts) {
    if (s == useStmt) break;
    if (killsClass(graph, s, var)) return false;
  }

  // Backward search restricted to the body (plus its lock node): exposed
  // iff some definition-free control path reaches the lock node. Visited
  // marks are kept per member position (the lock node reaches the
  // search's end, so it needs none).
  std::deque<NodeId> work;
  std::vector<bool> visited(b.members.count(), false);
  auto enqueuePreds = [&](NodeId id) {
    for (NodeId p : graph.node(id).preds) {
      if (p == b.lockNode) {
        work.push_back(p);
        continue;
      }
      const std::size_t at = b.members.indexOf(p);
      if (at == b.members.count() || visited[at]) continue;
      visited[at] = true;
      work.push_back(p);
    }
  };
  enqueuePreds(node);
  while (!work.empty()) {
    const NodeId cur = work.front();
    work.pop_front();
    if (cur == b.lockNode) return true;  // reached n with no kill
    if (nodeDefines(graph, graph.node(cur), var)) continue;  // path killed
    enqueuePreds(cur);
  }
  return false;
}

bool defReachesBodyExit(const pfg::Graph& graph, const mutex::MutexBody& b,
                        SymbolId var, const ir::Stmt* defStmt, NodeId node) {
  const pfg::Node& start = graph.node(node);

  // A later killing definition in the same node kills this one.
  bool seenDef = false;
  for (const ir::Stmt* s : start.stmts) {
    if (s == defStmt) {
      seenDef = true;
      continue;
    }
    if (seenDef && killsClass(graph, s, var)) return false;
  }

  if (node == b.unlockNode) return true;

  // Forward search restricted to the body: reaches iff some control path
  // arrives at the unlock node without passing another definition.
  std::deque<NodeId> work;
  std::vector<bool> visited(b.members.count(), false);
  auto enqueueSuccs = [&](NodeId id) {
    for (NodeId s : graph.node(id).succs) {
      const std::size_t at = b.members.indexOf(s);  // unlock is a member
      if (at == b.members.count() || visited[at]) continue;
      visited[at] = true;
      work.push_back(s);
    }
  };
  enqueueSuccs(node);
  while (!work.empty()) {
    const NodeId cur = work.front();
    work.pop_front();
    if (cur == b.unlockNode) return true;
    if (nodeDefines(graph, graph.node(cur), var)) continue;  // path killed
    enqueueSuccs(cur);
  }
  return false;
}

RewriteStats rewritePiTerms(pfg::Graph& graph, ssa::SsaForm& form,
                            const mutex::MutexStructures& structures) {
  RewriteStats stats;

  for (ssa::Definition& p : form.defs) {
    if (p.kind != ssa::DefKind::Pi || p.removed) continue;
    const SymbolId v = p.var;
    const NodeId useNode = p.node;

    // For every lock whose well-formed body contains the use, try to
    // remove conflict arguments coming from other bodies of the same
    // mutex structure (Algorithm A.3 lines 14–20). The containing bodies
    // come in lock-variable order, one per lock.
    for (MutexBodyId bId : structures.bodiesContaining(useNode)) {
      const mutex::MutexBody& b = structures.body(bId);
      const SymbolId lockVar = b.lockVar;

      const bool exposed = isUpwardExposedFromBody(graph, b, v, p.piUse,
                                                   p.piUseStmt, useNode);

      auto& args = p.piConflictArgs;
      const std::size_t before = args.size();
      args.erase(
          std::remove_if(
              args.begin(), args.end(),
              [&](const ssa::PiConflictArg& a) {
                const MutexBodyId bpId = structures.wellFormedBodyContaining(
                    a.fromNode, lockVar);
                if (!bpId.valid() || bpId == bId) return false;
                const mutex::MutexBody& bp = structures.body(bpId);
                if (!exposed) return true;  // Theorem 2
                if (!defReachesBodyExit(graph, bp, v, a.defStmt, a.fromNode))
                  return true;  // Theorem 1
                return false;
              }),
          args.end());
      stats.argsRemoved += before - args.size();
    }

    // Lines 21–25: a π with only the control argument left is deleted and
    // its use rewired to the sequential reaching definition.
    if (p.piConflictArgs.empty()) {
      form.useDef[p.piUse] = p.piControlArg;
      p.removed = true;
      ++stats.pisRemoved;
    }
  }
  return stats;
}

}  // namespace cssame::cssa
