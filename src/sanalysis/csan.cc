#include "src/sanalysis/csan.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

#include "src/opt/lock_independence.h"
#include "src/sanalysis/lockset.h"

namespace cssame::sanalysis {

namespace {

SourceLoc locOf(const ir::Stmt* stmt) {
  return stmt != nullptr ? stmt->loc : SourceLoc{};
}

class Csan {
 public:
  Csan(const driver::Compilation& comp, DiagEngine& diag,
       const CsanOptions& opts)
      : comp_(comp),
        diag_(diag),
        opts_(opts),
        graph_(comp.graph()),
        syms_(comp.graph().program().symbols),
        structures_(comp.mutexes()) {
    for (const pfg::Node& n : graph_.nodes())
      if (n.kind == pfg::NodeKind::Cobegin && n.syncStmt != nullptr)
        cobeginStmt_[n.syncStmt->id] = n.syncStmt;
  }

  CsanReport run() {
    if (opts_.races) {
      collectRaces();
      for (const RaceWitness& w : report_.raceWitnesses) warnRacePair(w);
      for (const auto& [var, defs] : comp_.sites().defs)
        if (warnInconsistentLocking(var, defs)) ++report_.inconsistentLocking;
    }
    if (opts_.deadlocks)
      report_.deadlocks = mutex::detectDeadlocks(graph_, comp_.mhp(),
                                                 structures_, diag_);
    if (opts_.lockLifecycle) checkLockLifecycle();
    if (opts_.bodyLints) checkMutexBodies();
    if (opts_.piReads) checkPiReads();
    return std::move(report_);
  }

  PerVariableRaces perVariable() {
    collectRaces();
    std::unordered_map<SymbolId, const RaceWitness*> first;
    for (const RaceWitness& w : report_.raceWitnesses)
      first.try_emplace(w.var, &w);
    PerVariableRaces out;
    for (const auto& [var, defs] : comp_.sites().defs) {
      if (warnInconsistentLocking(var, defs)) ++out.inconsistentLocking;
      const auto it = first.find(var);
      if (it == first.end()) continue;
      ++out.potentialRaces;
      const RaceWitness& w = *it->second;
      const SourceLoc loc =
          w.def.stmt != nullptr ? w.def.loc : defs.front().stmt->loc;
      Diagnostic& d = diag_.warn(
          DiagCode::PotentialDataRace, loc,
          "potential data race on shared variable '" + syms_.nameOf(var) +
              "': concurrent accesses share no common lock");
      d.note(loc, "write under lockset " + locksetStr(w.def.lockset, syms_));
      if (w.other.stmt != nullptr) noteConcurrentSite(d, w.other);
    }
    return out;
  }

 private:
  /// Appends the MHP justification of a concurrent pair to a diagnostic:
  /// the cobegin whose sibling arms keep the two sites unordered.
  void noteMhp(Diagnostic& d, NodeId a, NodeId b) {
    const auto div = comp_.mhp().divergenceOf(a, b);
    if (!div) return;
    auto it = cobeginStmt_.find(div->cobegin);
    const SourceLoc loc =
        it != cobeginStmt_.end() ? it->second->loc : SourceLoc{};
    d.note(loc, "the sites run in arms " + std::to_string(div->armA) +
                    " and " + std::to_string(div->armB) +
                    " of this cobegin and may interleave");
  }

  RaceSite makeSite(NodeId node, SymbolId cls, bool isDef) const {
    RaceSite s;
    s.node = node;
    s.isWrite = isDef;
    if (isDef) {
      if (const auto* d = comp_.sites().defAt(node, cls)) {
        s.stmt = d->stmt;
        s.viaDeref = d->viaDeref;
        s.accessedSym = d->accessedSym;
        if (d->stmt->lhsKind == ir::LValueKind::Index)
          s.indexExpr = d->stmt->lhsAddr.get();
      }
    } else {
      if (const auto* u = comp_.sites().useAt(node, cls)) {
        s.stmt = u->stmt;
        s.ref = u->ref;
        s.viaDeref = u->viaDeref;
        s.accessedSym = u->accessedSym;
        if (u->ref != nullptr && u->ref->kind == ir::ExprKind::Index)
          s.indexExpr = u->ref->operands[0].get();
      }
    }
    s.loc = locOf(s.stmt);
    s.lockset = structures_.locksetAt(node);
    return s;
  }

  /// Points-to chain note for a pointer access: which locations the
  /// solved analysis says the dereference may touch.
  void notePts(Diagnostic& d, const RaceSite& s) {
    if (!s.viaDeref || comp_.pointsTo() == nullptr) return;
    const PointsToResult& pt = *comp_.pointsTo();
    const PtSet* pts = nullptr;
    if (s.isWrite) {
      auto it = pt.storePts.find(s.stmt);
      if (it != pt.storePts.end()) pts = &it->second;
    } else {
      auto it = pt.loadPts.find(s.ref);
      if (it != pt.loadPts.end()) pts = &it->second;
    }
    if (pts != nullptr)
      d.note(s.loc, std::string(s.isWrite ? "store" : "load") +
                        " through a pointer that may target " +
                        formatPtSet(*pts, syms_));
  }

  void noteConcurrentSite(Diagnostic& d, const RaceSite& s) {
    d.note(s.loc, std::string("concurrent ") +
                      (s.isWrite ? "write" : "read") + " under lockset " +
                      locksetStr(s.lockset, syms_));
  }

  /// Access-site-granular lockset race check: one RaceWitness per
  /// conflicting site pair that may happen in parallel with disjoint
  /// locksets. The same pass records which classes are ever accessed
  /// concurrently, for the InconsistentLocking check.
  void collectRaces() {
    concurrent_.assign(syms_.size(), false);
    std::set<std::tuple<SymbolId, NodeId, NodeId>> seen;
    for (const pfg::ConflictEdge& e : graph_.conflicts) {
      if (!comp_.mhp().mayHappenInParallel(e.from, e.to)) continue;
      concurrent_[e.var.index()] = true;
      if (!locksetsDisjoint(structures_.locksetAt(e.from),
                            structures_.locksetAt(e.to)))
        continue;
      const RaceSite def = makeSite(e.from, e.var, true);
      const RaceSite other = makeSite(e.to, e.var, e.toIsDef);
      // Two *direct* accesses naming different members of one alias class
      // never touch the same cell — the class pairs them only because a
      // pointer elsewhere may touch both. No race between these two.
      if (!def.viaDeref && !other.viaDeref && def.accessedSym.valid() &&
          other.accessedSym.valid() && def.accessedSym != other.accessedSym)
        continue;
      // MayAliasRace: the pair races only if the accesses actually alias
      // — a pointer access, or array accesses with differing indices.
      // Plain same-symbol scalar pairs stay PotentialDataRace.
      bool mayAlias = def.viaDeref || other.viaDeref;
      if (!mayAlias && def.indexExpr != nullptr && other.indexExpr != nullptr &&
          !ir::exprEquals(*def.indexExpr, *other.indexExpr))
        mayAlias = true;
      // DD and DU edges can join the same node pair; one witness per
      // unordered pair keeps output readable without losing sites.
      const auto key = std::make_tuple(e.var, std::min(e.from, e.to),
                                       std::max(e.from, e.to));
      if (!seen.insert(key).second) continue;

      RaceWitness w;
      w.var = e.var;
      w.mayAlias = mayAlias;
      w.def = def;
      w.other = other;
      if (const auto div = comp_.mhp().divergenceOf(e.from, e.to)) {
        w.cobegin = div->cobegin;
        w.armA = div->armA;
        w.armB = div->armB;
        auto it = cobeginStmt_.find(div->cobegin);
        if (it != cobeginStmt_.end()) w.cobeginLoc = it->second->loc;
      }

      if (mayAlias)
        ++report_.mayAliasRaces;
      else
        ++report_.potentialRaces;
      report_.racedVars.insert(e.var);
      report_.raceWitnesses.push_back(std::move(w));
    }
  }

  /// One PotentialDataRace / MayAliasRace diagnostic per witness.
  void warnRacePair(const RaceWitness& w) {
    const char* otherKind = w.other.isWrite ? "write" : "read";
    Diagnostic& d =
        w.mayAlias
            ? diag_.warn(DiagCode::MayAliasRace, w.def.loc,
                         "potential data race through aliasing on the "
                         "storage of '" +
                             syms_.nameOf(w.var) +
                             "': this write and a concurrent " + otherKind +
                             " may touch the same cell and share no common "
                             "lock")
            : diag_.warn(DiagCode::PotentialDataRace, w.def.loc,
                         "potential data race on shared variable '" +
                             syms_.nameOf(w.var) +
                             "': this write and a concurrent " + otherKind +
                             " share no common lock");
    d.note(w.def.loc,
           "write under lockset " + locksetStr(w.def.lockset, syms_));
    noteConcurrentSite(d, w.other);
    notePts(d, w.def);
    notePts(d, w.other);
    noteMhp(d, w.def.node, w.other.node);
  }

  /// Per-variable write-consistency check: a concurrently accessed
  /// variable whose writes hold no common lock although some write holds
  /// one. One witness note per write. Needs collectRaces() first.
  bool warnInconsistentLocking(
      SymbolId var, const std::vector<analysis::AccessSites::Def>& defs) {
    if (defs.size() < 2 || !concurrent_[var.index()]) return false;
    std::vector<const std::set<SymbolId>*> locksets;
    locksets.reserve(defs.size());
    for (const auto& d : defs)
      locksets.push_back(&structures_.locksetAt(d.node));
    std::set<SymbolId> intersection = *locksets.front();
    bool anyProtected = false;
    for (const std::set<SymbolId>* ls : locksets) {
      anyProtected |= !ls->empty();
      std::set<SymbolId> tmp;
      std::set_intersection(intersection.begin(), intersection.end(),
                            ls->begin(), ls->end(),
                            std::inserter(tmp, tmp.begin()));
      intersection = std::move(tmp);
    }
    if (!anyProtected || !intersection.empty()) return false;

    Diagnostic& d = diag_.warn(
        DiagCode::InconsistentLocking, defs.front().stmt->loc,
        "writes to shared variable '" + syms_.nameOf(var) +
            "' are not consistently protected by the same lock");
    for (std::size_t i = 0; i < defs.size(); ++i)
      d.note(defs[i].stmt->loc,
             "write under lockset " + locksetStr(*locksets[i], syms_));
    return true;
  }

  /// SelfDeadlock and LockLeak over the held-locks dataflow.
  void checkLockLifecycle() {
    const dataflow::HeldLocks& held = comp_.heldLocks();
    for (const pfg::Node& n : graph_.nodes()) {
      if (n.kind != pfg::NodeKind::Lock) continue;
      const SymbolId lock = n.syncStmt->sync;

      if (held.mayHoldOnEntry(n.id, lock)) {
        ++report_.selfDeadlocks;
        Diagnostic& d = diag_.warn(
            DiagCode::SelfDeadlock, n.syncStmt->loc,
            "lock('" + syms_.nameOf(lock) +
                "') may already be held when re-acquired here; locks are "
                "not reentrant, so the acquiring thread blocks forever");
        for (const pfg::Node& m : graph_.nodes()) {
          if (m.id == n.id || m.kind != pfg::NodeKind::Lock ||
              m.syncStmt->sync != lock)
            continue;
          if (held.reachesWithoutUnlock(m.id, n.id, lock)) {
            d.note(m.syncStmt->loc,
                   "acquired here and still held on some path to the "
                   "re-acquisition");
            break;
          }
        }
      }

      if (held.reachesWithoutUnlock(n.id, graph_.exit, lock)) {
        ++report_.lockLeaks;
        const bool inParallel = !n.threadPath.empty();
        diag_.warn(DiagCode::LockLeak, n.syncStmt->loc,
                   "lock('" + syms_.nameOf(lock) + "') is still held when " +
                       (inParallel ? "its thread ends"
                                   : "the program ends") +
                       " on some path: no unlock('" + syms_.nameOf(lock) +
                       "') executes on it");
      }
    }
  }

  /// Empty / redundant / over-wide mutex body lints.
  void checkMutexBodies() {
    const opt::LockIndependence independence(comp_);
    for (const mutex::MutexBody& b : structures_.bodies()) {
      const pfg::Node& lockNode = graph_.node(b.lockNode);
      const SourceLoc lockLoc = lockNode.syncStmt->loc;
      const std::string lockName = syms_.nameOf(b.lockVar);

      // Interior shape: the body's member nodes minus its own unlock.
      std::vector<const pfg::Node*> blocks;
      bool straightLine = true;
      std::size_t interiorStmts = 0;
      for (NodeId id : b.members) {
        if (id == b.unlockNode) continue;
        const pfg::Node& n = graph_.node(id);
        if (n.kind == pfg::NodeKind::Block) {
          blocks.push_back(&n);
          interiorStmts += n.stmts.size();
          if (n.terminator != nullptr) {
            ++interiorStmts;
            straightLine = false;
          }
        } else {
          straightLine = false;  // nested sync/cobegin/barrier
          ++interiorStmts;
        }
      }

      if (interiorStmts == 0) {
        ++report_.emptyBodies;
        diag_.warn(DiagCode::EmptyMutexBody, lockLoc,
                   "mutex body of lock '" + lockName +
                       "' protects no statements")
            .note(locOf(graph_.node(b.unlockNode).syncStmt),
                  "unlocked here without any work in between");
        continue;
      }

      // Redundant / over-wide, via lock independence (Definition 5 — the
      // same legality LICM uses). Only meaningful on straight-line
      // single-block bodies, where statement order is unambiguous.
      if (!straightLine || blocks.size() != 1) continue;
      const std::vector<ir::Stmt*>& stmts = blocks.front()->stmts;
      std::size_t prefix = 0;
      while (prefix < stmts.size() &&
             independence.isLockIndependent(*stmts[prefix]))
        ++prefix;
      std::size_t suffix = 0;
      while (suffix + prefix < stmts.size() &&
             independence.isLockIndependent(
                 *stmts[stmts.size() - 1 - suffix]))
        ++suffix;

      // Every interior statement is lock independent: nothing in the body
      // can be accessed concurrently, so the lock serializes nothing.
      if (prefix == stmts.size()) {
        ++report_.redundantBodies;
        diag_.warn(DiagCode::RedundantMutexBody, lockLoc,
                   "mutex body of lock '" + lockName +
                       "' contains only lock-independent statements; "
                       "the lock serializes nothing");
        continue;
      }
      if (prefix + suffix == 0) continue;
      ++report_.overwideBodies;
      Diagnostic& d = diag_.warn(
          DiagCode::OverwideMutexBody, lockLoc,
          "mutex body of lock '" + lockName + "' is wider than needed: " +
              std::to_string(prefix) + " leading and " +
              std::to_string(suffix) +
              " trailing statement(s) are lock independent");
      if (prefix > 0)
        d.note(stmts.front()->loc,
               "lock-independent prefix starts here");
      if (suffix > 0)
        d.note(stmts.back()->loc, "lock-independent suffix ends here");
    }
  }

  /// UnprotectedPiRead: surviving CSSAME π conflict arguments join the
  /// use's lockset against each concurrent reaching definition's.
  void checkPiReads() {
    const ssa::SsaForm& ssa = comp_.ssa();
    for (SsaNameId piId : ssa.livePis()) {
      const ssa::Definition& pi = ssa.def(piId);
      if (pi.piConflictArgs.empty()) continue;
      const std::set<SymbolId>& useLs = structures_.locksetAt(pi.node);
      bool warned = false;
      for (const ssa::PiConflictArg& arg : pi.piConflictArgs) {
        if (!comp_.mhp().mayHappenInParallel(arg.fromNode, pi.node))
          continue;
        const std::set<SymbolId>& defLs = structures_.locksetAt(arg.fromNode);
        if (!locksetsDisjoint(useLs, defLs)) continue;
        if (!warned) {
          warned = true;
          ++report_.unprotectedPiReads;
          Diagnostic& d = diag_.warn(
              DiagCode::UnprotectedPiRead, locOf(pi.piUseStmt),
              "read of shared variable '" + syms_.nameOf(pi.var) +
                  "' (under lockset " + locksetStr(useLs, syms_) +
                  ") can observe a concurrent write mutual exclusion "
                  "does not order");
          d.note(locOf(arg.defStmt),
                 "concurrent write under lockset " +
                     locksetStr(defLs, syms_));
          noteMhp(d, arg.fromNode, pi.node);
        }
      }
    }
  }

  const driver::Compilation& comp_;
  DiagEngine& diag_;
  CsanOptions opts_;
  const pfg::Graph& graph_;
  const ir::SymbolTable& syms_;
  const mutex::MutexStructures& structures_;
  std::unordered_map<StmtId, const ir::Stmt*> cobeginStmt_;
  /// Indexed by SymbolId: the class has a conflict edge that may happen
  /// in parallel. Filled by collectRaces().
  std::vector<bool> concurrent_;
  CsanReport report_;
};

}  // namespace

CsanReport runCsan(const driver::Compilation& comp, DiagEngine& diag,
                   const CsanOptions& opts) {
  return Csan(comp, diag, opts).run();
}

PerVariableRaces perVariableRaces(const driver::Compilation& comp,
                                  DiagEngine& diag) {
  return Csan(comp, diag, {}).perVariable();
}

}  // namespace cssame::sanalysis
