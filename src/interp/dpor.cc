#include "src/interp/dpor.h"

#include <algorithm>
#include <array>
#include <optional>

namespace cssame::interp::dpor {

namespace {

/// Folds one statement list (recursively, cobegin arms included — a
/// spawning thread's footprint covers its descendants) into `fp`, and
/// registers each cobegin arm as a thread body of its own.
void collect(const ir::StmtList& list, std::size_t symbols, Footprint& fp,
             std::unordered_map<const ir::StmtList*, Footprint>& byBody);

void collectBody(const ir::StmtList& list, std::size_t symbols,
                 std::unordered_map<const ir::StmtList*, Footprint>& byBody) {
  Footprint fp;
  fp.reads.assign(symbols, false);
  fp.writes.assign(symbols, false);
  fp.syncs.assign(symbols, false);
  fp.sets.assign(symbols, false);
  collect(list, symbols, fp, byBody);
  fp.hasAnyWrite =
      fp.anywhereWrite ||
      std::find(fp.writes.begin(), fp.writes.end(), true) != fp.writes.end();
  byBody.emplace(&list, std::move(fp));
}

void collect(const ir::StmtList& list, std::size_t symbols, Footprint& fp,
             std::unordered_map<const ir::StmtList*, Footprint>& byBody) {
  for (const auto& sp : list) {
    const ir::Stmt& s = *sp;
    ir::forEachStmtExpr(s, [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        switch (e.kind) {
          case ir::ExprKind::VarRef:
          case ir::ExprKind::Index:
            fp.reads[e.var.index()] = true;
            break;
          case ir::ExprKind::Deref:
            fp.anywhereRead = true;
            break;
          default:
            break;
        }
      });
    });
    switch (s.kind) {
      case ir::StmtKind::Assign:
        switch (s.lhsKind) {
          case ir::LValueKind::Var:
          case ir::LValueKind::Index:
            fp.writes[s.lhs.index()] = true;
            break;
          case ir::LValueKind::Deref:
            fp.anywhereWrite = true;
            break;
        }
        break;
      case ir::StmtKind::Lock:
      case ir::StmtKind::Unlock:
      case ir::StmtKind::Wait:
        fp.syncs[s.sync.index()] = true;
        break;
      case ir::StmtKind::Set:
        fp.syncs[s.sync.index()] = true;
        fp.sets[s.sync.index()] = true;
        break;
      case ir::StmtKind::Barrier:
        fp.hasBarrier = true;
        break;
      case ir::StmtKind::Assert:
        fp.hasGlobal = true;
        break;
      case ir::StmtKind::Cobegin:
        fp.hasGlobal = true;  // spawning reassigns thread indices
        for (const ir::ThreadBody& tb : s.threads) {
          collectBody(tb.body, symbols, byBody);  // the child's own body
          collect(tb.body, symbols, fp, byBody);  // folded into the parent
        }
        break;
      case ir::StmtKind::Print:
        fp.hasPrint = true;
        break;
      default:
        break;
    }
    collect(s.thenBody, symbols, fp, byBody);
    collect(s.elseBody, symbols, fp, byBody);
  }
}

/// Do the resolved memory cells of `a` conflict (write vs any) with those
/// of `b`? Also covers the symbol-granularity unwind reads.
bool cellsConflict(const Machine::ActionFacts& a,
                   const Machine::ActionFacts& b) {
  const bool aWrites = !a.acc.writes.empty();
  const bool bWrites = !b.acc.writes.empty();
  if (a.anywhereRead && bWrites) return true;
  if (b.anywhereRead && aWrites) return true;
  for (const auto& [cell, sym] : a.acc.writes) {
    for (const auto& [c2, s2] : b.acc.writes)
      if (c2 == cell) return true;
    for (const auto& [c2, s2] : b.acc.reads)
      if (c2 == cell) return true;
    for (SymbolId v : b.loopReads)
      if (v == sym) return true;
  }
  for (const auto& [cell, sym] : b.acc.writes) {
    for (const auto& [c2, s2] : a.acc.reads)
      if (c2 == cell) return true;
    for (SymbolId v : a.loopReads)
      if (v == sym) return true;
  }
  return false;
}

/// True when the expression tree takes an address or dereferences one.
bool usesPointers(const ir::Expr& root) {
  bool found = false;
  ir::forEachExpr(root, [&](const ir::Expr& e) {
    found = found || e.kind == ir::ExprKind::Deref ||
            e.kind == ir::ExprKind::AddrOf;
  });
  return found;
}

bool stmtUsesPointers(const ir::Stmt& s) {
  bool found = s.kind == ir::StmtKind::Assign &&
               s.lhsKind == ir::LValueKind::Deref;
  ir::forEachStmtExpr(
      s, [&](const ir::Expr& root) { found = found || usesPointers(root); });
  return found;
}

/// Per statement of `list`: for a `lock(L)` that opens a lexical region,
/// the index of the `unlock(L)` closing it — the first later statement
/// that locks or unlocks L at any nesting, when it is that unlock. 0
/// everywhere else. One pass; nested statements are walked once each.
std::vector<std::size_t> regionEnds(const ir::StmtList& list) {
  std::vector<std::size_t> end(list.size(), 0);
  std::unordered_map<SymbolId, std::size_t> open;  // lock -> its lock(L)
  for (std::size_t j = 0; j < list.size(); ++j) {
    const ir::Stmt& s = *list[j];
    if (s.kind == ir::StmtKind::Unlock) {
      if (const auto it = open.find(s.sync); it != open.end()) {
        end[it->second] = j;
        open.erase(it);
      }
      continue;
    }
    if (s.kind == ir::StmtKind::Lock) {
      open[s.sync] = j;  // a pending lock(L) is touched first by this one
      continue;
    }
    auto visit = [&](const ir::Stmt& t) {
      if (t.kind == ir::StmtKind::Lock || t.kind == ir::StmtKind::Unlock)
        open.erase(t.sync);
    };
    ir::forEachStmt(s.thenBody, visit);
    ir::forEachStmt(s.elseBody, visit);
    for (const ir::ThreadBody& tb : s.threads) ir::forEachStmt(tb.body, visit);
  }
  return end;
}

/// One walk over the program: candidate bodies (the straight-line
/// regions), and per shared variable the locks lexically held at every
/// one of its accesses inside cobegin arms.
class BodyScan {
 public:
  explicit BodyScan(const ir::Program& prog)
      : prog_(prog), guard_(prog.symbols.size()) {
    walk(prog.body, {}, /*inArm=*/false, /*clean=*/true);
  }

  /// Moves the candidates whose variables are all consistently guarded
  /// by their lock into `out`.
  void emit(std::unordered_map<const ir::Stmt*, AtomicBody>& out) {
    for (Candidate& c : candidates_) {
      const SymbolId lock = c.lock->sync;
      auto guarded = [&](SymbolId v) {
        const std::optional<std::vector<SymbolId>>& g = guard_[v.index()];
        return !g || std::find(g->begin(), g->end(), lock) != g->end();
      };
      if (std::all_of(c.body.reads.begin(), c.body.reads.end(), guarded) &&
          std::all_of(c.body.writes.begin(), c.body.writes.end(), guarded))
        out.emplace(c.lock, std::move(c.body));
    }
  }

 private:
  struct Candidate {
    const ir::Stmt* lock;
    AtomicBody body;
  };

  /// Narrows v's guard to the locks held at this access.
  void access(SymbolId v, const std::vector<SymbolId>& held) {
    if (!prog_.symbols.isSharedVar(v)) return;
    std::optional<std::vector<SymbolId>>& g = guard_[v.index()];
    if (!g) {
      g = held;
      return;
    }
    std::erase_if(*g, [&](SymbolId l) {
      return std::find(held.begin(), held.end(), l) == held.end();
    });
  }

  /// Calls `fn` on every variable statement `s` itself reads or writes.
  template <typename Fn>
  static void forEachVar(const ir::Stmt& s, Fn&& fn) {
    ir::forEachStmtExpr(s, [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        if (e.kind == ir::ExprKind::VarRef || e.kind == ir::ExprKind::Index)
          fn(e.var, false);
      });
    });
    if (s.kind == ir::StmtKind::Assign && s.lhsKind != ir::LValueKind::Deref)
      fn(s.lhs, true);
  }

  /// `held`: the locks lexically held on entry to `list` in the thread
  /// running it. `clean`: no enclosing cobegin uses pointers.
  void walk(const ir::StmtList& list, std::vector<SymbolId> held, bool inArm,
            bool clean) {
    const std::vector<std::size_t> ends = regionEnds(list);
    for (std::size_t k = 0; k < list.size(); ++k) {
      const ir::Stmt& s = *list[k];
      // An unlock(L) with L held closes a region of this list: a region
      // inherited from an enclosing list has no unlock(L) inside it.
      if (s.kind == ir::StmtKind::Unlock) std::erase(held, s.sync);
      if (inArm) forEachVar(s, [&](SymbolId v, bool) { access(v, held); });
      switch (s.kind) {
        case ir::StmtKind::Lock:
          if (ends[k] != 0) {
            held.push_back(s.sync);
            if (clean) candidate(list, k, ends[k]);
          }
          break;
        case ir::StmtKind::If:
        case ir::StmtKind::While:
          walk(s.thenBody, held, inArm, clean);
          walk(s.elseBody, held, inArm, clean);
          break;
        case ir::StmtKind::Cobegin: {
          bool armsClean = clean;
          for (const ir::ThreadBody& tb : s.threads)
            ir::forEachStmt(tb.body, [&](const ir::Stmt& t) {
              armsClean = armsClean && !stmtUsesPointers(t);
            });
          for (const ir::ThreadBody& tb : s.threads)
            walk(tb.body, {}, /*inArm=*/true, armsClean);
          break;
        }
        default:
          break;
      }
    }
  }

  /// Records the region list[k+1..j) as a candidate body when it is a
  /// straight run of plain assignments and calls.
  void candidate(const ir::StmtList& list, std::size_t k, std::size_t j) {
    Candidate c{list[k].get(), {}};
    c.body.steps = static_cast<std::uint32_t>(j - k);
    for (std::size_t i = k + 1; i < j; ++i) {
      const ir::Stmt& s = *list[i];
      const bool plain =
          (s.kind == ir::StmtKind::Assign && !s.atomic) ||
          s.kind == ir::StmtKind::CallStmt;
      if (!plain || stmtUsesPointers(s)) return;
      forEachVar(s, [&](SymbolId v, bool write) {
        if (prog_.symbols.isSharedVar(v))
          (write ? c.body.writes : c.body.reads).push_back(v);
      });
    }
    for (std::vector<SymbolId>* vars : {&c.body.reads, &c.body.writes}) {
      std::sort(vars->begin(), vars->end());
      vars->erase(std::unique(vars->begin(), vars->end()), vars->end());
    }
    candidates_.push_back(std::move(c));
  }

  const ir::Program& prog_;
  /// Per symbol: locks held at every arm access so far (nullopt before
  /// the first one).
  std::vector<std::optional<std::vector<SymbolId>>> guard_;
  std::vector<Candidate> candidates_;
};

}  // namespace

StaticFootprints::StaticFootprints(const ir::Program& prog) {
  collectBody(prog.body, prog.symbols.size(), byBody_);
}

AtomicBodies::AtomicBodies(const ir::Program& prog) {
  BodyScan(prog).emit(byLock_);
}

const AtomicBody* AtomicBodies::of(const Machine& machine,
                                   Machine::Action a) const {
  if (a.flush || byLock_.empty()) return nullptr;
  const Machine::Status st = machine.statusOf(a.thread);
  if (st != Machine::Status::Runnable && st != Machine::Status::WaitLock)
    return nullptr;
  const ir::Stmt* s = machine.currentStmt(a.thread);
  if (s == nullptr || s->kind != ir::StmtKind::Lock ||
      machine.lockHolderOf(s->sync) != Machine::kNoThread)
    return nullptr;
  const auto it = byLock_.find(s);
  return it == byLock_.end() ? nullptr : &it->second;
}

bool dependent(const Machine::ActionFacts& a, const Machine::ActionFacts& b) {
  if (a.global || b.global) return true;
  if (a.print && b.print) return true;
  if (a.barrier && b.barrier) return true;
  if (a.sync.valid() && b.sync.valid() && a.sync == b.sync) return true;
  return cellsConflict(a, b);
}

bool futureConflict(const Footprint& fp, const Machine::ActionFacts& f) {
  if (fp.hasGlobal || f.global) return true;
  if (fp.hasBarrier && f.barrier) return true;
  if (fp.hasPrint && f.print) return true;
  if (f.sync.valid() && fp.syncs[f.sync.index()]) return true;
  if (f.anywhereRead && fp.hasAnyWrite) return true;
  if (fp.anywhereRead && !f.acc.writes.empty()) return true;
  if (fp.anywhereWrite &&
      (!f.acc.writes.empty() || !f.acc.reads.empty() || !f.loopReads.empty()))
    return true;
  for (const auto& [cell, sym] : f.acc.writes)
    if (fp.reads[sym.index()] || fp.writes[sym.index()]) return true;
  for (const auto& [cell, sym] : f.acc.reads)
    if (fp.writes[sym.index()]) return true;
  for (SymbolId v : f.loopReads)
    if (fp.writes[v.index()]) return true;
  return false;
}

StateSets computeStateSets(const Machine& machine,
                           std::span<const Machine::Action> ready,
                           const StaticFootprints& footprints,
                           const AtomicBodies* bodies, Scratch& scratch,
                           std::span<std::uint64_t> depMask) {
  StateSets out;
  const std::size_t n = machine.threadCount();
  if (n > kMaxDporThreads || ready.empty()) return out;

  // Dynamic facts of every enabled action, and each thread's enabled
  // actions: ready is in thread order, so they are the index range
  // [firstOf[t], firstOf[t] + countOf[t]).
  if (scratch.facts.size() < ready.size()) scratch.facts.resize(ready.size());
  std::vector<Machine::ActionFacts>& facts = scratch.facts;
  std::array<std::uint8_t, kMaxDporThreads> firstOf{};
  std::array<std::uint8_t, kMaxDporThreads> countOf{};
  for (std::size_t i = 0; i < ready.size(); ++i) {
    machine.actionFacts(ready[i], facts[i],
                        bodies == nullptr ? nullptr : bodies->of(machine, ready[i]));
    const std::size_t t = ready[i].thread;
    if (countOf[t]++ == 0) firstOf[t] = static_cast<std::uint8_t>(i);
    out.enabledMask |= actionKeyBit(ready[i]);
  }

  // Whole-body footprints of the alive threads.
  std::array<const Footprint*, kMaxDporThreads> fp{};
  for (std::size_t t = 0; t < n; ++t) {
    if (machine.statusOf(t) == Machine::Status::Done) continue;
    fp[t] = footprints.of(machine.rootListOf(t));
    if (fp[t] == nullptr) return out;  // unknown body: full expansion
  }

  // Thread closure. Adding a thread adds all its enabled actions to the
  // persistent set; a thread with no enabled action adds a necessary
  // enabling set instead — whoever must move before it can ever fire.
  // Already-in-Q members make the recursion idempotent, so a cycle of
  // mutually blocked threads (a real deadlock) terminates as satisfied:
  // permanently disabled operations need no enabler.
  std::array<char, kMaxDporThreads> inQ{};
  std::array<std::size_t, kMaxDporThreads> work;  // each thread enters once
  std::size_t workLen = 0;
  auto push = [&](std::size_t t) {
    if (t >= n || inQ[t] != 0) return;
    if (machine.statusOf(t) == Machine::Status::Done) return;
    inQ[t] = 1;
    work[workLen++] = t;
  };
  auto coverBlocked = [&](std::size_t t) {
    switch (machine.statusOf(t)) {
      case Machine::Status::WaitLock: {
        // Only the holder can release the lock (unlock by a non-holder
        // flags lockError without freeing it).
        const std::size_t holder = machine.lockHolderOf(machine.waitSymOf(t));
        if (holder != Machine::kNoThread) push(holder);
        return;
      }
      case Machine::Status::WaitEvent: {
        // Any alive thread that may ever post the event could enable the
        // wait, so every potential setter must be covered.
        const SymbolId e = machine.waitSymOf(t);
        for (std::size_t u = 0; u < n; ++u)
          if (u != t && fp[u] != nullptr && fp[u]->sets[e.index()]) push(u);
        return;
      }
      case Machine::Status::Joining: {
        // The join stays disabled while its first unfinished child is
        // unfinished — threads reach Done only by their own actions.
        for (std::size_t c : machine.childrenOf(t))
          if (machine.statusOf(c) != Machine::Status::Done) {
            push(c);
            return;
          }
        return;
      }
      case Machine::Status::BarrierWait: {
        // Mirror of canProgress: the first sibling still keeping the
        // barrier closed must arrive (or finish) first.
        for (std::size_t s : machine.siblingsOf(t)) {
          if (s == t) continue;
          const Machine::Status st = machine.statusOf(s);
          if (st == Machine::Status::Done || st == Machine::Status::Draining)
            continue;
          if (machine.barrierEpochOf(s) > machine.barrierEpochOf(t)) continue;
          if (st == Machine::Status::BarrierWait &&
              machine.barrierEpochOf(s) == machine.barrierEpochOf(t))
            continue;
          push(s);
          return;
        }
        return;
      }
      default:
        // Runnable/Draining threads with no enabled action are gated
        // only on their own store buffer, and a non-empty buffer always
        // has its flush action enabled — unreachable here.
        return;
    }
  };

  push(ready[0].thread);
  for (bool changed = true; changed;) {
    // Drain the worklist: blocked members contribute their enablers.
    while (workLen != 0) {
      const std::size_t t = work[--workLen];
      if (countOf[t] == 0) coverBlocked(t);
    }
    // Pull in every outside thread whose future may conflict with an
    // enabled action of the closure.
    changed = false;
    for (std::size_t u = 0; u < n && !changed; ++u) {
      if (inQ[u] != 0 || fp[u] == nullptr) continue;
      for (std::size_t t = 0; t < n && !changed; ++t) {
        if (inQ[t] == 0) continue;
        for (std::size_t i = firstOf[t]; i < firstOf[t] + countOf[t]; ++i) {
          ++out.depQueries;
          if (futureConflict(*fp[u], facts[i])) {
            push(u);
            changed = true;
            break;
          }
        }
      }
    }
  }

  for (std::size_t i = 0; i < ready.size(); ++i)
    if (inQ[ready[i].thread] != 0) out.pMask |= actionKeyBit(ready[i]);

  // Pairwise dependence masks for the sleep-set layer.
  std::fill(depMask.begin(), depMask.end(), 0);
  for (std::size_t i = 0; i < ready.size(); ++i) {
    for (std::size_t j = i + 1; j < ready.size(); ++j) {
      bool dep = ready[i].thread == ready[j].thread;
      if (!dep) {
        ++out.depQueries;
        dep = dependent(facts[i], facts[j]);
      }
      if (dep) {
        depMask[i] |= actionKeyBit(ready[j]);
        depMask[j] |= actionKeyBit(ready[i]);
      }
    }
  }
  out.ok = true;
  return out;
}

}  // namespace cssame::interp::dpor
