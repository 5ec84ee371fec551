#include "src/interp/dpor.h"

#include <algorithm>
#include <array>

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

}  // namespace

StaticFootprints::StaticFootprints(const ir::Program& prog) {
  collectBody(prog.body, prog.symbols.size(), byBody_);
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
                           Scratch& scratch, std::span<std::uint64_t> depMask) {
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
    machine.actionFacts(ready[i], facts[i]);
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
