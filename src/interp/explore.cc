// Layered breadth-first schedule exploration.
//
// Each loop iteration processes one frontier layer — all candidate
// states at the same step depth — in fixed phases:
//
//   1. classify (parallel): per state, fingerprint, terminal /
//      deadlock / normal classification, ready-thread list, value
//      sampling and dynamic race recording into per-worker partials.
//   2a. deduplicate (parallel): the visited set is sharded by
//      fingerprint; each worker owns a fixed subset of shards and scans
//      the frontier *in order* for keys in its shards, so the dedup
//      winner among equal states is always the earliest frontier slot —
//      independent of the worker count.
//   2b. record (serial): walk the frontier in order, record terminal
//      outputs and count freshly-deduplicated states, enforcing the
//      States budget exactly (the count stops at maxStates + 1).
//   3. expand (parallel): every fresh state emits one successor per
//      ready thread into a pre-assigned slot of the next frontier, so
//      the next layer's order is a pure function of this layer.
//
// Budgets are enforced at layer boundaries (Steps, Depth, States,
// Memory) plus one cooperative check inside expansion: workers
// accumulate successor bytes into a monotonic atomic counter and stop
// expanding once it crosses the memory cap. Whether the counter crosses
// depends only on the layer's total successor footprint — not on thread
// scheduling — so even the mid-expansion trip is deterministic. The full
// argument is written out in docs/PERFORMANCE.md.
// Partial-order reduction (ExploreOptions::dpor) layers onto the phases
// without disturbing the determinism argument: persistent sets and
// dependence masks are pure functions of the state, computed in
// classify; sleep sets ride alongside the frontier and are inherited
// positionally in expand; and the visited map's sleep-mask merges happen
// in the same shard-ordered scan the dedup phase already does. With the
// reduction off every phase degenerates bit-for-bit to the unreduced
// sweep. docs/PERFORMANCE.md extends the determinism argument to the
// sleep machinery; src/interp/dpor.h states the soundness contract.
// Under SC the reduced sweep also runs each qualifying mutex body
// (dpor::AtomicBodies) in the same successor as the acquire that starts
// it: one action, one layer, its machine steps all counted.
#include "src/interp/explore.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "src/interp/dpor.h"
#include "src/interp/machine.h"
#include "src/support/threadpool.h"
#include "src/support/visited.h"

namespace cssame::interp {

namespace {

/// Per-worker accumulator and scratch. Races and value ranges land here
/// during the parallel classify phase and are folded into the result at
/// the layer boundary; both folds are commutative, so the merge order
/// (and hence the worker count) cannot affect the result. The scratch
/// vectors keep their capacity from layer to layer, so classifying a
/// state allocates nothing once they have grown.
struct Partial {
  std::set<SymbolId> racedVars;
  std::map<SymbolId, std::pair<long long, long long>> observedRanges;
  std::uint64_t depQueries = 0;  ///< DPOR dependence tests (summed)
  /// This layer's ready lists of the states this worker classified,
  /// concatenated (Slot::readyOff indexes it), and under DPOR their
  /// dependence masks, index for index.
  std::vector<Machine::Action> ready;
  std::vector<std::uint64_t> depMask;
  std::vector<Machine::PendingAccess> acc;  ///< race oracle, per action
  dpor::Scratch dpor;
};

class Explorer {
 public:
  Explorer(const ir::Program& prog, const ExploreOptions& opts,
           support::ThreadPool& pool)
      : prog_(prog),
        opts_(opts),
        pool_(pool),
        layout_(prog, opts.model),
        partials_(pool.workers()) {
    if (opts_.recordValues) {
      for (const ir::Symbol& s : prog_.symbols.all())
        if (s.kind == ir::SymbolKind::Var) sampledVars_.push_back(s.id);
    }
    if (opts_.dpor) footprints_.emplace(prog_);
    if (opts_.dpor && opts_.model == support::MemoryModel::SC)
      atomicBodies_.emplace(prog_);
  }

  ExploreResult run() {
    frontier_.emplace_back(layout_);
    frontierBytes_ = frontier_.front().approxBytes();
    result_.peakFrontierBytes = frontierBytes_;
    if (opts_.dpor) sleepIn_.assign(1, 0);
    std::uint64_t depth = 0;
    while (!frontier_.empty()) {
      if (stepsUsed_ >= opts_.maxSteps) {
        trip(support::BudgetKind::Steps);
        break;
      }
      const bool atDepthCap = depth >= opts_.maxDepthPerRun;
      classifyLayer(atDepthCap);
      mergePartials();
      if (atDepthCap) {
        // Every remaining state sits at or beyond the cap; states at the
        // cap are sampled (above) but not recorded or expanded.
        trip(support::BudgetKind::Depth);
        break;
      }
      dedupLayer();
      if (!recordLayer()) break;  // States budget
      memBase_ = frontierBytes_ + visited_.approxBytes();
      if (memBase_ > opts_.maxMemoryBytes) {
        trip(support::BudgetKind::Memory);
        break;
      }
      if (!expandLayer()) break;  // Memory budget (cooperative)
      ++depth;
    }
    return std::move(result_);
  }

 private:
  /// Records the first tripped budget. Every trip ends the layer loop:
  /// unlike a depth-first search there is no "elsewhere" to continue —
  /// all shallower work is already done.
  void trip(support::BudgetKind kind) {
    result_.complete = false;
    if (result_.budgetExceeded == support::BudgetKind::None)
      result_.budgetExceeded = kind;
  }

  /// Folds every variable's current value into a worker's observed
  /// min/max. Every frontier state — initial, terminal, duplicate and
  /// depth-capped alike — is sampled in the layer it appears.
  void sample(const Machine& machine, Partial& p) {
    for (SymbolId v : sampledVars_) {
      // For an array the whole cell region folds into its symbol's range.
      const auto [lo, hi] = machine.valueRangeOf(v);
      auto [it, fresh] = p.observedRanges.try_emplace(v, lo, hi);
      if (!fresh) {
        it->second.first = std::min(it->second.first, lo);
        it->second.second = std::max(it->second.second, hi);
      }
    }
  }

  /// Two runnable threads with conflicting pending accesses: their next
  /// steps can execute in either order from this very state, so the
  /// conflict is a concrete (not merely may-happen) race witness. (Lock
  /// ownership is exclusive, so two co-enabled threads never both hold a
  /// common lock.)
  void recordRaces(const Machine& machine,
                   std::span<const Machine::Action> actions, Partial& p) {
    // Only program steps of runnable threads carry pending statements;
    // TSO flush actions commit already-recorded stores and are skipped.
    // Accesses are matched by dynamically resolved memory cell (the
    // machine evaluates pointer and index addresses in the thread's own
    // view), then attributed to the owning symbol.
    if (p.acc.size() < actions.size()) p.acc.resize(actions.size());
    std::size_t n = 0;
    for (const Machine::Action& a : actions)
      if (!a.flush) machine.pendingAccesses(a.thread, p.acc[n++]);
    auto conflict = [&](const Machine::PendingAccess& w,
                        const Machine::PendingAccess& r) {
      for (const auto& [cell, sym] : w.writes) {
        for (const auto& [c2, s2] : r.writes)
          if (c2 == cell) p.racedVars.insert(sym);
        for (const auto& [c2, s2] : r.reads)
          if (c2 == cell) p.racedVars.insert(sym);
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        conflict(p.acc[i], p.acc[j]);
        conflict(p.acc[j], p.acc[i]);
      }
    }
  }

  /// Phase 1: per-state facts, computed in parallel into per-slot and
  /// per-worker storage (no shared writes). At the depth cap only the
  /// value sampling runs — the old per-state order was sample, then
  /// depth check, then terminal classification.
  void classifyLayer(bool atDepthCap) {
    slots_.assign(frontier_.size(), Slot{});
    for (Partial& p : partials_) {
      p.ready.clear();
      p.depMask.clear();
    }
    pool_.parallelFor(frontier_.size(), [&](std::size_t i, unsigned w) {
      const Machine& m = frontier_[i];
      Partial& p = partials_[w];
      if (opts_.recordValues) sample(m, p);
      if (atDepthCap) return;
      Slot& s = slots_[i];
      s.hash = m.stateHash128();
      if (!m.anyAlive()) {
        s.kind = Slot::Terminal;
        return;
      }
      s.worker = w;
      s.readyOff = p.ready.size();
      m.readyActions(p.ready);
      s.readyLen = p.ready.size() - s.readyOff;
      if (s.readyLen == 0) {
        s.kind = Slot::Deadlock;
        return;
      }
      const std::span<const Machine::Action> ready(p.ready.data() + s.readyOff,
                                                   s.readyLen);
      // Race recording scans *all* enabled actions, before any pruning:
      // a race witness is recorded at every visited state where the
      // conflicting pair is co-enabled, slept or not.
      if (opts_.detectRaces && s.readyLen >= 2) recordRaces(m, ready, p);
      if (opts_.dpor) {
        p.depMask.resize(p.ready.size());
        const dpor::StateSets sets = dpor::computeStateSets(
            m, ready, *footprints_,
            atomicBodies_ ? &*atomicBodies_ : nullptr, p.dpor,
            std::span(p.depMask.data() + s.readyOff, s.readyLen));
        p.depQueries += sets.depQueries;
        s.dporOk = sets.ok;
        if (sets.ok) {
          s.pMask = sets.pMask;
          // Sleep keys stay enabled along independent paths; clamping to
          // the enabled mask is defensive (dropping a key only explores
          // more) and keeps the masks meaningful for the merge rule.
          s.sleepIn = sleepIn_[i] & sets.enabledMask;
        }
      }
    });
  }

  void mergePartials() {
    for (Partial& p : partials_) {
      result_.racedVars.merge(p.racedVars);
      p.racedVars.clear();
      for (const auto& [v, mm] : p.observedRanges) {
        auto [it, fresh] = result_.observedRanges.try_emplace(v, mm);
        if (!fresh) {
          it->second.first = std::min(it->second.first, mm.first);
          it->second.second = std::max(it->second.second, mm.second);
        }
      }
      p.observedRanges.clear();
      result_.dpor.depQueries += p.depQueries;
      p.depQueries = 0;
    }
  }

  /// Phase 2a: sharded deduplication. Worker task w owns the shards with
  /// index ≡ w (mod tasks) and scans the whole frontier in order for
  /// keys in its shards; equal keys land in the same shard, so the
  /// dedup winner — and, under DPOR, every sleep-mask merge and the
  /// `missing` masks it yields — follows the deterministic frontier
  /// order regardless of how many workers run.
  ///
  /// This phase also decides each slot's expansion set. Fresh states
  /// expand their persistent set minus the inherited sleep set; a
  /// revisited state expands whatever the stored visit slept that this
  /// visit would run (the state-caching repair — see ShardedVisitedMap).
  void dedupLayer() {
    const std::size_t tasks = pool_.workers();
    pool_.parallelFor(tasks, [&](std::size_t t, unsigned) {
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        if (s.kind != Slot::Normal) continue;
        if (support::ShardedVisitedMap::shardOf(s.hash) % tasks != t) continue;
        if (opts_.dpor && s.dporOk) {
          const auto r = visited_.insertOrMerge(s.hash, s.sleepIn, s.pMask);
          s.fresh = r.fresh;
          s.expandMask = r.fresh ? s.pMask & ~s.sleepIn : r.missing;
        } else {
          // Unreduced (or >32-thread fallback): full expansion, empty
          // sleep — the map behaves exactly like the plain visited set.
          s.fresh = visited_.insertOrMerge(s.hash, 0, 0).fresh;
          s.expandAll = s.fresh;
        }
      }
    });
  }

  /// Phase 2b: serial in-order scan. Terminal and deadlocked states are
  /// recorded (never deduplicated or counted — matching the per-state
  /// order terminal-check-before-dedup of the original search); fresh
  /// states are counted against the States budget, which trips exactly
  /// at maxStates + 1. Returns false when the budget tripped.
  bool recordLayer() {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      const Machine& m = frontier_[i];
      if (s.kind == Slot::Terminal) {
        result_.outputs.emplace(m.output().begin(), m.output().end());
        result_.anyLockError |= m.lockError();
        result_.anyAssertFailure |= m.assertFailed();
        result_.anyPtrError |= m.ptrError();
        continue;
      }
      if (s.kind == Slot::Deadlock) {
        result_.anyDeadlock = true;
        result_.outputs.emplace(m.output().begin(), m.output().end());
        continue;
      }
      if (!s.fresh) {
        // A revisited state re-expanding slept actions is not a new
        // state — it only repairs coverage — so it never counts against
        // the States budget.
        if (s.expandMask != 0) ++result_.dpor.partialReexpansions;
        continue;
      }
      if (opts_.dpor && s.dporOk) {
        result_.dpor.sleepSetHits +=
            std::popcount(s.pMask & s.sleepIn);
        result_.dpor.prunedSuccessors +=
            s.readyLen - std::popcount(s.expandMask);
      }
      ++result_.statesExplored;
      if (result_.statesExplored > opts_.maxStates) {
        trip(support::BudgetKind::States);
        return false;
      }
    }
    return true;
  }

  /// Phase 3: expand each slot's selected actions into pre-assigned
  /// slots of the next frontier (the last successor steals the parent
  /// machine instead of copying it). Under DPOR the selection is the
  /// expansion mask decided in dedup, and each successor inherits its
  /// sleep set positionally: the inherited sleep plus every action
  /// expanded before it in ready order, minus everything dependent with
  /// the action taken — a pure function of the slot, so the next layer's
  /// sleep sets are as worker-count-independent as its machines. An
  /// acquire that starts an atomic body runs the body through its unlock
  /// on the same successor.
  /// Successor bytes accumulate in a monotonic atomic; crossing the
  /// memory cap stops all workers cooperatively. Returns false when
  /// memory tripped.
  bool expandLayer() {
    std::size_t total = 0;
    std::vector<std::size_t> expand;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.kind != Slot::Normal) continue;
      const std::size_t count =
          s.expandAll ? s.readyLen
                      : static_cast<std::size_t>(std::popcount(s.expandMask));
      if (count == 0) continue;
      s.succOffset = total;
      total += count;
      expand.push_back(i);
    }
    std::vector<Machine> next(total);
    std::vector<std::uint64_t> nextSleep;
    if (opts_.dpor) nextSleep.assign(total, 0);
    if (total != 0) {
      std::atomic<std::uint64_t> succBytes{0};
      std::atomic<std::uint64_t> bodySteps{0};  ///< steps run inside bodies
      std::atomic<std::uint64_t> bodies{0};     ///< successors that ran one
      std::atomic<bool> memTripped{false};
      pool_.parallelFor(expand.size(), [&](std::size_t e, unsigned) {
        const std::size_t i = expand[e];
        const Slot& s = slots_[i];
        const Partial& p = partials_[s.worker];
        const Machine::Action* ready = p.ready.data() + s.readyOff;
        auto selected = [&](std::size_t k) {
          return s.expandAll ||
                 (s.expandMask & dpor::actionKeyBit(ready[k])) != 0;
        };
        std::size_t lastK = s.readyLen - 1;
        while (!selected(lastK)) --lastK;
        std::uint64_t acc = s.sleepIn;  // sleep ∪ actions expanded so far
        std::size_t j = s.succOffset;
        for (std::size_t k = 0; k <= lastK; ++k) {
          if (!selected(k)) continue;
          if (memTripped.load(std::memory_order_relaxed)) return;
          if (opts_.dpor && s.dporOk) {
            nextSleep[j] = acc & ~p.depMask[s.readyOff + k];
            acc |= dpor::actionKeyBit(ready[k]);
          }
          const AtomicBody* body =
              atomicBodies_ ? atomicBodies_->of(frontier_[i], ready[k])
                            : nullptr;
          Machine& succ = next[j++];
          succ = k == lastK ? std::move(frontier_[i]) : frontier_[i];
          succ.perform(ready[k]);
          if (body != nullptr) {
            for (std::uint32_t n = 0; n < body->steps; ++n)
              succ.perform(ready[k]);
            bodySteps.fetch_add(body->steps, std::memory_order_relaxed);
            bodies.fetch_add(1, std::memory_order_relaxed);
          }
          const std::uint64_t bytes = succ.approxBytes();
          const std::uint64_t sum =
              succBytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
          if (memBase_ + sum > opts_.maxMemoryBytes)
            memTripped.store(true, std::memory_order_relaxed);
        }
      });
      if (memTripped.load()) {
        trip(support::BudgetKind::Memory);
        return false;
      }
      stepsUsed_ += total + bodySteps.load();
      result_.dpor.atomicBodies += bodies.load();
      frontierBytes_ = succBytes.load();
      result_.peakFrontierBytes =
          std::max(result_.peakFrontierBytes, frontierBytes_);
    }
    frontier_ = std::move(next);
    if (opts_.dpor) sleepIn_ = std::move(nextSleep);
    return true;
  }

  /// Per frontier slot: what classify and dedup decided. Ready lists and
  /// dependence masks live in the classifying worker's Partial.
  struct Slot {
    enum Kind : std::uint8_t { Normal, Terminal, Deadlock };
    support::Hash128 hash;
    Kind kind = Normal;
    bool fresh = false;
    unsigned worker = 0;        ///< whose Partial holds the ready list
    std::size_t readyOff = 0;   ///< first action in Partial::ready
    std::size_t readyLen = 0;   ///< number of enabled actions
    std::size_t succOffset = 0;
    // DPOR per-state data (classify). dporOk falls back to full
    // expansion for states the 64-bit action-key encoding cannot cover.
    bool dporOk = false;
    std::uint64_t pMask = 0;    ///< persistent-set action keys
    std::uint64_t sleepIn = 0;  ///< inherited sleep, clamped to enabled
    // Expansion selection (dedup): either everything (unreduced path),
    // or the action keys in expandMask.
    bool expandAll = false;
    std::uint64_t expandMask = 0;
  };
  const ir::Program& prog_;
  const ExploreOptions& opts_;
  support::ThreadPool& pool_;
  const MachineLayout layout_;  ///< shared by every frontier machine
  ExploreResult result_;
  std::vector<SymbolId> sampledVars_;  ///< Var symbols, when recordValues
  std::vector<Partial> partials_;      ///< one per pool worker
  std::vector<Machine> frontier_;
  /// Per frontier slot: inherited sleep mask (only maintained with dpor).
  std::vector<std::uint64_t> sleepIn_;
  std::vector<Slot> slots_;
  /// Static whole-body footprints, built once per exploration (dpor).
  std::optional<dpor::StaticFootprints> footprints_;
  /// Mutex bodies run as one step (dpor under SC only).
  std::optional<dpor::AtomicBodies> atomicBodies_;
  support::ShardedVisitedMap visited_;
  std::uint64_t stepsUsed_ = 0;
  std::uint64_t frontierBytes_ = 0;  ///< footprint of the current layer
  std::uint64_t memBase_ = 0;        ///< frontier + visited at the boundary
};

}  // namespace

ExploreResult exploreAllSchedules(const ir::Program& program,
                                  ExploreOptions opts) {
  support::ThreadPool pool(opts.workers == 0 ? 0 : opts.workers);
  return Explorer(program, opts, pool).run();
}

ExploreResult exploreAllSchedules(const ir::Program& program,
                                  const ExploreOptions& opts,
                                  support::ThreadPool& pool) {
  return Explorer(program, opts, pool).run();
}

}  // namespace cssame::interp
