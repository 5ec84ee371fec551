// Exactness of the explorer's dynamic partial-order reduction.
//
// ExploreOptions::dpor promises that `outputs`, `racedVars` and the
// deadlock / lock-error / assert / pointer-error verdicts of a reduced
// sweep are bit-identical to the unreduced one whenever the unreduced
// sweep completes (every Mazurkiewicz trace keeps a representative),
// that `observedRanges` only ever shrinks to a sub-range, and that the
// reduced result — counters included — stays identical for any worker
// count. This test sweeps the same workload families as
// explore_parallel_test (random racy programs, lock-structured, the
// adversarial gallery, TSO, budget-exhausted configurations) with the
// unreduced explorer as the oracle, plus a TSO litmus gallery, a
// reduction-factor floor on the independence-rich benchmark workload,
// and the mutex bodies the SC reduction runs as single steps.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/interp/dpor.h"
#include "src/interp/explore.h"
#include "src/interp/machine.h"
#include "src/parser/parser.h"
#include "src/support/budget.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::interp {
namespace {

/// Field-by-field equality of two reduced runs (worker sweeps): every
/// observable, counters included, must match exactly.
void expectIdentical(const ExploreResult& a, const ExploreResult& b,
                     const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.budgetExceeded, b.budgetExceeded);
  EXPECT_EQ(a.anyDeadlock, b.anyDeadlock);
  EXPECT_EQ(a.anyLockError, b.anyLockError);
  EXPECT_EQ(a.statesExplored, b.statesExplored);
  EXPECT_EQ(a.racedVars, b.racedVars);
  EXPECT_EQ(a.observedRanges, b.observedRanges);
  EXPECT_EQ(a.anyAssertFailure, b.anyAssertFailure);
  EXPECT_EQ(a.anyPtrError, b.anyPtrError);
  EXPECT_EQ(a.dpor.prunedSuccessors, b.dpor.prunedSuccessors);
  EXPECT_EQ(a.dpor.sleepSetHits, b.dpor.sleepSetHits);
  EXPECT_EQ(a.dpor.depQueries, b.dpor.depQueries);
  EXPECT_EQ(a.dpor.partialReexpansions, b.dpor.partialReexpansions);
  EXPECT_EQ(a.dpor.atomicBodies, b.dpor.atomicBodies);
  EXPECT_EQ(a.peakFrontierBytes, b.peakFrontierBytes);
}

/// The exactness contract against the unreduced oracle. Budgets make the
/// comparison asymmetric: the reduced sweep does strictly less work, so
/// a complete unreduced run forces a complete reduced run with equal
/// verdicts — while an exhausted unreduced run promises nothing except
/// that the reduction itself stays deterministic.
void expectContract(const ExploreResult& full, const ExploreResult& reduced,
                    const char* what) {
  SCOPED_TRACE(what);
  if (!full.complete) return;
  EXPECT_TRUE(reduced.complete);
  EXPECT_EQ(full.outputs, reduced.outputs);
  EXPECT_EQ(full.racedVars, reduced.racedVars);
  EXPECT_EQ(full.anyDeadlock, reduced.anyDeadlock);
  EXPECT_EQ(full.anyLockError, reduced.anyLockError);
  EXPECT_EQ(full.anyAssertFailure, reduced.anyAssertFailure);
  EXPECT_EQ(full.anyPtrError, reduced.anyPtrError);
  EXPECT_LE(reduced.statesExplored, full.statesExplored);
  // observedRanges may shrink, but only to sub-ranges of the unreduced
  // observations, over the same variable set (every variable is sampled
  // at the initial state).
  ASSERT_EQ(full.observedRanges.size(), reduced.observedRanges.size());
  for (const auto& [v, mm] : reduced.observedRanges) {
    auto it = full.observedRanges.find(v);
    ASSERT_NE(it, full.observedRanges.end());
    EXPECT_LE(it->second.first, mm.first);
    EXPECT_GE(it->second.second, mm.second);
  }
}

/// Runs the unreduced oracle, then the reduced sweep at workers 1/2/8;
/// checks worker determinism of the reduction and the contract. Returns
/// the reduced result.
ExploreResult checkDpor(const ir::Program& prog, ExploreOptions opts,
                        const std::string& label) {
  SCOPED_TRACE(label);
  opts.dpor = false;
  opts.workers = 1;
  const ExploreResult full = exploreAllSchedules(prog, opts);
  EXPECT_EQ(full.dpor.depQueries, 0u);  // off means off
  EXPECT_EQ(full.dpor.atomicBodies, 0u);
  opts.dpor = true;
  const ExploreResult one = exploreAllSchedules(prog, opts);
  opts.workers = 2;
  const ExploreResult two = exploreAllSchedules(prog, opts);
  opts.workers = 8;
  const ExploreResult eight = exploreAllSchedules(prog, opts);
  expectIdentical(one, two, "dpor workers=2 vs workers=1");
  expectIdentical(one, eight, "dpor workers=8 vs workers=1");
  expectContract(full, one, "dpor vs unreduced oracle");
  return one;
}

/// Unlocks without holding L only when `c` is not 1 at the branch.
const char* const kLostLockError = R"(
  lock L; int c, x;
  cobegin {
    thread { if (c == 1) { lock(L); } else { x = 0; x = 0; } unlock(L); }
    thread { c = 1; c = 0; }
  }
  print(x);
)";

ExploreOptions smallBudget() {
  ExploreOptions opts;
  opts.maxSteps = 1u << 14;
  opts.maxStates = 1u << 12;
  opts.detectRaces = true;
  opts.recordValues = true;
  return opts;
}

TEST(ExploreDpor, RandomWorkloadSweep) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2 + static_cast<int>(seed % 2);
    cfg.sharedVars = 3;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3 + static_cast<int>(seed % 2);
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 4);
    cfg.determinate = false;
    checkDpor(workload::generateRandom(cfg), smallBudget(),
              "generateRandom seed=" + std::to_string(seed));
  }
}

TEST(ExploreDpor, LockStructuredSweep) {
  // Every region of this family is a straight-line body under the one
  // lock, so the atomic-body reduction must fire (non-vacuous).
  std::uint64_t atomicBodies = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const double lockedFraction = 0.25 * static_cast<double>(seed % 5);
    atomicBodies +=
        checkDpor(workload::makeLockStructured(
                      2, 1, 2 + static_cast<int>(seed % 2), lockedFraction,
                      seed),
                  smallBudget(), "makeLockStructured seed=" + std::to_string(seed))
            .dpor.atomicBodies;
  }
  EXPECT_GT(atomicBodies, 0u);
}

TEST(ExploreDpor, AdversarialPrograms) {
  checkDpor(parser::parseOrDie(R"(
    lock A, B;
    cobegin {
      thread { lock(A); lock(B); unlock(B); unlock(A); }
      thread { lock(B); lock(A); unlock(A); unlock(B); }
    }
  )"),
            smallBudget(), "lock-order deadlock");
  checkDpor(parser::parseOrDie(R"(
    lock L; int a;
    cobegin {
      thread { unlock(L); a = 1; }
      thread { a = 2; }
    }
  )"),
            smallBudget(), "unlock without holding");
  checkDpor(parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = a + 1; }
      thread { a = a + 1; }
    }
    assert(a == 2);
  )"),
            smallBudget(), "assert over racy sum");
  checkDpor(parser::parseOrDie(R"(
    int a; event e;
    cobegin {
      thread { a = 1; set(e); }
      thread { wait(e); print(a); }
    }
  )"),
            smallBudget(), "set/wait ordering");
  checkDpor(parser::parseOrDie(R"(
    int a; int b;
    cobegin {
      thread { a = 1; barrier; b = a; }
      thread { b = 2; barrier; print(b); }
    }
  )"),
            smallBudget(), "barrier rendezvous");
  checkDpor(parser::parseOrDie(R"(
    int a[4]; int p; int i;
    cobegin {
      thread { a[0] = 1; a[1] = 2; p = &a[2]; *p = 3; }
      thread { i = a[0]; i = *&a[1]; a[3] = a[3] + 1; }
    }
    print(a[3]);
  )"),
            smallBudget(), "pointer and array accesses");
  checkDpor(parser::parseOrDie(R"(
    int p; int x;
    cobegin {
      thread { p = 999; x = *p; }
      thread { x = 1; }
    }
  )"),
            smallBudget(), "pointer error schedule");
  checkDpor(parser::parseOrDie(R"(
    int a; int i;
    cobegin {
      thread { i = 0; while (i < 3) { a = a + 1; i = i + 1; } }
      thread { while (a < 2) { } print(a); }
    }
  )"),
            smallBudget(), "spin loop on a shared condition");
  checkDpor(parser::parseOrDie(workload::figure2Source()), smallBudget(),
            "paper figure 2");
  // An unlock without holding on one branch only: a state reached with
  // the error must not be merged with the same state reached without it.
  EXPECT_TRUE(checkDpor(parser::parseOrDie(kLostLockError), smallBudget(),
                        "lock error on one branch")
                  .anyLockError);
}

TEST(ExploreDpor, BudgetExhaustedRuns) {
  // The reduced sweep does strictly less work per state, so budgets trip
  // at different points; what must survive is worker determinism, the
  // off-switch oracle, and completion dominance (checked in checkDpor).
  workload::GeneratorConfig cfg;
  cfg.threads = 3;
  cfg.sharedVars = 3;
  cfg.locks = 1;
  cfg.stmtsPerThread = 5;
  cfg.maxDepth = 1;
  cfg.loopProb = 0.0;
  cfg.determinate = false;
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    cfg.seed = seed;
    const ir::Program prog = workload::generateRandom(cfg);

    ExploreOptions steps = smallBudget();
    steps.maxSteps = 64;
    checkDpor(prog, steps, "maxSteps=64 seed=" + std::to_string(seed));

    ExploreOptions states = smallBudget();
    states.maxStates = 16;
    checkDpor(prog, states, "maxStates=16 seed=" + std::to_string(seed));

    ExploreOptions depth = smallBudget();
    depth.maxDepthPerRun = 3;
    checkDpor(prog, depth, "maxDepthPerRun=3 seed=" + std::to_string(seed));

    ExploreOptions memory = smallBudget();
    memory.maxMemoryBytes = 16u << 10;
    checkDpor(prog, memory, "maxMemoryBytes=16K seed=" + std::to_string(seed));
  }
}

TEST(ExploreDpor, TsoRandomSweep) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2;
    cfg.sharedVars = 3;
    cfg.locks = 1;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 3);
    cfg.determinate = false;
    cfg.fenceProb = seed % 2 == 0 ? 0.2 : 0.0;
    cfg.atomicFraction = seed % 3 == 0 ? 0.5 : 0.0;
    ExploreOptions opts = smallBudget();
    opts.model = support::MemoryModel::TSO;
    checkDpor(workload::generateRandom(cfg), opts,
              "tso generateRandom seed=" + std::to_string(seed));
  }
}

TEST(ExploreDpor, TsoLitmusGallery) {
  // The classic weak-memory litmus shapes: store buffering (with and
  // without the repairing fence / atomics), message passing, load
  // buffering shape, and independent reads of independent writes. Each
  // must keep its exact output set — the SB `0 0` outcome exists under
  // TSO precisely because flush actions interleave, and the reduction
  // must not prune the flush orderings that produce it.
  const char* gallery[] = {
      R"(int x, y, r0, r1;
         cobegin {
           thread { x = 1; r0 = y; }
           thread { y = 1; r1 = x; }
         }
         print(r0); print(r1);)",
      R"(int x, y, r0, r1;
         cobegin {
           thread { x = 1; fence; r0 = y; }
           thread { y = 1; fence; r1 = x; }
         }
         print(r0); print(r1);)",
      R"(int x, y, r0, r1;
         cobegin {
           thread { atomic_store(x, 1); r0 = atomic_load(y); }
           thread { atomic_store(y, 1); r1 = atomic_load(x); }
         }
         print(r0); print(r1);)",
      R"(int d, f, r0, r1;
         cobegin {
           thread { d = 41; f = 1; }
           thread { r0 = f; r1 = d; }
         }
         print(r0); print(r1);)",
      R"(int x, y, a, b;
         cobegin {
           thread { a = x; y = 1; }
           thread { b = y; x = 1; }
         }
         print(a); print(b);)",
      R"(int x, y, r0, r1, r2, r3;
         cobegin {
           thread { x = 1; }
           thread { y = 1; }
           thread { r0 = x; r1 = y; }
           thread { r2 = y; r3 = x; }
         }
         print(r0 * 8 + r1 * 4 + r2 * 2 + r3);)",
  };
  for (const char* src : gallery) {
    for (support::MemoryModel model :
         {support::MemoryModel::SC, support::MemoryModel::TSO}) {
      ExploreOptions opts = smallBudget();
      opts.maxSteps = 1u << 18;
      opts.maxStates = 1u << 16;
      opts.model = model;
      checkDpor(parser::parseOrDie(src), opts,
                std::string("litmus model=") +
                    (model == support::MemoryModel::TSO ? "TSO" : "SC"));
    }
  }
}

TEST(ExploreDpor, ReductionFloorOnScaleWorkload) {
  // The bench_scale_explore reduction workload: four threads doing
  // mostly thread-local update chains, with one racing pair on `r`.
  // This is where the persistent sets earn their keep — the acceptance
  // floor is a 10x cut in explored states, under both memory models,
  // with every contract field intact (checked by checkDpor too).
  const char* src = R"(
    int w0, w1, w2, w3, r;
    cobegin {
      thread { w0 = w0 + 1; w0 = w0 * 2; w0 = w0 + 3; r = r + w0; }
      thread { w1 = w1 + 2; w1 = w1 * 3; w1 = w1 + 1; r = r * 2; }
      thread { w2 = w2 + 1; w2 = w2 * 2; w2 = w2 + 1; }
      thread { w3 = w3 + 5; w3 = w3 * 2; w3 = w3 + 1; }
    }
    print(r);
  )";
  const ir::Program prog = parser::parseOrDie(src);
  for (support::MemoryModel model :
       {support::MemoryModel::SC, support::MemoryModel::TSO}) {
    SCOPED_TRACE(model == support::MemoryModel::TSO ? "TSO" : "SC");
    ExploreOptions opts;
    opts.maxSteps = 1u << 24;
    opts.maxStates = 1u << 22;
    opts.detectRaces = true;
    opts.recordValues = true;
    opts.model = model;
    checkDpor(prog, opts, "scale workload");
    opts.dpor = false;
    const ExploreResult full = exploreAllSchedules(prog, opts);
    opts.dpor = true;
    const ExploreResult reduced = exploreAllSchedules(prog, opts);
    ASSERT_TRUE(full.complete);
    ASSERT_TRUE(reduced.complete);
    EXPECT_GE(full.statesExplored, 10 * reduced.statesExplored);
    EXPECT_GT(reduced.dpor.prunedSuccessors, 0u);
    EXPECT_GT(reduced.dpor.depQueries, 0u);
  }
}

/// The shape of the fix_racy benchmark programs: three threads of short
/// `lock(L)` bodies over a, b, c and r. The racy version updates r once
/// without the lock; the patched one is what the repair engine verifies.
const char* const kRacyShape = R"(
  int a, b, c, r;
  lock L;
  cobegin {
    thread { lock(L); a = a + 3; unlock(L); r = r + 4;
             lock(L); b = a + 5; unlock(L); }
    thread { lock(L); r = r + 2; unlock(L); lock(L); b = b + 1; unlock(L);
             lock(L); c = b + 7; unlock(L); }
    thread { lock(L); c = c + 6; unlock(L); lock(L); a = c + 2; unlock(L);
             lock(L); r = r + 9; unlock(L); }
  }
  print(a); print(b); print(c); print(r);
)";

std::string patchedShape() {
  std::string src = kRacyShape;
  const std::string racy = " r = r + 4;";
  src.replace(src.find(racy), racy.size(), " lock(L); r = r + 4; unlock(L);");
  return src;
}

/// TSO states of the patched shape under DPOR, measured before atomic
/// bodies existed.
constexpr std::uint64_t kTsoPatchedStates = 11557;

ExploreOptions shapeBudget() {
  ExploreOptions opts = smallBudget();
  opts.maxSteps = 1u << 20;
  opts.maxStates = 1u << 18;
  return opts;
}

TEST(ExploreDpor, AtomicBodiesOnTheRepairShape) {
  // Racy: r is written unlocked, so the three bodies over r stay single
  // steps; the race on r must still be found. Patched: every body runs
  // as one step.
  const ir::Program racy = parser::parseOrDie(kRacyShape);
  const ir::Program patched = parser::parseOrDie(patchedShape());
  EXPECT_EQ(dpor::AtomicBodies(racy).size(), 6u);
  EXPECT_EQ(dpor::AtomicBodies(patched).size(), 9u);
  const ExploreResult r = checkDpor(racy, shapeBudget(), "racy shape");
  EXPECT_GT(r.dpor.atomicBodies, 0u);
  EXPECT_EQ(r.racedVars, std::set<SymbolId>{racy.symbols.lookup("r")});
  const ExploreResult p = checkDpor(patched, shapeBudget(), "patched shape");
  EXPECT_GT(p.dpor.atomicBodies, 0u);
  EXPECT_TRUE(p.racedVars.empty());
  EXPECT_LT(p.statesExplored, r.statesExplored);
}

TEST(ExploreDpor, AtomicBodiesOnlyWhereSound) {
  struct Case {
    const char* label;
    const char* src;
    std::size_t bodies;  ///< qualifying lock statements
  };
  const Case cases[] = {
      {"print in the body", R"(
         lock L; int x;
         cobegin {
           thread { lock(L); x = 1; print(x); unlock(L); }
           thread { lock(L); x = 2; unlock(L); }
         })",
       1},
      // The L body holds a lock statement; the inner M bodies qualify.
      {"nested lock", R"(
         lock L, M; int x;
         cobegin {
           thread { lock(L); lock(M); x = 1; unlock(M); unlock(L); }
           thread { lock(M); x = 2; unlock(M); }
         }
         print(x);)",
       2},
      {"variable accessed unlocked elsewhere", R"(
         lock L; int x;
         cobegin {
           thread { lock(L); x = x + 1; unlock(L); }
           thread { x = 5; }
         }
         print(x);)",
       0},
      // The pointer store races on x without naming it.
      {"pointer program", R"(
         lock L; int x, p;
         cobegin {
           thread { lock(L); x = x + 1; unlock(L); }
           thread { p = &x; *p = 2; }
         }
         print(x);)",
       0},
      {"empty body", R"(
         lock L; int x;
         cobegin {
           thread { lock(L); unlock(L); x = 1; }
           thread { lock(L); unlock(L); x = 2; }
         }
         print(x);)",
       2},
      // The unlock in the branch ends the protection of `x = 1`.
      {"unlock inside the region", R"(
         lock L; int c, x;
         cobegin {
           thread { lock(L); if (c == 0) { unlock(L); } x = 1; unlock(L); }
           thread { lock(L); x = x + 1; unlock(L); c = 1; }
         }
         print(x);)",
       0},
      // Unlocked accesses in main, outside every cobegin, are exempt.
      {"main-thread accesses", R"(
         lock L; int x;
         x = 3;
         cobegin {
           thread { lock(L); x = x + 1; unlock(L); }
           thread { lock(L); x = x * 2; unlock(L); }
         }
         print(x);)",
       2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const ir::Program prog = parser::parseOrDie(c.src);
    EXPECT_EQ(dpor::AtomicBodies(prog).size(), c.bodies);
    const ExploreResult r = checkDpor(prog, smallBudget(), c.label);
    EXPECT_EQ(r.dpor.atomicBodies == 0, c.bodies == 0);
  }
  // The unlocked stores and the pointer store are still found racing.
  for (const Case& c : {cases[2], cases[3], cases[5]}) {
    const ir::Program prog = parser::parseOrDie(c.src);
    EXPECT_EQ(checkDpor(prog, smallBudget(), c.label)
                  .racedVars.count(prog.symbols.lookup("x")),
              1u)
        << c.label;
  }
}

TEST(ExploreDpor, AtomicBodyRunsFromWaitLockResume) {
  // Thread 1's body prints, so it runs step by step and holds L while
  // thread 2 blocks on its own (qualifying) lock; the resume then runs
  // thread 2's body through its unlock.
  const ir::Program prog = parser::parseOrDie(R"(
    lock L; int x;
    cobegin {
      thread { lock(L); x = 1; print(x); unlock(L); }
      thread { lock(L); x = 2; unlock(L); }
    }
    print(x);
  )");
  const dpor::AtomicBodies bodies(prog);
  ASSERT_EQ(bodies.size(), 1u);
  const MachineLayout layout(prog);
  Machine m(layout);
  m.perform({0, false});  // spawn
  EXPECT_EQ(bodies.of(m, {1, false}), nullptr);  // not a qualifying lock
  ASSERT_NE(bodies.of(m, {2, false}), nullptr);
  m.perform({1, false});  // thread 1 acquires L
  EXPECT_EQ(bodies.of(m, {2, false}), nullptr);  // would only block
  m.perform({2, false});
  ASSERT_EQ(m.statusOf(2), Machine::Status::WaitLock);
  for (int i = 0; i < 3; ++i) m.perform({1, false});  // x = 1; print; unlock
  const AtomicBody* body = bodies.of(m, {2, false});
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->steps, 2u);  // x = 2; unlock(L)
  Machine::ActionFacts f;
  m.actionFacts({2, false}, f, body);
  EXPECT_EQ(f.sync, prog.symbols.lookup("L"));
  ASSERT_EQ(f.acc.writes.size(), 1u);
  EXPECT_EQ(f.acc.writes[0].second, prog.symbols.lookup("x"));

  const ExploreResult r = checkDpor(prog, smallBudget(), "WaitLock resume");
  EXPECT_GT(r.dpor.atomicBodies, 0u);
  EXPECT_EQ(r.outputs.size(), 2u);  // x == 1 or x == 2 at the end
}

TEST(ExploreDpor, TsoRunsNoAtomicBodies) {
  // Under TSO every body still runs step by step: the state count of the
  // patched repair shape is pinned to its value before atomic bodies.
  ExploreOptions opts = shapeBudget();
  opts.model = support::MemoryModel::TSO;
  const ExploreResult r = checkDpor(parser::parseOrDie(patchedShape()), opts,
                                    "TSO patched shape");
  EXPECT_EQ(r.dpor.atomicBodies, 0u);
  EXPECT_EQ(r.statesExplored, kTsoPatchedStates);
}

}  // namespace
}  // namespace cssame::interp
