// Determinism of the parallel schedule explorer.
//
// exploreAllSchedules promises a result that is byte-identical for every
// worker count — the layered frontier phases, the shard-ownership
// deduplication and the monotonic budget counters make the outcome a
// function of the program alone (docs/PERFORMANCE.md). This test sweeps
// >= 50 workloads — including budget-exhausted configurations, where
// determinism is hardest (the trip point must not depend on thread
// scheduling) — and requires field-by-field equality of ExploreResult
// across workers = 1, 2 and 8.
#include <gtest/gtest.h>

#include <string>

#include "src/interp/explore.h"
#include "src/parser/parser.h"
#include "src/support/budget.h"
#include "src/support/threadpool.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::interp {
namespace {

/// Every observable field must match exactly; no tolerance anywhere.
void expectSameResult(const ExploreResult& a, const ExploreResult& b,
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
  EXPECT_EQ(a.peakFrontierBytes, b.peakFrontierBytes);
}

/// Explores `prog` with workers 1, 2 and 8 and requires identical results.
void checkDeterminism(const ir::Program& prog, ExploreOptions opts,
                      const std::string& label) {
  SCOPED_TRACE(label);
  opts.workers = 1;
  const ExploreResult serial = exploreAllSchedules(prog, opts);
  opts.workers = 2;
  const ExploreResult two = exploreAllSchedules(prog, opts);
  opts.workers = 8;
  const ExploreResult eight = exploreAllSchedules(prog, opts);
  expectSameResult(serial, two, "workers=2 vs workers=1");
  expectSameResult(serial, eight, "workers=8 vs workers=1");
}

/// Small option set that keeps the racy generator programs explorable.
ExploreOptions smallBudget() {
  ExploreOptions opts;
  opts.maxSteps = 1u << 14;
  opts.maxStates = 1u << 12;
  opts.detectRaces = true;
  opts.recordValues = true;
  return opts;
}

TEST(ExploreParallel, RandomWorkloadSweep) {
  // 30 racy random programs with race detection and value recording on —
  // the merge paths (set union, min/max) must all be order-independent.
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
    checkDeterminism(workload::generateRandom(cfg), smallBudget(),
                     "generateRandom seed=" + std::to_string(seed));
  }
}

TEST(ExploreParallel, LockStructuredSweep) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const double lockedFraction = 0.25 * static_cast<double>(seed % 5);
    checkDeterminism(
        workload::makeLockStructured(2, 1, 2 + static_cast<int>(seed % 2),
                                     lockedFraction, seed),
        smallBudget(), "makeLockStructured seed=" + std::to_string(seed));
  }
}

TEST(ExploreParallel, BudgetExhaustedRuns) {
  // Programs too big for their budgets: the trip point (which budget, how
  // many states) must still be schedule-independent. Cover each budget
  // kind separately.
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
    checkDeterminism(prog, steps, "maxSteps=64 seed=" + std::to_string(seed));

    ExploreOptions states = smallBudget();
    states.maxStates = 16;
    checkDeterminism(prog, states,
                     "maxStates=16 seed=" + std::to_string(seed));

    ExploreOptions depth = smallBudget();
    depth.maxDepthPerRun = 3;
    checkDeterminism(prog, depth,
                     "maxDepthPerRun=3 seed=" + std::to_string(seed));

    ExploreOptions memory = smallBudget();
    memory.maxMemoryBytes = 16u << 10;
    checkDeterminism(prog, memory,
                     "maxMemoryBytes=16K seed=" + std::to_string(seed));
  }
}

TEST(ExploreParallel, AdversarialPrograms) {
  // Deadlocks, lock errors, assert failures, events and barriers: the
  // flag-merging paths beyond plain output collection.
  checkDeterminism(parser::parseOrDie(R"(
    lock A, B;
    cobegin {
      thread { lock(A); lock(B); unlock(B); unlock(A); }
      thread { lock(B); lock(A); unlock(A); unlock(B); }
    }
  )"),
                   smallBudget(), "lock-order deadlock");
  checkDeterminism(parser::parseOrDie(R"(
    lock L; int a;
    cobegin {
      thread { unlock(L); a = 1; }
      thread { a = 2; }
    }
  )"),
                   smallBudget(), "unlock without holding");
  checkDeterminism(parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = a + 1; }
      thread { a = a + 1; }
    }
    assert(a == 2);
  )"),
                   smallBudget(), "assert over racy sum");
  checkDeterminism(parser::parseOrDie(R"(
    int a; event e;
    cobegin {
      thread { a = 1; set(e); }
      thread { wait(e); print(a); }
    }
  )"),
                   smallBudget(), "set/wait ordering");
  checkDeterminism(parser::parseOrDie(R"(
    int a; int b;
    cobegin {
      thread { a = 1; barrier; b = a; }
      thread { b = 2; barrier; print(b); }
    }
  )"),
                   smallBudget(), "barrier rendezvous");
  checkDeterminism(parser::parseOrDie(workload::figure2Source()),
                   smallBudget(), "paper figure 2");
}

TEST(ExploreParallel, TsoStoreBufferSweep) {
  // Under MemoryModel::TSO every state carries per-thread store buffers
  // and the action set includes flushes; the layered phases must still
  // make the result a pure function of the program. Random racy programs
  // (some with fences and atomics) plus the store-buffering litmus.
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
    checkDeterminism(workload::generateRandom(cfg), opts,
                     "tso generateRandom seed=" + std::to_string(seed));
  }
  ExploreOptions opts = smallBudget();
  opts.model = support::MemoryModel::TSO;
  checkDeterminism(parser::parseOrDie(R"(
    int x, y, r0, r1;
    cobegin {
      thread { x = 1; r0 = y; }
      thread { y = 1; r1 = x; }
    }
    print(r0); print(r1);
  )"),
                   opts, "store-buffering litmus under TSO");
}

TEST(ExploreParallel, PooledOverloadMatchesOwnedWorkers) {
  // The pool-reusing overload must agree with the owning overload.
  workload::GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.threads = 2;
  cfg.sharedVars = 3;
  cfg.locks = 1;
  cfg.stmtsPerThread = 4;
  cfg.maxDepth = 1;
  cfg.loopProb = 0.0;
  cfg.determinate = false;
  const ir::Program prog = workload::generateRandom(cfg);
  ExploreOptions opts = smallBudget();
  opts.workers = 1;
  const ExploreResult serial = exploreAllSchedules(prog, opts);
  support::ThreadPool pool(4);
  const ExploreResult pooled = exploreAllSchedules(prog, opts, pool);
  expectSameResult(serial, pooled, "pooled(4) vs workers=1");
  // Same pool, second program: reuse must not leak state between runs.
  const ExploreResult pooledAgain = exploreAllSchedules(prog, opts, pool);
  expectSameResult(serial, pooledAgain, "pool reuse");
}

}  // namespace
}  // namespace cssame::interp
