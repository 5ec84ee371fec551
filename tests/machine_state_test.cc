// The Machine's flat state and incremental fingerprint.
//
// A Machine keeps its 128-bit fingerprint up to date step by step
// (src/interp/machine.h); recomputeHash128() is the from-scratch
// definition. These tests hold the running value to that definition
// along seeded random schedules over programs that reach every kind of
// state component (pointers, arrays, events, barriers, nested cobegin,
// store buffers), check that the fingerprint identifies states rather
// than paths, that copies fork independently, and that the seeded
// runner's results per seed are pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/interp/explore.h"
#include "src/interp/interp.h"
#include "src/interp/machine.h"
#include "src/parser/parser.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::interp {
namespace {

using support::MemoryModel;

/// Hand-written programs covering the components the generator does not
/// emit: barriers, nested cobegin, assert traps, unlock errors, pointer
/// errors and prints inside loops.
const char* const kHandWritten[] = {
    R"(int a, b; event e;
       cobegin {
         thread { a = 1; barrier; b = a + b; set(e); }
         thread { b = 2; barrier; wait(e); print(b); }
         thread { barrier; print(a); }
       })",
    R"(int x, y; lock L;
       cobegin {
         thread {
           lock(L); x = x + 1; unlock(L);
           cobegin {
             thread { y = y + 1; print(y); }
             thread { lock(L); y = y * 2; unlock(L); }
           }
           print(x);
         }
         thread { lock(L); x = x * 3; unlock(L); unlock(L); }
       }
       print(x + y);)",
    R"(int a[4]; int p, q, i;
       cobegin {
         thread { p = &a[1]; *p = 5; i = 0;
                  while (i < 3) { a[i] = a[i] + i; i = i + 1; print(i); } }
         thread { q = 99; a[2] = *q; q = &a[3]; *q = *q + 1; }
       }
       assert(a[1] == 5);
       print(a[0] + a[1] + a[2] + a[3]);)",
    R"(int x, y, r0, r1;
       cobegin {
         thread { x = 1; r0 = y; fence; atomic_store(y, 2); }
         thread { y = 1; r1 = x; if (r1 == 0) { x = 3; } else { y = 4; } }
       }
       print(r0); print(r1);)",
};

struct Case {
  std::string label;
  ir::Program program;
};

std::vector<Case> corpus() {
  std::vector<Case> out;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2 + static_cast<int>(seed % 2);
    cfg.sharedVars = 3;
    cfg.locks = 2;
    cfg.stmtsPerThread = 5;
    cfg.maxDepth = 2;
    cfg.loopProb = 0.1;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 4);
    cfg.useEvents = seed % 2 == 0;
    cfg.determinate = seed % 3 == 0;
    cfg.fenceProb = seed % 4 == 1 ? 0.2 : 0.0;
    cfg.atomicFraction = seed % 5 == 2 ? 0.5 : 0.0;
    cfg.ptrProb = 0.3;
    cfg.arrayProb = 0.3;
    out.push_back({"generateRandom seed=" + std::to_string(seed),
                   workload::generateRandom(cfg)});
  }
  for (std::size_t i = 0; i < std::size(kHandWritten); ++i)
    out.push_back({"hand-written #" + std::to_string(i),
                   parser::parseOrDie(kHandWritten[i])});
  out.push_back({"paper figure 2", parser::parseOrDie(workload::figure2Source())});
  return out;
}

void expectFingerprintCurrent(const Machine& m, const std::string& where) {
  const support::Hash128 running = m.stateHash128();
  const support::Hash128 scratch = m.recomputeHash128();
  ASSERT_EQ(running.hi, scratch.hi) << where;
  ASSERT_EQ(running.lo, scratch.lo) << where;
}

TEST(MachineState, IncrementalFingerprintMatchesRecompute) {
  for (const Case& c : corpus()) {
    for (MemoryModel model : {MemoryModel::SC, MemoryModel::TSO}) {
      const MachineLayout layout(c.program, model);
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::string label =
            c.label + (model == MemoryModel::TSO ? " TSO" : " SC") +
            " schedule=" + std::to_string(seed);
        std::mt19937_64 rng(seed);
        Machine m(layout);
        expectFingerprintCurrent(m, label + " initial");
        std::vector<Machine::Action> ready;
        for (int step = 0; step < 400 && m.anyAlive(); ++step) {
          ready.clear();
          m.readyActions(ready);
          if (ready.empty()) break;  // deadlock
          const Machine::Action a = ready[rng() % ready.size()];
          // Every few steps continue on a copy, so copied blocks (and the
          // slack they are allocated with) carry the fingerprint too.
          if (rng() % 4 == 0) m = Machine(m);
          m.perform(a);
          expectFingerprintCurrent(m, label + " step " + std::to_string(step));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

/// Drives the layout's program until its main thread has spawned.
Machine spawned(const MachineLayout& layout) {
  Machine m(layout);
  m.perform({0, false});
  return m;
}

TEST(MachineState, IndependentOrdersReachEqualFingerprints) {
  const ir::Program prog = parser::parseOrDie(R"(
    int a, b; lock L; event e;
    cobegin {
      thread { a = 1; lock(L); unlock(L); }
      thread { b = 2; set(e); }
    }
  )");
  for (MemoryModel model : {MemoryModel::SC, MemoryModel::TSO}) {
    SCOPED_TRACE(model == MemoryModel::TSO ? "TSO" : "SC");
    const MachineLayout layout(prog, model);
    Machine left = spawned(layout);
    Machine right = left;
    // Thread 1 then thread 2, against thread 2 then thread 1; under TSO
    // each store is flushed right after it issues.
    const bool tso = model == MemoryModel::TSO;
    for (std::size_t t : {1, 2}) {
      left.perform({t, false});
      if (tso) left.perform({t, true});
    }
    for (std::size_t t : {2, 1}) {
      right.perform({t, false});
      if (tso) right.perform({t, true});
    }
    EXPECT_TRUE(left.stateHash128() == right.stateHash128());
    // Lock and event actions commute the same way.
    left.perform({1, false});   // lock(L)
    left.perform({2, false});   // set(e)
    right.perform({2, false});
    right.perform({1, false});
    EXPECT_TRUE(left.stateHash128() == right.stateHash128());
    EXPECT_FALSE(left.stateHash128() == spawned(layout).stateHash128());
  }
}

TEST(MachineState, OutputAloneDistinguishesStates) {
  // Both schedules end with x == 0 and every thread done; only what was
  // printed differs.
  const ir::Program prog = parser::parseOrDie(R"(
    int x;
    cobegin {
      thread { print(x); }
      thread { x = 1; x = 0; }
    }
  )");
  const MachineLayout layout(prog);
  Machine early = spawned(layout);
  Machine late = early;
  early.perform({1, false});  // prints 0
  early.perform({2, false});
  early.perform({2, false});
  late.perform({2, false});
  late.perform({1, false});  // prints 1
  late.perform({2, false});
  ASSERT_EQ(early.output().size(), 1u);
  ASSERT_EQ(late.output().size(), 1u);
  EXPECT_NE(early.output()[0], late.output()[0]);
  EXPECT_EQ(early.valueOf(prog.symbols.lookup("x")),
            late.valueOf(prog.symbols.lookup("x")));
  EXPECT_FALSE(early.stateHash128() == late.stateHash128());
}

TEST(MachineState, BufferedStoresAloneDistinguishStates) {
  // Stores of the value memory already holds: the buffered, partly
  // flushed and drained states all have all-zero memory and the same
  // program point, and must still get three distinct fingerprints.
  const ir::Program prog = parser::parseOrDie(R"(
    int x, y;
    cobegin { thread { x = 0; y = 0; print(7); } }
  )");
  const MachineLayout layout(prog, MemoryModel::TSO);
  Machine both = spawned(layout);
  both.perform({1, false});
  both.perform({1, false});
  ASSERT_EQ(both.storeBufOf(1).size(), 2u);
  Machine one = both;
  one.perform({1, true});
  Machine none = one;
  none.perform({1, true});
  ASSERT_TRUE(none.storeBufOf(1).empty());
  EXPECT_FALSE(both.stateHash128() == one.stateHash128());
  EXPECT_FALSE(one.stateHash128() == none.stateHash128());
  EXPECT_FALSE(both.stateHash128() == none.stateHash128());
}

TEST(MachineState, LockErrorAloneDistinguishesStates) {
  // Thread 1 unlocks L without holding it unless thread 2 has set c to 1
  // before the branch. Both schedules below end with every cell 0, both
  // arms done and main about to join; only the lock-error bit differs,
  // and a search that merged the two states would lose the error.
  const char* src = R"(
    lock L; int c, x;
    cobegin {
      thread { if (c == 1) { lock(L); } else { x = 0; x = 0; } unlock(L); }
      thread { c = 1; c = 0; }
    }
    print(x);
  )";
  const ir::Program prog = parser::parseOrDie(src);
  const MachineLayout layout(prog);
  Machine bad = spawned(layout);
  Machine good = bad;
  for (std::size_t t : {1, 1, 1, 1, 2, 2}) bad.perform({t, false});
  for (std::size_t t : {2, 1, 1, 2, 1}) good.perform({t, false});
  for (const Machine* m : {&bad, &good}) {
    ASSERT_EQ(m->statusOf(1), Machine::Status::Done);
    ASSERT_EQ(m->statusOf(2), Machine::Status::Done);
    EXPECT_EQ(m->valueOf(prog.symbols.lookup("c")), 0);
  }
  EXPECT_TRUE(bad.lockError());
  EXPECT_FALSE(good.lockError());
  EXPECT_EQ(good.lockHolderOf(prog.symbols.lookup("L")), Machine::kNoThread);
  expectFingerprintCurrent(bad, "erroneous unlock");
  expectFingerprintCurrent(good, "held unlock");
  EXPECT_FALSE(bad.stateHash128() == good.stateHash128());
  // The explorer reports the error with and without the reduction.
  for (bool dpor : {true, false}) {
    ExploreOptions opts;
    opts.dpor = dpor;
    const ExploreResult r = exploreAllSchedules(prog, opts);
    EXPECT_TRUE(r.complete);
    EXPECT_TRUE(r.anyLockError) << (dpor ? "dpor" : "no dpor");
  }
}

TEST(MachineState, CopiesForkIndependently) {
  const ir::Program prog = parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = 1; print(a); cobegin { thread { a = 5; } } }
      thread { a = 2; print(a); }
    }
    print(a);
  )");
  const SymbolId a = prog.symbols.lookup("a");
  const MachineLayout layout(prog);
  Machine m = spawned(layout);
  const Machine snapshot = m;
  const support::Hash128 before = m.stateHash128();

  Machine fork = m;
  // Regrow the original's block (prints, then a nested spawn) while the
  // fork takes the other branch.
  m.perform({1, false});
  m.perform({1, false});
  m.perform({1, false});
  fork.perform({2, false});
  fork.perform({2, false});
  EXPECT_EQ(m.threadCount(), 4u);
  EXPECT_EQ(fork.threadCount(), 3u);
  EXPECT_EQ(m.valueOf(a), 1);
  EXPECT_EQ(fork.valueOf(a), 2);
  ASSERT_EQ(m.output().size(), 1u);
  ASSERT_EQ(fork.output().size(), 1u);
  EXPECT_EQ(m.output()[0], 1);
  EXPECT_EQ(fork.output()[0], 2);
  EXPECT_FALSE(m.stateHash128() == fork.stateHash128());
  expectFingerprintCurrent(m, "original");
  expectFingerprintCurrent(fork, "fork");

  // The snapshot saw none of it.
  EXPECT_TRUE(snapshot.stateHash128() == before);
  EXPECT_EQ(snapshot.valueOf(a), 0);
  EXPECT_TRUE(snapshot.output().empty());
  EXPECT_EQ(snapshot.threadCount(), 3u);
  expectFingerprintCurrent(snapshot, "snapshot");
}

TEST(MachineState, EmptyProgramCompletesWithoutSteps) {
  // A program with declarations only: the main thread has nothing to
  // run, so the machine starts finished.
  const ir::Program prog = parser::parseOrDie("int x;");
  const MachineLayout layout(prog);
  const Machine m(layout);
  EXPECT_FALSE(m.anyAlive());
  expectFingerprintCurrent(m, "empty program");
  const RunResult r = run(prog);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.steps, 0u);
  EXPECT_TRUE(r.output.empty());
  const ExploreResult e = exploreAllSchedules(prog);
  EXPECT_TRUE(e.complete);
  EXPECT_EQ(e.outputList(), (std::vector<std::vector<long long>>{{}}));
}

/// Folds a RunResult into one digest: steps, flags, budget, output and
/// per-lock statistics (in symbol order).
std::uint64_t digest(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(r.steps);
  mix(r.completed);
  mix(r.deadlocked);
  mix(r.lockError);
  mix(r.assertFailed);
  mix(r.ptrError);
  mix(static_cast<std::uint64_t>(r.budgetExceeded));
  mix(r.output.size());
  for (long long v : r.output) mix(static_cast<std::uint64_t>(v));
  std::vector<std::pair<std::uint32_t, LockStats>> locks;
  for (const auto& [sym, ls] : r.lockStats) locks.emplace_back(sym.value(), ls);
  std::sort(locks.begin(), locks.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [sym, ls] : locks) {
    mix(sym);
    mix(ls.holdSteps);
    mix(ls.acquisitions);
    mix(ls.contendedAcquires);
  }
  return h;
}

TEST(MachineState, SeededRunsMatchTranscript) {
  // Per corpus program and memory model, seeds 1..16 of interp::run
  // folded into one digest, plus the summed steps and hold steps. The
  // values were recorded from the interpreter before its state was
  // flattened; the seeded schedules, outputs, verdicts and lock
  // statistics must never move.
  struct Expect {
    std::uint64_t digest;
    std::uint64_t steps;
    std::uint64_t holdSteps;
  };
  const Expect expected[][2] = {
      {{0x5ed2811580a4dc6aull, 759, 224}, {0x08871ba8b403fe88ull, 938, 224}},  // generateRandom seed=1
      {{0x5418b19f971ee077ull, 606, 128}, {0x442d9bf96a5d28c0ull, 671, 128}},  // generateRandom seed=2
      {{0x71fd5a1e3147d6e4ull, 813, 240}, {0xfadd3b448a74925aull, 996, 240}},  // generateRandom seed=3
      {{0x8c19af2792ed4460ull, 502, 64}, {0x8ee20ca1a5657f72ull, 619, 64}},  // generateRandom seed=4
      {{0x47b123cd0616d378ull, 667, 160}, {0xec01b7c7d7c0166cull, 767, 160}},  // generateRandom seed=5
      {{0x498ed22dde51e0abull, 527, 96}, {0x0998442b9bb8c8baull, 580, 96}},  // generateRandom seed=6
      {{0x8bf366e083418628ull, 661, 160}, {0x5a7a30277d65695cull, 771, 160}},  // generateRandom seed=7
      {{0x9f3e9b26d90acc36ull, 565, 96}, {0x96a26d9910867b7aull, 677, 96}},  // generateRandom seed=8
      {{0x1f22faefd77dca68ull, 583, 96}, {0xf1a1cffe0503fe08ull, 649, 96}},  // generateRandom seed=9
      {{0xb00356875bb88202ull, 572, 160}, {0x72ee49d128973c27ull, 683, 160}},  // generateRandom seed=10
      {{0xa99181e67b79fd8aull, 936, 304}, {0x74f2715c0d665ce8ull, 1178, 304}},  // generateRandom seed=11
      {{0x2d94897c1096eb74ull, 579, 96}, {0x80eab87cb24c0c47ull, 660, 96}},  // generateRandom seed=12
      {{0x9bc4e2575695a600ull, 252, 0}, {0xedc1a04ce1b1ebd2ull, 302, 0}},  // hand-written #0
      {{0x46af66f674034377ull, 302, 96}, {0x1faaf0db53786c84ull, 372, 96}},  // hand-written #1
      {{0x9b826851864c8100ull, 320, 0}, {0x426f38aec7869e00ull, 528, 0}},  // hand-written #2
      {{0x89fdeb8807d54a43ull, 192, 0}, {0xdd733e7293c54bc4ull, 272, 0}},  // hand-written #3
      {{0x617c79d66ceaad98ull, 288, 144}, {0x4065584cc3439838ull, 416, 144}},  // paper figure 2
  };
  const std::vector<Case> cases = corpus();
  ASSERT_EQ(std::size(expected), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (int m = 0; m < 2; ++m) {
      const MemoryModel model = m == 0 ? MemoryModel::SC : MemoryModel::TSO;
      std::uint64_t h = 0, steps = 0, hold = 0;
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        const RunResult r = run(cases[i].program,
                                {.seed = seed, .maxSteps = 4000, .model = model});
        h = h * 31 + digest(r);
        steps += r.steps;
        hold += r.totalHoldSteps();
      }
      SCOPED_TRACE(cases[i].label + (m == 0 ? " SC" : " TSO"));
      EXPECT_EQ(h, expected[i][m].digest);
      EXPECT_EQ(steps, expected[i][m].steps);
      EXPECT_EQ(hold, expected[i][m].holdSteps);
    }
  }
}

}  // namespace
}  // namespace cssame::interp
