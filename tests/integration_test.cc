// End-to-end integration scenarios: realistic programs exercising many
// constructs at once, validated by exhaustive schedule exploration (small
// programs) or seeded interpretation (larger ones), before and after the
// full optimization pipeline.
#include <gtest/gtest.h>

#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/ir/verify.h"
#include "src/opt/lockstats.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"

namespace cssame {
namespace {

void expectExactOutputsPreserved(const char* src) {
  ir::Program original = parser::parseOrDie(src);
  interp::ExploreResult before = interp::exploreAllSchedules(original);
  ASSERT_TRUE(before.complete);

  ir::Program optimized = parser::parseOrDie(src);
  opt::optimizeProgram(optimized);
  EXPECT_TRUE(ir::verify(optimized).empty());
  interp::ExploreResult after = interp::exploreAllSchedules(optimized);
  ASSERT_TRUE(after.complete);

  for (const auto& out : after.outputs)
    EXPECT_TRUE(before.outputs.contains(out)) << ir::printProgram(optimized);
  EXPECT_FALSE(after.outputs.empty());
}

TEST(Integration, StripedCounters) {
  // Two counters, two locks, threads touching both in opposite orders —
  // but never holding both at once, so no deadlock.
  expectExactOutputsPreserved(R"(
    int c0, c1; lock L0, L1;
    cobegin {
      thread {
        lock(L0); c0 = c0 + 1; unlock(L0);
        lock(L1); c1 = c1 + 1; unlock(L1);
      }
      thread {
        lock(L1); c1 = c1 + 10; unlock(L1);
        lock(L0); c0 = c0 + 10; unlock(L0);
      }
    }
    print(c0);
    print(c1);
  )");
}

TEST(Integration, HandoffChain) {
  // Three threads pass a value along a chain of events.
  expectExactOutputsPreserved(R"(
    int x; event e1, e2;
    cobegin {
      thread { x = 5; set(e1); }
      thread { wait(e1); x = x * 2; set(e2); }
      thread { wait(e2); print(x); }
    }
  )");
}

TEST(Integration, GuardedInitialization) {
  // Double-checked-ish init under a lock; the flag decides who computes.
  expectExactOutputsPreserved(R"(
    int init, value; lock L;
    cobegin {
      thread {
        lock(L);
        if (init == 0) { value = 42; init = 1; }
        unlock(L);
      }
      thread {
        lock(L);
        if (init == 0) { value = 42; init = 1; }
        unlock(L);
      }
    }
    print(value);
    print(init);
  )");
}

TEST(Integration, ReductionWithDoallAndLock) {
  // The per-iteration scaling is computed inside the lock and depends on
  // an opaque rate, so it cannot constant-fold away — motion must evict
  // it from the critical section.
  const char* src = R"(
    int sum, rate; lock L;
    rate = f(0);
    doall i = 1, 6 {
      int sq;
      lock(L);
      sq = i * i * rate;
      sum = sum + sq;
      unlock(L);
    }
    print(sum);
  )";
  ir::Program reference = parser::parseOrDie(src);
  const std::vector<long long> expected =
      interp::run(reference, {.seed = 1}).output;

  ir::Program prog = parser::parseOrDie(src);
  opt::OptimizeReport report = opt::optimizeProgram(prog);
  EXPECT_GT(report.lockMotion.sunk + report.lockMotion.hoisted +
                report.exprMotion.exprsHoisted,
            0u);
  for (const interp::RunResult& r : interp::runManySeeds(prog, 10)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, expected);  // sum of deposits is deterministic
  }
}

TEST(Integration, BarrierJacobiStep) {
  // Two half-steps separated by barriers; deterministic by phases.
  ir::Program prog = parser::parseOrDie(R"(
    int a0, a1, b0, b1;
    a0 = 1; a1 = 3;
    cobegin {
      thread { b0 = a0 + a1; barrier; a0 = b0 + b1; }
      thread { b1 = a1 + a0; barrier; a1 = b1 + b0; }
    }
    print(a0);
    print(a1);
  )");
  interp::ExploreResult all = interp::exploreAllSchedules(prog);
  ASSERT_TRUE(all.complete);
  EXPECT_EQ(all.outputs.size(), 1u);  // phases make it deterministic
  EXPECT_EQ(*all.outputs.begin(), (std::vector<long long>{8, 8}));

  opt::optimizeProgram(prog);
  interp::ExploreResult after = interp::exploreAllSchedules(prog);
  EXPECT_EQ(after.outputs, all.outputs);
}

TEST(Integration, WhileLoopWithLockedBody) {
  ir::Program prog = parser::parseOrDie(R"(
    int total; lock L;
    cobegin {
      thread {
        int i; i = 0;
        while (i < 8) {
          lock(L); total = total + 2; unlock(L);
          i = i + 1;
        }
      }
      thread {
        int j; j = 0;
        while (j < 8) {
          lock(L); total = total + 3; unlock(L);
          j = j + 1;
        }
      }
    }
    print(total);
  )");
  {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    // Lock/unlock inside a loop still form a well-formed body.
    std::size_t wellFormed = 0;
    for (const auto& b : c.mutexes().bodies()) wellFormed += b.wellFormed;
    EXPECT_EQ(wellFormed, 2u);
    EXPECT_EQ(c.diag().countOf(DiagCode::UnmatchedLock), 0u);
  }
  opt::optimizeProgram(prog);
  for (const interp::RunResult& r : interp::runManySeeds(prog, 10)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, (std::vector<long long>{40}));
  }
}

TEST(Integration, DiagnosticsOnMessyProgram) {
  ir::Program prog = parser::parseOrDie(R"(
    int shared1, shared2; lock L, M;
    cobegin {
      thread {
        lock(L);
        shared1 = shared1 + 1;
        unlock(L);
        shared2 = 7;
      }
      thread {
        lock(M);
        shared1 = shared1 + 2;
        unlock(M);
        shared2 = 8;
      }
    }
    print(shared1);
    print(shared2);
  )");
  driver::Compilation c = driver::analyze(prog);
  DiagEngine diag;
  const sanalysis::PerVariableRaces races =
      sanalysis::perVariableRaces(c, diag);
  // shared1: inconsistent locks; shared2: unlocked writes.
  EXPECT_EQ(races.inconsistentLocking, 1u);
  EXPECT_EQ(races.potentialRaces, 2u);
}

TEST(Integration, SequentializationCascade) {
  // CSCC folds b into print(2); PDCE kills both stores; LICM deletes the
  // emptied lock pairs; the final PDCE round removes the now fully empty
  // cobegin. Nothing parallel remains.
  ir::Program prog = parser::parseOrDie(R"(
    int a, b; lock L;
    cobegin {
      thread { lock(L); a = 1; unlock(L); }
      thread { lock(L); b = 2; unlock(L); }
    }
    print(b);
  )");
  opt::OptimizeReport report = opt::optimizeProgram(prog);
  const std::string text = ir::printProgram(prog);
  EXPECT_EQ(text.find("cobegin"), std::string::npos) << text;
  EXPECT_EQ(text.find("lock("), std::string::npos) << text;
  EXPECT_NE(text.find("print(2)"), std::string::npos) << text;
  EXPECT_GE(report.lockMotion.bodiesRemoved, 2u);
  interp::RunResult r = interp::run(prog);
  EXPECT_EQ(r.output, (std::vector<long long>{2}));
}

TEST(Integration, SerializationWhenOneThreadStaysLive) {
  // Only one thread has observable work, but the interpreter-visible
  // lock must stay (shared with nothing — LICM removes it, PDCE then
  // serializes the single live thread).
  ir::Program prog = parser::parseOrDie(R"(
    int a, b;
    cobegin {
      thread { a = 1; }
      thread { b = f(2); }
    }
    print(b);
  )");
  opt::OptimizeReport report = opt::optimizeProgram(prog);
  const std::string text = ir::printProgram(prog);
  // T0's a=1 is dead; T1 keeps the opaque call: single live thread.
  EXPECT_EQ(text.find("cobegin"), std::string::npos) << text;
  EXPECT_NE(text.find("b = f(2)"), std::string::npos) << text;
  EXPECT_GE(report.deadCode.cobeginsSerialized, 1u);
}

TEST(Integration, DeepNesting) {
  ir::Program prog = parser::parseOrDie(R"(
    int acc; lock L;
    cobegin {
      thread {
        int i; i = 0;
        while (i < 2) {
          if (i == 0) {
            cobegin {
              thread { lock(L); acc = acc + 1; unlock(L); }
              thread { lock(L); acc = acc + 2; unlock(L); }
            }
          } else {
            lock(L); acc = acc + 4; unlock(L);
          }
          i = i + 1;
        }
      }
      thread { lock(L); acc = acc + 8; unlock(L); }
    }
    print(acc);
  )");
  EXPECT_TRUE(ir::verify(prog).empty());
  opt::optimizeProgram(prog);
  EXPECT_TRUE(ir::verify(prog).empty());
  for (const interp::RunResult& r : interp::runManySeeds(prog, 10)) {
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.output, (std::vector<long long>{15}));
  }
}

TEST(Integration, LockIndependenceReportMatchesMotion) {
  // Statements the report calls independent are exactly the ones motion
  // evicts on this simple shape.
  ir::Program prog = parser::parseOrDie(R"(
    int s; lock L;
    cobegin {
      thread { int p; p = f(0); lock(L); s = s + 1; p = p + 1; unlock(L); print(p); }
      thread { lock(L); s = s + 2; unlock(L); }
    }
    print(s);
  )");
  std::size_t independentBefore;
  {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    independentBefore = opt::analyzeCriticalSections(c).totalIndependent;
  }
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  opt::LicmStats stats = opt::moveLockIndependentCode(c);
  EXPECT_EQ(stats.hoisted + stats.sunk, independentBefore);
}

}  // namespace
}  // namespace cssame
