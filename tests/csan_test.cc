// Tests for the csan static concurrency analyzer: witness traces,
// per-family minimal triggers, subsumption of the original Section 6
// checks, and dynamic cross-validation of the race engine.
#include <gtest/gtest.h>

#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"
#include "src/workload/paper_programs.h"

namespace cssame::sanalysis {
namespace {

CsanReport analyze(const char* src, DiagEngine* out = nullptr,
                   const CsanOptions& opts = {}) {
  ir::Program p = parser::parseOrDie(src);
  driver::Compilation c = driver::analyze(p, {.warnings = false});
  DiagEngine diag;
  CsanReport r = runCsan(c, diag, opts);
  if (out != nullptr) *out = diag;
  return r;
}

TEST(Csan, CleanProgramHasNoFindings) {
  CsanReport r = analyze(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = a + 1; unlock(L); }
      thread { lock(L); a = a + 2; unlock(L); }
    }
    print(a);
  )");
  EXPECT_EQ(r.totalFindings(), 0u);
  EXPECT_TRUE(r.raceWitnesses.empty());
}

// --- witness traces -------------------------------------------------

TEST(Csan, Figure1RaceCarriesTwoSiteWitness) {
  // Figure 1's unprotected f(a) read in T1 races with T0's locked write.
  DiagEngine diag;
  CsanReport r = analyze(workload::figure1Source(), &diag);
  ASSERT_GE(r.potentialRaces, 1u);
  ASSERT_FALSE(r.raceWitnesses.empty());

  const RaceWitness& w = r.raceWitnesses.front();
  EXPECT_TRUE(w.def.loc.valid());
  EXPECT_TRUE(w.other.loc.valid());
  EXPECT_NE(w.def.loc, w.other.loc);
  EXPECT_TRUE(w.def.isWrite);
  // Golden sites in figure1Source(): T0's `a = a + b` on line 9 races
  // with T1's unprotected `f(a)` read on line 13; the cobegin opens on
  // line 6. The write is under L; the read holds nothing.
  EXPECT_EQ(w.def.loc.line, 9u);
  EXPECT_EQ(w.other.loc.line, 13u);
  EXPECT_EQ(w.def.lockset.size(), 1u);
  EXPECT_TRUE(w.other.lockset.empty());
  // MHP justification: the top-level cobegin, distinct arms.
  EXPECT_EQ(w.cobeginLoc.line, 6u);
  EXPECT_NE(w.armA, w.armB);
}

TEST(Csan, EveryRaceWitnessHasBothSites) {
  DiagEngine diag;
  CsanReport r = analyze(R"(
    int a, b, c;
    cobegin {
      thread { a = 1; b = a + 1; c = 2; }
      thread { a = 2; c = b; }
    }
    print(a); print(b); print(c);
  )", &diag);
  EXPECT_GE(r.potentialRaces, 3u);
  EXPECT_EQ(r.raceWitnesses.size(), r.potentialRaces);
  for (const RaceWitness& w : r.raceWitnesses) {
    EXPECT_TRUE(w.def.loc.valid());
    EXPECT_TRUE(w.other.loc.valid());
    EXPECT_TRUE(w.cobeginLoc.valid());
  }
  // Each PotentialDataRace diagnostic carries the witness as notes:
  // both sites plus the MHP justification.
  for (const Diagnostic& d : diag.diagnostics())
    if (d.code == DiagCode::PotentialDataRace) {
      EXPECT_GE(d.notes.size(), 3u) << d.str();
      EXPECT_TRUE(d.loc.valid()) << d.str();
    }
}

// --- subsumption of the original checks ------------------------------

TEST(Csan, SubsumesOriginalRaceAndDeadlockChecks) {
  // Counts the original per-variable race engine and the deadlock
  // detector reported on each program, pinned as literals.
  struct Case {
    const char* src;
    std::size_t inconsistent, perVariableRaces, abba, cycles;
  };
  const Case cases[] = {
      {workload::figure1Source(), 2, 1, 0, 0},
      {workload::figure2Source(), 2, 0, 0, 0},
      {"int a; cobegin { thread { a = 1; } thread { a = 2; } } print(a);", 0,
       1, 0, 0},
      {"int a; lock L1, L2; cobegin {"
       "  thread { lock(L1); a = 1; unlock(L1); }"
       "  thread { lock(L2); a = 2; unlock(L2); } } print(a);",
       1, 1, 0, 0},
      {"int a; lock L, M; cobegin {"
       "  thread { lock(L); lock(M); a = 1; unlock(M); unlock(L); }"
       "  thread { lock(M); lock(L); a = 2; unlock(L); unlock(M); } }",
       0, 0, 1, 0},
  };
  for (const Case& k : cases) {
    ir::Program p = parser::parseOrDie(k.src);
    driver::Compilation c = driver::analyze(p, {.warnings = false});
    DiagEngine viewDiag;
    const PerVariableRaces view = perVariableRaces(c, viewDiag);
    EXPECT_EQ(view.inconsistentLocking, k.inconsistent) << k.src;
    EXPECT_EQ(view.potentialRaces, k.perVariableRaces) << k.src;

    DiagEngine diag;
    const CsanReport r = runCsan(c, diag);
    // Race granularity differs (site pairs vs variables), so >=.
    EXPECT_GE(r.potentialRaces, view.potentialRaces) << k.src;
    EXPECT_EQ(r.inconsistentLocking, k.inconsistent) << k.src;
    EXPECT_EQ(r.deadlocks.abbaPairs, k.abba) << k.src;
    EXPECT_EQ(r.deadlocks.orderCycles, k.cycles) << k.src;
  }
}

// --- lock lifecycle ---------------------------------------------------

TEST(Csan, SelfDeadlockOnReacquisition) {
  DiagEngine diag;
  CsanReport r = analyze(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); lock(L); a = 1; unlock(L); unlock(L); }
      thread { a = a; }
    }
  )", &diag);
  EXPECT_EQ(r.selfDeadlocks, 1u);
  EXPECT_EQ(diag.countOf(DiagCode::SelfDeadlock), 1u);
  for (const Diagnostic& d : diag.diagnostics())
    if (d.code == DiagCode::SelfDeadlock) {
      EXPECT_TRUE(d.loc.valid());
      ASSERT_EQ(d.notes.size(), 1u);  // the first acquisition
      EXPECT_TRUE(d.notes[0].loc.valid());
    }
}

TEST(Csan, NoSelfDeadlockAfterRelease) {
  CsanReport r = analyze(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = 1; unlock(L); lock(L); a = 2; unlock(L); }
      thread { lock(L); a = 3; unlock(L); }
    }
  )");
  EXPECT_EQ(r.selfDeadlocks, 0u);
}

TEST(Csan, LockLeakOnMissingUnlock) {
  DiagEngine diag;
  CsanReport r = analyze(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = 1; }
      thread { a = 2; }
    }
    print(a);
  )", &diag);
  EXPECT_EQ(r.lockLeaks, 1u);
  EXPECT_EQ(diag.countOf(DiagCode::LockLeak), 1u);
}

TEST(Csan, BranchLeakingOnePathIsReported) {
  CsanReport r = analyze(R"(
    int a, c; lock L;
    cobegin {
      thread {
        lock(L);
        a = 1;
        if (c) { unlock(L); }
      }
      thread { a = 2; }
    }
  )");
  EXPECT_EQ(r.lockLeaks, 1u);
}

TEST(Csan, WellFormedBodiesDoNotLeak) {
  CsanReport r = analyze(R"(
    int a; lock L, M;
    cobegin {
      thread { lock(L); a = a + 1; unlock(L); }
      thread { lock(M); a = a + 2; unlock(M); }
    }
  )");
  EXPECT_EQ(r.lockLeaks, 0u);
  EXPECT_EQ(r.selfDeadlocks, 0u);
}

// --- mutex-body lints -------------------------------------------------

TEST(Csan, EmptyMutexBody) {
  DiagEngine diag;
  CsanReport r = analyze(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); unlock(L); a = 1; }
      thread { a = 2; }
    }
  )", &diag);
  EXPECT_EQ(r.emptyBodies, 1u);
  EXPECT_EQ(diag.countOf(DiagCode::EmptyMutexBody), 1u);
}

TEST(Csan, RedundantMutexBody) {
  // p is only ever touched by one thread: the lock serializes nothing.
  CsanReport r = analyze(R"(
    int a, p; lock L;
    cobegin {
      thread { lock(L); p = 5; unlock(L); }
      thread { a = 2; }
    }
    print(p);
  )");
  EXPECT_EQ(r.redundantBodies, 1u);
  EXPECT_EQ(r.emptyBodies, 0u);
}

TEST(Csan, OverwideMutexBody) {
  // The p/q updates are lock independent; only the a update needs L.
  DiagEngine diag;
  CsanReport r = analyze(R"(
    int a, p, q; lock L;
    cobegin {
      thread { lock(L); p = 1; a = a + 1; q = 2; unlock(L); }
      thread { lock(L); a = a + 2; unlock(L); }
    }
    print(a); print(p); print(q);
  )", &diag);
  EXPECT_EQ(r.overwideBodies, 1u);
  EXPECT_EQ(diag.countOf(DiagCode::OverwideMutexBody), 1u);
}

TEST(Csan, TightBodyIsNotOverwide) {
  CsanReport r = analyze(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = a + 1; unlock(L); }
      thread { lock(L); a = a + 2; unlock(L); }
    }
  )");
  EXPECT_EQ(r.overwideBodies, 0u);
  EXPECT_EQ(r.redundantBodies, 0u);
}

// --- unprotected pi reads --------------------------------------------

TEST(Csan, UnprotectedPiReadOnFigure1) {
  // f(a) in T1 reads `a` with no lock while T0's write under L survives
  // into the pi's conflict arguments.
  DiagEngine diag;
  CsanReport r = analyze(workload::figure1Source(), &diag);
  EXPECT_GE(r.unprotectedPiReads, 1u);
  for (const Diagnostic& d : diag.diagnostics())
    if (d.code == DiagCode::UnprotectedPiRead) {
      EXPECT_TRUE(d.loc.valid()) << d.str();
      EXPECT_GE(d.notes.size(), 1u) << d.str();
    }
}

TEST(Csan, FullyLockedUsesHaveNoUnprotectedPiReads) {
  CsanReport r = analyze(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = a + 1; unlock(L); }
      thread { lock(L); a = a + 2; unlock(L); }
    }
    print(a);
  )");
  EXPECT_EQ(r.unprotectedPiReads, 0u);
}

// --- diagnostics hygiene (every csan warning is anchored) -------------

TEST(Csan, AllDiagnosticsHaveValidLocations) {
  const char* programs[] = {
      workload::figure1Source(),
      workload::figure2Source(),
      "int a; lock L; cobegin {"
      "  thread { lock(L); lock(L); a = 1; unlock(L); unlock(L); }"
      "  thread { lock(L); a = 2; } }",
  };
  for (const char* src : programs) {
    DiagEngine diag;
    analyze(src, &diag);
    for (const Diagnostic& d : diag.diagnostics())
      EXPECT_TRUE(d.loc.valid()) << d.str();
  }
}

TEST(Csan, OptionsGateCheckFamilies) {
  const char* src = R"(
    int a; lock L;
    cobegin {
      thread { lock(L); lock(L); a = 1; }
      thread { a = 2; }
    }
  )";
  CsanOptions off;
  off.races = off.deadlocks = off.lockLifecycle = false;
  off.bodyLints = off.piReads = false;
  DiagEngine diag;
  CsanReport r = analyze(src, &diag, off);
  EXPECT_EQ(r.totalFindings(), 0u);
  EXPECT_TRUE(diag.diagnostics().empty());
}

// --- dynamic cross-validation ----------------------------------------

TEST(Csan, StaticRacesConfirmedByExplorer) {
  const char* src = R"(
    int a, b;
    cobegin {
      thread { a = 1; b = 2; }
      thread { a = 2; print(b); }
    }
    print(a);
  )";
  ir::Program p = parser::parseOrDie(src);
  driver::Compilation c = driver::analyze(p, {.warnings = false});
  DiagEngine diag;
  const CsanReport stat = runCsan(c, diag);
  ASSERT_GE(stat.racedVars.size(), 2u);

  const interp::ExploreResult dyn =
      interp::exploreAllSchedules(p, {.detectRaces = true});
  ASSERT_TRUE(dyn.complete);
  // Every statically raced variable has a concrete racing schedule, and
  // the explorer saw no race csan missed.
  EXPECT_EQ(stat.racedVars, dyn.racedVars);
}

TEST(Csan, LockedProgramRefutedByExplorer) {
  const char* src = R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = a + 1; unlock(L); }
      thread { lock(L); a = a + 2; unlock(L); }
    }
    print(a);
  )";
  ir::Program p = parser::parseOrDie(src);
  driver::Compilation c = driver::analyze(p, {.warnings = false});
  DiagEngine diag;
  const CsanReport stat = runCsan(c, diag);
  EXPECT_TRUE(stat.racedVars.empty());

  const interp::ExploreResult dyn =
      interp::exploreAllSchedules(p, {.detectRaces = true});
  ASSERT_TRUE(dyn.complete);
  EXPECT_FALSE(dyn.anyRace());
}

}  // namespace
}  // namespace cssame::sanalysis
