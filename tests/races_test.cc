// Unit tests for the lock-consistency data race warnings (Section 6):
// csan's per-variable view, as `cssamec --races` prints it.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "src/driver/pipeline.h"
#include "src/driver/runner.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"

namespace cssame::sanalysis {
namespace {

PerVariableRaces analyzeRaces(const char* src,
                              DiagEngine* diagOut = nullptr) {
  ir::Program p = parser::parseOrDie(src);
  driver::Compilation c = driver::analyze(p, {.warnings = false});
  DiagEngine diag;
  PerVariableRaces r = perVariableRaces(c, diag);
  if (diagOut != nullptr) *diagOut = diag;
  return r;
}

TEST(Races, CleanLockedProgram) {
  PerVariableRaces r = analyzeRaces(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = a + 1; unlock(L); }
      thread { lock(L); a = a + 2; unlock(L); }
    }
    print(a);
  )");
  EXPECT_EQ(r.potentialRaces, 0u);
  EXPECT_EQ(r.inconsistentLocking, 0u);
}

TEST(Races, UnprotectedWriteWrite) {
  PerVariableRaces r = analyzeRaces(R"(
    int a;
    cobegin {
      thread { a = 1; }
      thread { a = 2; }
    }
    print(a);
  )");
  EXPECT_EQ(r.potentialRaces, 1u);
}

TEST(Races, UnprotectedWriteRead) {
  PerVariableRaces r = analyzeRaces(R"(
    int a, b;
    cobegin {
      thread { a = 1; }
      thread { b = a; }
    }
    print(b);
  )");
  EXPECT_EQ(r.potentialRaces, 1u);
}

TEST(Races, DifferentLocksAreInconsistent) {
  DiagEngine diag;
  PerVariableRaces r = analyzeRaces(R"(
    int a; lock L1, L2;
    cobegin {
      thread { lock(L1); a = a + 1; unlock(L1); }
      thread { lock(L2); a = a + 2; unlock(L2); }
    }
    print(a);
  )", &diag);
  EXPECT_EQ(r.inconsistentLocking, 1u);
  EXPECT_EQ(r.potentialRaces, 1u);
  EXPECT_EQ(diag.countOf(DiagCode::InconsistentLocking), 1u);
}

TEST(Races, HalfProtectedWrite) {
  PerVariableRaces r = analyzeRaces(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = a + 1; unlock(L); }
      thread { a = 2; }
    }
    print(a);
  )");
  EXPECT_EQ(r.inconsistentLocking, 1u);
  EXPECT_EQ(r.potentialRaces, 1u);
}

TEST(Races, OrderedBySetWaitIsNoRace) {
  PerVariableRaces r = analyzeRaces(R"(
    int a; event e;
    cobegin {
      thread { a = 1; set(e); }
      thread { wait(e); print(a); }
    }
  )");
  EXPECT_EQ(r.potentialRaces, 0u);
}

TEST(Races, SequentialAccessesNoWarning) {
  PerVariableRaces r = analyzeRaces(R"(
    int a;
    a = 1;
    a = 2;
    cobegin {
      thread { int p; p = 1; }
      thread { int q; q = 2; }
    }
    print(a);
  )");
  EXPECT_EQ(r.potentialRaces, 0u);
  EXPECT_EQ(r.inconsistentLocking, 0u);
}

TEST(Races, TwoCommonLocksNoRace) {
  PerVariableRaces r = analyzeRaces(R"(
    int a; lock L, M;
    cobegin {
      thread { lock(L); lock(M); a = a + 1; unlock(M); unlock(L); }
      thread { lock(L); lock(M); a = a + 2; unlock(M); unlock(L); }
    }
    print(a);
  )");
  EXPECT_EQ(r.potentialRaces, 0u);
  EXPECT_EQ(r.inconsistentLocking, 0u);
}

TEST(Races, RaceInNestedCobegin) {
  PerVariableRaces r = analyzeRaces(R"(
    int a;
    cobegin {
      thread {
        cobegin {
          thread { a = 1; }
          thread { a = 2; }
        }
      }
      thread { int p; p = 3; }
    }
    print(a);
  )");
  EXPECT_EQ(r.potentialRaces, 1u);
}

TEST(Races, ThreadLocalSharedByNestedCobegin) {
  // `t` is declared inside a thread, but the two arms of the inner
  // cobegin both touch it: it is shared between them.
  DiagEngine diag;
  PerVariableRaces r = analyzeRaces(R"(
    lock L;
    cobegin {
      thread {
        int t;
        cobegin {
          thread { lock(L); t = t + 1; unlock(L); }
          thread { t = 2; }
        }
        print(t);
      }
    }
  )", &diag);
  EXPECT_EQ(r.potentialRaces, 1u);
  EXPECT_EQ(r.inconsistentLocking, 1u);
  ASSERT_EQ(diag.countOf(DiagCode::PotentialDataRace), 1u);
  for (const Diagnostic& d : diag.diagnostics()) {
    if (d.code == DiagCode::PotentialDataRace) {
      EXPECT_NE(d.message.find("variable 't'"), std::string::npos)
          << d.str();
    }
  }
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// `cssamec --races` on every example program, byte for byte against the
// output of the per-variable engine this view replaced.
TEST(Races, ExampleProgramsMatchGolden) {
  const char* names[] = {
      "alias_array_race",   "alias_locked_ptr",   "alias_shared_cell",
      "deadlock",           "figure1",            "lock_lints",
      "repair_fresh_lock",  "repair_no_safe_fix", "repair_partial",
      "repair_race",        "tso_bakery",         "tso_bakery_fenced",
      "tso_peterson",       "tso_peterson_fenced", "tso_spinlock",
      "vrange_triggers",
  };
  const std::string dir =
      std::string(CSSAME_SOURCE_DIR) + "/examples/programs/";
  for (const char* name : names) {
    const std::string source = readFile(dir + name + ".cp");
    driver::RunOptions o;
    o.doRaces = true;
    const driver::RunOutput r =
        driver::runSource(source, std::string(name) + ".cp", o);
    EXPECT_EQ(r.code, 0) << name;
    EXPECT_EQ(r.out, "") << name;
    EXPECT_EQ(r.err, readFile(dir + "golden/" + name + ".races.out")) << name;
  }
}

}  // namespace
}  // namespace cssame::sanalysis
