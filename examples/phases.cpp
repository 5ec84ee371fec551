// SPMD phases: a two-phase parallel computation built from `doall` and
// `barrier` — the two constructs this library adds on top of the paper's
// core (Section 6 mentions doall support; Section 7 lists barriers as
// future work).
//
// Phase 1: every worker writes its slot of a shared array (modelled as
// scalars). Phase 2 (after the barrier): every worker reads its
// neighbour's slot. The barrier-phase MHP refinement proves the
// cross-phase accesses race-free, and the exhaustive schedule explorer
// confirms the program has exactly one possible output.
//
//   $ ./phases
#include <cstdio>

#include "src/driver/pipeline.h"
#include "src/interp/explore.h"
#include "src/ir/printer.h"
#include "src/opt/lockstats.h"
#include "src/opt/optimize.h"
#include "src/parser/parser.h"
#include "src/sanalysis/csan.h"

using namespace cssame;

namespace {

const char* kSource = R"(
int s0, s1, s2, s3;
int r0, r1, r2, r3;

cobegin {
  thread w0 { s0 = 10; barrier; r0 = s1; }
  thread w1 { s1 = 11; barrier; r1 = s2; }
  thread w2 { s2 = 12; barrier; r2 = s3; }
  thread w3 { s3 = 13; barrier; r3 = s0; }
}
print(r0);
print(r1);
print(r2);
print(r3);
)";

}  // namespace

int main() {
  ir::Program prog = parser::parseOrDie(kSource);
  std::printf("=== Source ===\n%s\n", ir::printProgram(prog).c_str());

  driver::Compilation c = driver::analyze(prog);
  DiagEngine raceDiag;
  const sanalysis::PerVariableRaces races =
      sanalysis::perVariableRaces(c, raceDiag);
  std::printf("=== Analysis ===\n");
  std::printf("conflict edges (dataflow):   %zu\n",
              c.graph().conflicts.size());
  std::printf("potential races reported:    %zu  (barrier phases prove the "
              "cross-phase accesses ordered)\n",
              races.potentialRaces);

  std::printf("\n=== Exhaustive schedule exploration ===\n");
  interp::ExploreResult all = interp::exploreAllSchedules(prog);
  std::printf("states explored: %llu, complete: %s\n",
              static_cast<unsigned long long>(all.statesExplored),
              all.complete ? "yes" : "no");
  std::printf("distinct outputs: %zu\n", all.outputs.size());
  for (const auto& out : all.outputs) {
    std::printf(" ");
    for (long long v : out) std::printf(" %lld", v);
    std::printf("\n");
  }

  // Optimization must preserve the single outcome.
  opt::optimizeProgram(prog);
  interp::ExploreResult after = interp::exploreAllSchedules(prog);
  std::printf("\n=== After optimization ===\n%s\n",
              ir::printProgram(prog).c_str());
  std::printf("outputs unchanged: %s\n",
              after.outputs == all.outputs ? "yes" : "NO");
  return after.outputs == all.outputs ? 0 : 1;
}
