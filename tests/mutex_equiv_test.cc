// Equivalence sweep for the linear-time mutex structures.
//
// src/mutex/mutex_structures.cc builds only well-formed bodies, by one
// post-dominator chain step and one bounded walk per lock node, and
// answers queries from a per-node index. It promises the same answers as
// the original Algorithm A.1, which enumerated every lock × unlock pair
// satisfying DOM/PDOM and filled each candidate by an O(N) member scan.
// A verbatim transcription of that code is the reference here; paper
// figures, the example programs, generated workloads and hand-written and
// randomly sprinkled lock shapes (nesting, conditional unlocks, missing
// delimiters, cross-thread and sequential regions) are checked for
//
//   * identical well-formed (lock, unlock) pairs, in order, and members,
//   * identical bodiesContaining / wellFormedBodyContaining / locksetAt
//     answers at every node,
//   * identical IllFormedMutexBody / Unmatched* diagnostics: code, text,
//     location and order.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/mutex/mutex_structures.h"
#include "src/parser/parser.h"
#include "src/support/bitset.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::mutex {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: the original all-pairs Algorithm A.1 with a
// graph.size() bitset per candidate and linear-scan queries. Deliberately
// kept dumb and independent of the production index.
// ---------------------------------------------------------------------------

struct RefBody {
  MutexBodyId id;
  SymbolId lockVar;
  NodeId lockNode;
  NodeId unlockNode;
  DynBitset members;
  bool wellFormed = true;
};

class RefMutexStructures {
 public:
  RefMutexStructures(const pfg::Graph& graph, const analysis::Dominators& dom,
                     const analysis::Dominators& pdom, DiagEngine* diag) {
    std::unordered_map<SymbolId, std::vector<NodeId>> locks, unlocks;
    for (const pfg::Node& n : graph.nodes()) {
      if (n.kind == pfg::NodeKind::Lock)
        locks[n.syncStmt->sync].push_back(n.id);
      else if (n.kind == pfg::NodeKind::Unlock)
        unlocks[n.syncStmt->sync].push_back(n.id);
    }

    std::vector<SymbolId> allLockVars;
    for (const auto& [l, _] : locks) allLockVars.push_back(l);
    for (const auto& [l, _] : unlocks)
      if (!locks.contains(l)) allLockVars.push_back(l);
    std::sort(allLockVars.begin(), allLockVars.end());

    for (SymbolId l : allLockVars) {
      lockVars_.push_back(l);
      for (NodeId n : locks[l]) {
        for (NodeId x : unlocks[l]) {
          if (!dom.dominates(n, x) || !pdom.dominates(x, n)) continue;
          RefBody body;
          body.id = MutexBodyId{static_cast<MutexBodyId::value_type>(
              bodies_.size())};
          body.lockVar = l;
          body.lockNode = n;
          body.unlockNode = x;
          body.members.resize(graph.size());
          for (const pfg::Node& a : graph.nodes()) {
            if (dom.strictlyDominates(n, a.id) && pdom.dominates(x, a.id))
              body.members.set(a.id.index());
          }
          for (NodeId m : locks[l]) {
            if (m != n && m != x && body.members.test(m.index()))
              body.wellFormed = false;
          }
          for (NodeId m : unlocks[l]) {
            if (m != n && m != x && body.members.test(m.index()))
              body.wellFormed = false;
          }
          bodies_.push_back(std::move(body));
        }
      }
    }

    if (diag != nullptr) {
      const auto delimitsWellFormed = [this](NodeId node, bool asLock) {
        for (const RefBody& b : bodies_) {
          if (!b.wellFormed) continue;
          if ((asLock && b.lockNode == node) ||
              (!asLock && b.unlockNode == node))
            return true;
        }
        return false;
      };
      for (const RefBody& b : bodies_) {
        if (b.wellFormed) continue;
        if (delimitsWellFormed(b.lockNode, true) &&
            delimitsWellFormed(b.unlockNode, false))
          continue;
        diag->warn(DiagCode::IllFormedMutexBody,
                   graph.node(b.lockNode).syncStmt->loc,
                   "mutex body for lock '" +
                       graph.program().symbols.nameOf(b.lockVar) +
                       "' contains nested lock/unlock of the same lock; "
                       "it will not be used to reduce dependencies");
      }
    }

    if (diag != nullptr) {
      for (const pfg::Node& n : graph.nodes()) {
        if (n.kind != pfg::NodeKind::Lock && n.kind != pfg::NodeKind::Unlock)
          continue;
        const bool isLock = n.kind == pfg::NodeKind::Lock;
        bool matched = false;
        for (const RefBody& b : bodies_) {
          if (!b.wellFormed) continue;
          if ((isLock && b.lockNode == n.id) ||
              (!isLock && b.unlockNode == n.id)) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          const std::string name =
              graph.program().symbols.nameOf(n.syncStmt->sync);
          diag->warn(
              isLock ? DiagCode::UnmatchedLock : DiagCode::UnmatchedUnlock,
              n.syncStmt->loc,
              std::string(isLock ? "lock(" : "unlock(") + name +
                  ") is not part of any well-formed mutex body");
        }
      }
    }
  }

  [[nodiscard]] const std::vector<RefBody>& bodies() const { return bodies_; }
  [[nodiscard]] const RefBody& body(MutexBodyId id) const {
    return bodies_[id.index()];
  }
  /// Every lock variable with a delimiter (a superset of the production
  /// lockVars(), which names only locks owning a well-formed body).
  [[nodiscard]] const std::vector<SymbolId>& lockVars() const {
    return lockVars_;
  }

  [[nodiscard]] MutexBodyId wellFormedBodyContaining(NodeId node,
                                                     SymbolId lockVar) const {
    for (const RefBody& b : bodies_)
      if (b.lockVar == lockVar && b.wellFormed && b.members.test(node.index()))
        return b.id;
    return MutexBodyId{};
  }

  [[nodiscard]] std::vector<MutexBodyId> bodiesContaining(NodeId node) const {
    std::vector<MutexBodyId> out;
    for (const RefBody& b : bodies_)
      if (b.wellFormed && b.members.test(node.index())) out.push_back(b.id);
    return out;
  }

  [[nodiscard]] std::set<SymbolId> locksetAt(NodeId node) const {
    std::set<SymbolId> out;
    for (MutexBodyId id : bodiesContaining(node))
      out.insert(body(id).lockVar);
    return out;
  }

 private:
  std::vector<RefBody> bodies_;
  std::vector<SymbolId> lockVars_;
};

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

using Delimiters = std::pair<NodeId::value_type, NodeId::value_type>;

Delimiters delimitersOf(NodeId lock, NodeId unlock) {
  return {lock.value(), unlock.value()};
}

/// What a sweep exercised, so a generator drifting towards trivial
/// shapes shows up as a failure instead of a vacuous pass.
struct Coverage {
  std::size_t wellFormed = 0;
  std::size_t illFormedCandidates = 0;
  std::size_t illFormedWarnings = 0;
  std::size_t unmatchedWarnings = 0;
};

void checkEquivalence(ir::Program program, const std::string& label,
                      Coverage* coverage = nullptr) {
  SCOPED_TRACE(label);
  const driver::Compilation c =
      driver::analyze(program, {.warnings = false});
  const pfg::Graph& graph = c.graph();

  DiagEngine newDiag, refDiag;
  const MutexStructures fast(graph, c.dom(), c.pdom(), &newDiag);
  const RefMutexStructures ref(graph, c.dom(), c.pdom(), &refDiag);

  // Well-formed pairs, in order, with identical members.
  std::vector<const RefBody*> refWellFormed;
  for (const RefBody& b : ref.bodies())
    if (b.wellFormed) refWellFormed.push_back(&b);
  ASSERT_EQ(fast.bodies().size(), refWellFormed.size());
  for (std::size_t i = 0; i < refWellFormed.size(); ++i) {
    const MutexBody& got = fast.bodies()[i];
    const RefBody& want = *refWellFormed[i];
    ASSERT_EQ(got.id.index(), i);
    ASSERT_EQ(got.lockVar, want.lockVar) << "body " << i;
    ASSERT_EQ(delimitersOf(got.lockNode, got.unlockNode),
              delimitersOf(want.lockNode, want.unlockNode))
        << "body " << i;
    std::vector<NodeId> wantMembers;
    want.members.forEach([&](std::size_t idx) {
      wantMembers.push_back(NodeId{static_cast<NodeId::value_type>(idx)});
    });
    ASSERT_EQ(std::vector<NodeId>(got.members.begin(), got.members.end()),
              wantMembers)
        << "members of body " << i;
    ASSERT_EQ(got.members.count(), want.members.count());
  }

  // The production structure of each lock lists its bodies in order.
  for (SymbolId l : ref.lockVars()) {
    std::vector<Delimiters> want, got;
    for (const RefBody* b : refWellFormed)
      if (b->lockVar == l)
        want.push_back(delimitersOf(b->lockNode, b->unlockNode));
    for (MutexBodyId id : fast.structureOf(l))
      got.push_back(
          delimitersOf(fast.body(id).lockNode, fast.body(id).unlockNode));
    ASSERT_EQ(got, want) << "structure of lock " << l.value();
  }

  // Per-node queries, answers compared by body delimiters.
  for (const pfg::Node& n : graph.nodes()) {
    std::vector<Delimiters> want, got;
    for (MutexBodyId id : ref.bodiesContaining(n.id))
      want.push_back(
          delimitersOf(ref.body(id).lockNode, ref.body(id).unlockNode));
    for (MutexBodyId id : fast.bodiesContaining(n.id))
      got.push_back(
          delimitersOf(fast.body(id).lockNode, fast.body(id).unlockNode));
    ASSERT_EQ(got, want) << "bodiesContaining(" << n.id.value() << ")";
    ASSERT_EQ(fast.locksetAt(n.id), ref.locksetAt(n.id))
        << "locksetAt(" << n.id.value() << ")";
    for (SymbolId l : ref.lockVars()) {
      const MutexBodyId r = ref.wellFormedBodyContaining(n.id, l);
      const MutexBodyId f = fast.wellFormedBodyContaining(n.id, l);
      ASSERT_EQ(f.valid(), r.valid())
          << "wellFormedBodyContaining(" << n.id.value() << ", "
          << l.value() << ")";
      if (r.valid()) {
        ASSERT_EQ(
            delimitersOf(fast.body(f).lockNode, fast.body(f).unlockNode),
            delimitersOf(ref.body(r).lockNode, ref.body(r).unlockNode));
      }
    }
  }

  // Diagnostics: code, location, text and order.
  const std::vector<Diagnostic>& got = newDiag.diagnostics();
  const std::vector<Diagnostic>& want = refDiag.diagnostics();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(got[i].str(), want[i].str()) << "diagnostic " << i;

  if (coverage == nullptr) return;
  coverage->wellFormed += refWellFormed.size();
  coverage->illFormedCandidates += ref.bodies().size() - refWellFormed.size();
  coverage->illFormedWarnings += refDiag.countOf(DiagCode::IllFormedMutexBody);
  coverage->unmatchedWarnings += refDiag.countOf(DiagCode::UnmatchedLock) +
                                 refDiag.countOf(DiagCode::UnmatchedUnlock);
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// Structured programs with lock(Lk)/unlock(Lk) statements sprinkled at
/// random — inside branches, loops and thread arms, unbalanced and nested
/// — so ill-formed candidates, unmatched delimiters and aborted walks are
/// all exercised.
class LockSprinkler {
 public:
  explicit LockSprinkler(std::uint64_t seed) : rng_(seed) {}

  std::string program() {
    out_ = "int a, b, c; lock L, M;\n";
    block(0, 4 + pick(6));
    if (pick(2) == 0) {
      out_ += "cobegin {\n";
      const int threads = 2 + pick(2);
      for (int t = 0; t < threads; ++t) {
        out_ += "thread {\n";
        block(1, 3 + pick(6));
        out_ += "}\n";
      }
      out_ += "}\n";
      block(0, pick(4));
    }
    return out_;
  }

 private:
  int pick(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }

  void block(int depth, int stmts) {
    for (int i = 0; i < stmts; ++i) stmt(depth);
  }

  void stmt(int depth) {
    static const char* const kLocks[] = {"L", "M"};
    static const char* const kVars[] = {"a", "b", "c"};
    const int r = pick(10);
    if (r < 3) {
      out_ += std::string(r == 0 ? "unlock(" : "lock(") + kLocks[pick(2)] +
              ");\n";
    } else if (r == 3 && depth < 3) {
      // A balanced region whose interior may itself be unbalanced.
      const char* l = kLocks[pick(2)];
      out_ += std::string("lock(") + l + ");\n";
      block(depth + 1, 1 + pick(3));
      out_ += std::string("unlock(") + l + ");\n";
    } else if (r == 4 && depth < 3) {
      out_ += std::string("if (") + kVars[pick(3)] + " > 0) {\n";
      block(depth + 1, 1 + pick(3));
      out_ += "}";
      if (pick(2) == 0) {
        out_ += " else {\n";
        block(depth + 1, 1 + pick(3));
        out_ += "}";
      }
      out_ += "\n";
    } else if (r == 5 && depth < 3) {
      out_ += std::string("while (") + kVars[pick(3)] + " < 3) {\n";
      block(depth + 1, 1 + pick(3));
      out_ += "}\n";
    } else {
      const char* v = kVars[pick(3)];
      out_ += std::string(v) + " = " + kVars[pick(3)] + " + 1;\n";
    }
  }

  std::mt19937_64 rng_;
  std::string out_;
};

TEST(MutexEquivalence, PaperFigures) {
  checkEquivalence(parser::parseOrDie(workload::figure1Source()), "figure1");
  checkEquivalence(parser::parseOrDie(workload::figure2Source()), "figure2");
  checkEquivalence(parser::parseOrDie(workload::figure5aSource()), "figure5a");
}

TEST(MutexEquivalence, ExamplePrograms) {
  const std::filesystem::path dir =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "examples" / "programs";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".cp") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    checkEquivalence(parser::parseOrDie(text.str()),
                     entry.path().filename().string());
    ++checked;
  }
  EXPECT_GE(checked, 10u);
}

TEST(MutexEquivalence, LockStructuredSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const int threads = 2 + static_cast<int>(seed % 5);
    const int regions = 1 + static_cast<int>(seed % 4);
    const double lockedFraction = 0.25 * static_cast<double>(seed % 5);
    checkEquivalence(
        workload::makeLockStructured(threads, regions, 4, lockedFraction,
                                     seed),
        "makeLockStructured seed=" + std::to_string(seed));
  }
}

TEST(MutexEquivalence, RandomWorkloadSweep) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2 + static_cast<int>(seed % 3);
    cfg.sharedVars = 4;
    cfg.locks = 1 + static_cast<int>(seed % 4);
    cfg.stmtsPerThread = 6 + static_cast<int>(seed % 7);
    cfg.branchProb = 0.3;
    cfg.loopProb = 0.2;
    cfg.useEvents = (seed % 2) == 0;
    cfg.determinate = (seed % 3) != 0;
    checkEquivalence(workload::generateRandom(cfg),
                     "generateRandom seed=" + std::to_string(seed));
  }
}

TEST(MutexEquivalence, SprinkledLockSweep) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const std::string source = LockSprinkler(seed).program();
    SCOPED_TRACE(source);
    checkEquivalence(parser::parseOrDie(source),
                     "sprinkled seed=" + std::to_string(seed), &coverage);
  }
  EXPECT_GE(coverage.wellFormed, 100u);
  EXPECT_GE(coverage.illFormedCandidates, 100u);
  EXPECT_GE(coverage.illFormedWarnings, 50u);
  EXPECT_GE(coverage.unmatchedWarnings, 100u);
  std::printf("sprinkled sweep: %zu well-formed bodies, %zu ill-formed "
              "candidates, %zu ill-formed and %zu unmatched warnings\n",
              coverage.wellFormed, coverage.illFormedCandidates,
              coverage.illFormedWarnings, coverage.unmatchedWarnings);
}

TEST(MutexEquivalence, HandShapes) {
  const std::pair<const char*, const char*> shapes[] = {
      {"nested same lock", R"(
        int a; lock L;
        lock(L); lock(L); a = 1; unlock(L); unlock(L);
      )"},
      {"nested same lock in a branch", R"(
        int a, c; lock L;
        lock(L);
        if (c > 0) { lock(L); a = 1; unlock(L); }
        a = 2;
        unlock(L);
      )"},
      {"conditional unlock", R"(
        int a, c; lock L;
        lock(L);
        if (c > 0) { unlock(L); } else { unlock(L); }
      )"},
      {"lock without unlock", R"(
        int a; lock L;
        lock(L); a = 1;
      )"},
      {"unlock without lock", R"(
        int a; lock L;
        a = 1; unlock(L);
      )"},
      {"cross-thread delimiters", R"(
        int a; lock L;
        cobegin {
          thread { lock(L); a = 1; }
          thread { a = 2; unlock(L); }
        }
      )"},
      {"sequential regions", R"(
        int a; lock L, M;
        lock(L); a = 1; unlock(L);
        lock(M); a = 2; unlock(M);
        lock(L); a = 3; unlock(L);
      )"},
      {"regions in loops", R"(
        int a, c; lock L;
        while (c < 3) { lock(L); a = a + 1; unlock(L); c = c + 1; }
        lock(L); while (a < 9) { a = a + 1; } unlock(L);
      )"},
      {"interleaved locks", R"(
        int a; lock L, M;
        lock(L); lock(M); a = 1; unlock(L); unlock(M);
      )"},
      {"region around a cobegin", R"(
        int a; lock L;
        lock(L);
        cobegin { thread { a = 1; } thread { a = 2; } }
        unlock(L);
      )"},
  };
  for (const auto& [label, source] : shapes)
    checkEquivalence(parser::parseOrDie(source), label);
}

}  // namespace
}  // namespace cssame::mutex
