#include "pb/inputs.h"

#include <algorithm>
#include <cmath>

#include "src/ir/printer.h"
#include "src/service/json.h"
#include "src/workload/generator.h"

namespace perfbench {

using cssame::service::Json;

Rng streamFor(std::uint64_t seed, const char* tag) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the tag
  for (const char* p = tag; *p != '\0'; ++p)
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(h),
                    static_cast<std::uint32_t>(h >> 32)};
  return Rng(seq);
}

namespace {

/// Accumulates source text one line at a time and knows the 1-based
/// number of the next line.
struct Lines {
  std::string text;
  std::uint32_t next = 1;

  void add(const std::string& line) {
    text += line;
    text += '\n';
    ++next;
  }
};

std::string num(std::int64_t v) { return std::to_string(v); }

}  // namespace

LockedProgram makeLockedProgram(Rng& rng, bool inject) {
  const auto nA = static_cast<int>(uniform(rng, 43, 45));
  const auto nB = static_cast<int>(uniform(rng, 43, 45));
  const auto nC = static_cast<int>(uniform(rng, 27, 29));
  // A per-program constant base keeps every op's source distinct.
  const std::int64_t base = uniform(rng, 1, 1000000);
  LockedProgram p;
  p.injected = inject;
  // The unlocked write goes into thread A (racing B's updates of x) or
  // thread C (racing B's updates of z), between two regions.
  const bool intoA = uniform(rng, 0, 1) == 0;
  const int at = static_cast<int>(uniform(rng, 1, intoA ? nA - 1 : nC - 1));
  const std::int64_t injectConst = uniform(rng, 1, 1000);

  Lines s;
  s.add("int x = 0, y = 0, z = 0;");
  s.add("lock L;");
  s.add("lock M;");
  s.add("cobegin {");
  s.add("  thread A {");
  for (int k = 0; k < nA; ++k) {
    if (inject && intoA && k == at) {
      p.injectedLine = s.next;
      p.injectedVar = "x";
      s.add("    x = x + " + num(injectConst) + ";");
    }
    s.add("    lock(L); x = x + " + num(base + k) + "; unlock(L);");
  }
  s.add("    lock(M); y = " + num(2 * base + 1) + "; unlock(M);");
  s.add("  }");
  s.add("  thread B {");
  for (int k = 0; k < nB; ++k)
    s.add("    lock(L); x = x * 2; unlock(L); lock(M); z = z + " +
          num(base + 3 * k) + "; unlock(M);");
  s.add("  }");
  s.add("  thread C {");
  for (int k = 0; k < nC; ++k) {
    if (inject && !intoA && k == at) {
      p.injectedLine = s.next;
      p.injectedVar = "z";
      s.add("    z = z + " + num(injectConst) + ";");
    }
    s.add("    lock(M); z = z + y + " + num(base + 5 * k) + "; unlock(M);");
  }
  s.add("  }");
  s.add("}");
  s.add("print(x); print(y); print(z);");
  p.source = std::move(s.text);
  return p;
}

RacyProgram makeRacyProgram(Rng& rng) {
  // Thread t updates v[t] and then v[t + 1] from it, so every program has
  // the same dependence shape (and a similar state count); the seed picks
  // the constants, the racy thread and where each thread updates r.
  static const char* const kVars[3] = {"a", "b", "c"};
  constexpr int kThreads = 3;
  constexpr int kRegions = 2;
  const int racyThread = static_cast<int>(uniform(rng, 0, kThreads - 1));
  RacyProgram p;
  Lines s;
  s.add("int a, b, c, r;");
  s.add("lock L;");
  s.add("cobegin {");
  for (int t = 0; t < kThreads; ++t) {
    s.add("  thread T" + num(t) + " {");
    const int rAt = static_cast<int>(uniform(rng, 0, kRegions));
    for (int k = 0; k <= kRegions; ++k) {
      if (k == rAt) {
        const std::string update = "r = r + " + num(uniform(rng, 1, 9)) + ";";
        if (t == racyThread) {
          p.racyLine = s.next;
          s.add("    " + update);
        } else {
          s.add("    lock(L); " + update + " unlock(L);");
        }
      }
      if (k == kRegions) break;
      const std::string v = kVars[(t + k) % kThreads];
      const std::string w = kVars[(t + (k == 0 ? 0 : k - 1)) % kThreads];
      s.add("    lock(L); " + v + " = " + w + " + " +
            num(uniform(rng, 1, 9)) + "; unlock(L);");
    }
    s.add("  }");
  }
  s.add("}");
  s.add("print(a); print(b); print(c); print(r);");
  p.source = std::move(s.text);
  return p;
}

std::string makeServiceSource(std::uint64_t seed) {
  cssame::workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 3;
  cfg.sharedVars = 4;
  cfg.locks = 2;
  cfg.stmtsPerThread = 10;
  cfg.maxDepth = 2;
  cfg.branchProb = 0.2;
  cfg.loopProb = 0.1;
  cfg.lockedFraction = 0.7;
  cfg.ptrProb = 0.15;
  cfg.arrayProb = 0.15;
  return cssame::ir::printProgram(cssame::workload::generateRandom(cfg));
}

std::vector<std::size_t> zipfStream(Rng& rng, std::size_t sources,
                                    std::size_t n, double s) {
  std::vector<double> cdf(sources);
  double total = 0.0;
  for (std::size_t r = 0; r < sources; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  std::vector<std::size_t> perm(sources);
  for (std::size_t i = 0; i < sources; ++i) perm[i] = i;
  for (std::size_t i = sources; i > 1; --i)
    std::swap(perm[i - 1],
              perm[static_cast<std::size_t>(
                  uniform(rng, 0, static_cast<std::int64_t>(i - 1)))]);
  std::vector<std::size_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // 53 random bits -> uniform double in [0, total).
    const double u =
        static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.push_back(perm[std::min(rank, sources - 1)]);
  }
  return out;
}

std::string csanRequest(std::int64_t id, const std::string& source,
                        bool vrange) {
  Json options = Json::object();
  if (vrange) options.set("vrange", true);
  Json req = Json::object();
  req.set("id", id)
      .set("method", "csan")
      .set("file", kFileName)
      .set("source", source)
      .set("options", std::move(options));
  return req.write();
}

std::string fixRequest(std::int64_t id, const std::string& source) {
  Json req = Json::object();
  req.set("id", id)
      .set("method", "fix")
      .set("file", kFileName)
      .set("source", source)
      .set("options", Json::object());
  return req.write();
}

}  // namespace perfbench
