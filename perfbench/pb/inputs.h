// Seeded input generators for the three workloads. Every generator is a
// pure function of its Rng, so a workload seed fixes every input byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Rng = std::mt19937_64;

/// Uniform integer in [lo, hi].
inline std::int64_t uniform(Rng& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng() % static_cast<std::uint64_t>(hi - lo + 1));
}

/// Derives an independent stream from a workload seed and a purpose tag,
/// so adding draws to one stream never shifts another.
Rng streamFor(std::uint64_t seed, const char* tag);

/// csan_locked input: the lock-region family (3 threads, sequential
/// lock(L)/unlock(L) regions, 477..495 statements). Race-free by
/// construction unless `injected`, in which case exactly one unlocked
/// write of `injectedVar` sits alone on line `injectedLine`.
struct LockedProgram {
  std::string source;
  bool injected = false;
  std::uint32_t injectedLine = 0;
  std::string injectedVar;
};

LockedProgram makeLockedProgram(Rng& rng, bool inject);

/// fix_racy input: 3 threads of two lock(L) regions over a, b and c plus
/// one update of r each, where exactly one update of r is unlocked. The known fix wraps that
/// line in lock(L)/unlock(L).
struct RacyProgram {
  std::string source;
  std::uint32_t racyLine = 0;
};

RacyProgram makeRacyProgram(Rng& rng);

/// service_mix source: workload::generateRandom with pointers and arrays
/// enabled, one fixed size configuration, seeded per source.
std::string makeServiceSource(std::uint64_t seed);

/// `n` draws of source indices in [0, sources): Zipf(`s`) over ranks,
/// mapped through a seeded permutation so popularity is not index order.
std::vector<std::size_t> zipfStream(Rng& rng, std::size_t sources,
                                    std::size_t n, double s);

/// cssamed request payloads, as `cssamec --connect` would send them.
std::string csanRequest(std::int64_t id, const std::string& source,
                        bool vrange);
std::string fixRequest(std::int64_t id, const std::string& source);

/// The file name every request and standalone run uses.
inline constexpr const char* kFileName = "bench.cp";

}  // namespace perfbench
