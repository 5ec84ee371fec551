// Shared plumbing of the perfbench program: clocks, percentiles, the
// metric list a run prints, and the command-line arguments.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double msSince(Clock::time_point t0) {
  return msBetween(t0, Clock::now());
}

/// CPU time consumed by the calling thread, in milliseconds.
inline double threadCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Peak resident set size of this process so far, in MiB.
inline double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the oracle verdict, the op accounting and
/// the metric list (end-to-end metrics untraced, per-layer metrics traced).
struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Counts one failed oracle check; the first few go to stderr.
  void fail(const char* what, const std::string& why) {
    if (++failed <= 5) std::fprintf(stderr, "oracle: %s: %s\n", what, why.c_str());
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Latency samples of one run, split into the populations the end-to-end
/// metrics report: cold ops run the full analysis path, warm ops are
/// answered from cssamed's memory response tier.
struct Latencies {
  std::vector<double> cold, warm;
};

/// The end-to-end metric set every workload prints (see README.md).
/// `op_ms_*` is the latency of the workload's full-path op, which is the
/// cold population on every workload. `rssMb` is read right after the
/// timed phase, before the oracle runs.
inline void addEndToEnd(RunResult& r, double setupS, std::size_t ops,
                        double timedS, const Latencies& lat, double rssMb) {
  r.add("setup_s", setupS, "s");
  r.add("ops_per_s", timedS > 0 ? static_cast<double>(ops) / timedS : 0.0,
        "1/s");
  r.add("op_ms_p50", quantile(lat.cold, 0.5), "ms");
  r.add("op_ms_p90", quantile(lat.cold, 0.9), "ms");
  r.add("warm_ms_p50", quantile(lat.warm, 0.5), "ms");
  r.add("warm_ms_p90", quantile(lat.warm, 0.9), "ms");
  r.add("cold_ms_p50", quantile(lat.cold, 0.5), "ms");
  r.add("cold_ms_p90", quantile(lat.cold, 0.9), "ms");
  r.add("peak_rss_mb", rssMb, "MB");
}

}  // namespace perfbench
