// The traced run: per-layer metrics for one workload, from spans the
// benchmark records around each public layer entry point it calls on the
// workload's own inputs. Not counted toward the end-to-end metrics.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "pb/bench.h"

namespace perfbench {

/// Every per-layer metric a traced run prints, with its unit, in output
/// order (the `per_layer` list of BENCHMARK.json).
const std::vector<std::pair<std::string, std::string>>& layerMetrics();

RunResult traceCsanLocked(const Args& args);
RunResult traceFixRacy(const Args& args);
RunResult traceServiceMix(const Args& args);

}  // namespace perfbench
