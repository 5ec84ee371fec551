// Correctness oracles, run after the timed phase. Each one judges an
// output against an answer the code under test did not produce: the
// generator's known race verdict, a fresh exhaustive exploration of the
// programs before and after a repair, or a standalone run of the same
// request. Every check returns false with a reason in `why` on failure.
#pragma once

#include <string>

#include "pb/inputs.h"
#include "src/driver/runner.h"

namespace perfbench {

/// csan_locked: the race verdict in the rendered diagnostics (`err`, as
/// cssamec prints it) equals the generator's answer. Race-free programs
/// report no potential-data-race; an injected program reports races only
/// on the injected variable, with the injected line among the sites.
bool checkLockedVerdict(const LockedProgram& p, const std::string& err,
                        std::string& why);

/// fix_racy: `patchedSource` is re-verified from scratch. Both programs
/// are explored exhaustively (no partial-order reduction); the original
/// must race, the patched one must be race-free and deadlock-free, and
/// its output set must be a subset of the original's.
bool checkRepair(const std::string& original, bool claimedFixed,
                 const std::string& patchedSource, std::string& why);

/// service: a csan response envelope carries exactly the bytes of the
/// standalone run. On success `tier` holds the envelope's cache tier.
bool checkCsanResponse(const std::string& payload,
                       const cssame::driver::RunOutput& expected,
                       std::string& why, std::string* tier = nullptr);

/// service (fix method): a response's result is byte-identical to the
/// reference response's result (whose patched source the caller
/// re-verifies once with checkRepair).
bool checkFixResponse(const std::string& payload,
                      const std::string& referencePayload,
                      std::string& why);

}  // namespace perfbench
