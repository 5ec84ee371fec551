// The request JSON form of the per-file options, generated from the
// option table (src/driver/options.h): `cssamec --connect` encodes its
// command line with encodeRunOptions and the daemon decodes it back into
// the identical driver::RunOptions. Both directions live here so that
// src/driver never depends on the JSON layer.
#pragma once

#include <string>

#include "src/driver/runner.h"
#include "src/interp/explore.h"
#include "src/service/json.h"

namespace cssame::service {

/// The request "options" object for `o`; the fix key only when --fix is
/// on, and never the file outputs.
[[nodiscard]] Json encodeRunOptions(const driver::RunOptions& o);

/// Decodes a request "options" object into `o`. Unknown keys are
/// ignored; file outputs are not decodable (a daemon writing client-named
/// files would not be a pure function of the request). A wrong-typed
/// value or an unknown memory model or fix target fails with a message
/// in `err`: a silent default would cache an answer to a question the
/// client never asked.
[[nodiscard]] bool decodeRunOptions(const Json& options,
                                    driver::RunOptions& o, std::string& err);

/// Decodes the explore method's budgets and recording flags under the
/// same rules, appending their canonical rendering to `key`.
[[nodiscard]] bool decodeExploreOptions(const Json& options,
                                        interp::ExploreOptions& eo,
                                        std::string& key, std::string& err);

}  // namespace cssame::service
