// The three workloads: their seeded op lists (plans), the untimed set-up,
// the timed phase and the oracle pass. trace.cc reuses the plans for the
// traced run.
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pb/bench.h"
#include "pb/inputs.h"
#include "src/driver/runner.h"
#include "src/service/server.h"
#include "src/support/io.h"

namespace perfbench {

/// One entry of a workload's fixed op list: a cold op on input `input`
/// of the plan's cold list, or a warm op repeating warm input `input`.
struct Op {
  bool warm = false;
  std::size_t input = 0;
};

struct LockedPlan {
  std::vector<LockedProgram> cold;    ///< one per cold op
  std::vector<LockedProgram> warm;    ///< answered from the memory tier
  std::vector<LockedProgram> warmup;  ///< untimed set-up runs
  std::vector<Op> ops;
};

struct RacyPlan {
  std::vector<RacyProgram> cold;
  std::vector<RacyProgram> warm;
  std::vector<RacyProgram> warmup;
  std::vector<Op> ops;
};

struct ServicePlan {
  std::vector<std::string> sources;  ///< the Zipf universe
  std::vector<std::string> warmup;   ///< untimed set-up requests
  std::vector<std::size_t> stream;   ///< request i asks for sources[stream[i]]
};

LockedPlan planCsanLocked(const Args& args);
RacyPlan planFixRacy(const Args& args);
ServicePlan planServiceMix(const Args& args);

/// The cssamec options of a csan_locked op (`--csan --vrange`) and of a
/// service_mix request (the csan method with empty options).
cssame::driver::RunOptions lockedOptions();
cssame::driver::RunOptions serviceOptions();

/// cssamed's limits in service_mix: memory tier only, smaller than the
/// source set, and at most two pool workers.
cssame::service::ServerOptions serviceMixServerOptions();

/// A cssamed Server answering on a Unix socket from its own thread.
/// Destruction shuts the server down and joins the thread.
class SocketServer {
 public:
  SocketServer(const cssame::service::ServerOptions& opts, std::string path);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// A new client connection (retrying until the listener is up).
  cssame::support::FdStream connect();
  cssame::service::Server& server() { return server_; }

 private:
  cssame::service::Server server_;
  std::string path_;
  std::thread daemon_;
};

/// A socket path inside the checkout, unique to this process.
std::string socketPath(const char* tag);

/// One framed request/response exchange; empty string on a transport
/// failure.
std::string roundTrip(cssame::support::FdStream& conn,
                      const std::string& payload);

RunResult runCsanLocked(const Args& args);
RunResult runFixRacy(const Args& args);
RunResult runServiceMix(const Args& args);

}  // namespace perfbench
