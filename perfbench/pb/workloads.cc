#include "pb/workloads.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <unordered_map>
#include <unistd.h>

#include "pb/oracles.h"
#include "src/repair/repair.h"
#include "src/service/protocol.h"

namespace perfbench {

namespace svc = cssame::service;
using cssame::driver::RunOutput;

namespace {

// Op-list sizes. Cold ops scale with --seconds so the timed phase lasts
// about that long on the code this benchmark was defined against (on a
// 4-core 2.1 GHz VM); the list is still fixed by (seed, seconds), never by
// elapsed time. At the benchmark's 30 seconds every population has at
// least 100 samples, so each p90 has ten beyond it.
constexpr int kLockedColdPerSecond = 8;
constexpr int kRacyColdPerSecond = 14;
constexpr int kServiceRequestsPerSecond = 4000;
constexpr std::size_t kLockedWarmInputs = 6;
constexpr std::size_t kRacyWarmInputs = 8;
constexpr std::size_t kLockedWarmupInputs = 1;
constexpr std::size_t kRacyWarmupInputs = 4;
constexpr std::size_t kServiceSources = 256;
constexpr std::size_t kServiceMemEntries = 64;
constexpr std::size_t kServiceClients = 2;
constexpr std::size_t kServiceWarmupPerClient = 128;
constexpr double kZipfExponent = 1.0;
// Seeded share of csan_locked inputs carrying one injected unlocked write.
constexpr double kInjectShare = 0.25;
// Set-up is repeated and its median reported.
constexpr int kSetupReps = 5;

std::size_t scaled(int perSecond, int seconds) {
  return static_cast<std::size_t>(std::max(1, perSecond * seconds));
}

/// Each cold op i followed by one warm op on warm input i mod warmInputs,
/// so every warm op meets the same cache state: right after a cold op.
std::vector<Op> interleave(std::size_t cold, std::size_t warmInputs) {
  std::vector<Op> ops;
  for (std::size_t i = 0; i < cold; ++i) {
    ops.push_back({false, i});
    ops.push_back({true, i % warmInputs});
  }
  return ops;
}

bool bernoulli(Rng& rng, double p) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53 < p;
}

double seconds(Clock::time_point t0) { return msSince(t0) / 1e3; }

}  // namespace

LockedPlan planCsanLocked(const Args& args) {
  Rng rng = streamFor(args.seed, "csan_locked");
  LockedPlan plan;
  const std::size_t cold = scaled(kLockedColdPerSecond, args.seconds);
  for (std::size_t i = 0; i < cold; ++i)
    plan.cold.push_back(makeLockedProgram(rng, bernoulli(rng, kInjectShare)));
  // Warm inputs are race-free, so every warm response has a similar size.
  for (std::size_t i = 0; i < kLockedWarmInputs; ++i)
    plan.warm.push_back(makeLockedProgram(rng, false));
  for (std::size_t i = 0; i < kLockedWarmupInputs; ++i)
    plan.warmup.push_back(makeLockedProgram(rng, false));
  plan.ops = interleave(cold, kLockedWarmInputs);
  return plan;
}

RacyPlan planFixRacy(const Args& args) {
  Rng rng = streamFor(args.seed, "fix_racy");
  RacyPlan plan;
  const std::size_t cold = scaled(kRacyColdPerSecond, args.seconds);
  for (std::size_t i = 0; i < cold; ++i)
    plan.cold.push_back(makeRacyProgram(rng));
  for (std::size_t i = 0; i < kRacyWarmInputs; ++i)
    plan.warm.push_back(makeRacyProgram(rng));
  for (std::size_t i = 0; i < kRacyWarmupInputs; ++i)
    plan.warmup.push_back(makeRacyProgram(rng));
  plan.ops = interleave(cold, kRacyWarmInputs);
  return plan;
}

ServicePlan planServiceMix(const Args& args) {
  Rng rng = streamFor(args.seed, "service_mix");
  ServicePlan plan;
  const std::uint64_t base = rng();
  for (std::size_t i = 0; i < kServiceSources; ++i)
    plan.sources.push_back(makeServiceSource(base + i));
  for (std::size_t i = 0; i < kServiceClients * kServiceWarmupPerClient; ++i)
    plan.warmup.push_back(makeServiceSource(base + kServiceSources + i));
  plan.stream = zipfStream(
      rng, kServiceSources,
      scaled(kServiceRequestsPerSecond, args.seconds), kZipfExponent);
  return plan;
}

cssame::driver::RunOptions lockedOptions() {
  cssame::driver::RunOptions o;
  o.doCsan = true;
  o.doVrange = true;
  return o;
}

cssame::driver::RunOptions serviceOptions() {
  cssame::driver::RunOptions o;
  o.doCsan = true;
  return o;
}

svc::ServerOptions serviceMixServerOptions() {
  svc::ServerOptions o;
  o.memEntries = kServiceMemEntries;
  o.workers = 1;
  return o;
}

SocketServer::SocketServer(const svc::ServerOptions& opts, std::string path)
    : server_(opts), path_(std::move(path)) {
  daemon_ = std::thread([this] { (void)server_.serveUnix(path_); });
}

SocketServer::~SocketServer() {
  server_.requestShutdown();
  daemon_.join();
}

cssame::support::FdStream SocketServer::connect() {
  for (;;) {
    cssame::Expected<cssame::support::FdStream> conn =
        cssame::support::connectUnix(path_);
    if (conn) return std::move(*conn);
    std::this_thread::yield();
  }
}

std::string socketPath(const char* tag) {
  std::filesystem::create_directories(".bench_build");
  return ".bench_build/" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

std::string roundTrip(cssame::support::FdStream& conn,
                      const std::string& payload) {
  std::string response;
  if (!svc::writeFrame(conn, payload).ok() ||
      svc::readFrame(conn, response) != svc::FrameStatus::Ok)
    return {};
  return response;
}

namespace {

/// What runMixed leaves for the oracle: the cache-filling response of each
/// warm input, and every warm op's response with the input it repeated.
struct MixedRun {
  RunResult result;
  std::vector<std::string> references;
  std::vector<std::string> warmResponses;
  std::vector<std::size_t> warmInput;
};

/// The shared shape of csan_locked and fix_racy: set-up (server plus
/// warm-up, repeated), then a timed pass over the op list. `coldOp(i)`
/// runs cold input i and keeps its output for the oracle; warm ops send
/// warmRequests[j] to an in-process cssamed.
template <typename ColdOp, typename WarmupOp>
MixedRun runMixed(const std::vector<Op>& ops,
                  const std::vector<std::string>& warmRequests,
                  std::size_t warmupCount, WarmupOp warmupOp, ColdOp coldOp) {
  MixedRun run;
  std::vector<double> setups;
  std::unique_ptr<svc::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<svc::Server>(svc::ServerOptions{});
    for (std::size_t i = 0; i < warmupCount; ++i) warmupOp(i);
    run.references.clear();
    for (const std::string& req : warmRequests)
      run.references.push_back(server->handlePayload(req));
    setups.push_back(seconds(t0));
  }

  Latencies lat;
  lat.cold.reserve(ops.size());
  lat.warm.reserve(ops.size());
  run.warmResponses.reserve(ops.size());
  run.warmInput.reserve(ops.size());
  const Clock::time_point start = Clock::now();
  for (const Op& op : ops) {
    const Clock::time_point t0 = Clock::now();
    if (op.warm) {
      run.warmResponses.push_back(
          server->handlePayload(warmRequests[op.input]));
      lat.warm.push_back(msSince(t0));
      run.warmInput.push_back(op.input);
    } else {
      coldOp(op.input);
      lat.cold.push_back(msSince(t0));
    }
  }
  const double timed = seconds(start);

  run.result.attempted = ops.size();
  addEndToEnd(run.result, median(setups), ops.size(), timed, lat,
              peakRssMb());
  return run;
}

}  // namespace

RunResult runCsanLocked(const Args& args) {
  const LockedPlan plan = planCsanLocked(args);
  const cssame::driver::RunOptions opts = lockedOptions();
  std::vector<std::string> warmRequests;
  for (std::size_t j = 0; j < plan.warm.size(); ++j)
    warmRequests.push_back(csanRequest(static_cast<std::int64_t>(j),
                                       plan.warm[j].source, true));
  std::vector<RunOutput> coldOut(plan.cold.size());
  MixedRun run = runMixed(
      plan.ops, warmRequests, plan.warmup.size(),
      [&](std::size_t i) {
        (void)cssame::driver::runSource(plan.warmup[i].source, kFileName,
                                        opts);
      },
      [&](std::size_t i) {
        coldOut[i] =
            cssame::driver::runSource(plan.cold[i].source, kFileName, opts);
      });
  RunResult& r = run.result;

  std::string why;
  for (std::size_t i = 0; i < plan.cold.size(); ++i)
    if (!checkLockedVerdict(plan.cold[i], coldOut[i].err, why))
      r.fail("csan_locked cold", why);
  std::vector<RunOutput> standalone;
  for (const LockedProgram& p : plan.warm) {
    standalone.push_back(
        cssame::driver::runSource(p.source, kFileName, opts));
    if (!checkLockedVerdict(p, standalone.back().err, why))
      r.fail("csan_locked warm input", why);
  }
  for (std::size_t k = 0; k < run.warmResponses.size(); ++k) {
    std::string tier;
    bool ok = checkCsanResponse(run.warmResponses[k],
                                standalone[run.warmInput[k]], why, &tier);
    if (ok && tier != "memory") {
      ok = false;
      why = "warm op answered from tier '" + tier + "'";
    }
    if (!ok) r.fail("csan_locked warm", why);
  }
  return run.result;
}

RunResult runFixRacy(const Args& args) {
  const RacyPlan plan = planFixRacy(args);
  std::vector<std::string> warmRequests;
  for (std::size_t j = 0; j < plan.warm.size(); ++j)
    warmRequests.push_back(
        fixRequest(static_cast<std::int64_t>(j), plan.warm[j].source));
  std::vector<cssame::repair::RepairResult> coldOut(plan.cold.size());
  MixedRun run = runMixed(
      plan.ops, warmRequests, plan.warmup.size(),
      [&](std::size_t i) {
        (void)cssame::repair::repairSource(plan.warmup[i].source,
                                           cssame::repair::FixTarget::All);
      },
      [&](std::size_t i) {
        coldOut[i] = cssame::repair::repairSource(
            plan.cold[i].source, cssame::repair::FixTarget::All);
      });
  RunResult& r = run.result;

  std::string why;
  for (std::size_t i = 0; i < plan.cold.size(); ++i)
    if (!checkRepair(plan.cold[i].source,
                     coldOut[i].status == cssame::repair::RepairStatus::Fixed,
                     coldOut[i].patchedSource, why))
      r.fail("fix_racy cold", why);
  for (std::size_t j = 0; j < plan.warm.size(); ++j) {
    cssame::Expected<svc::Json> ref = svc::parseJson(run.references[j]);
    const svc::Json& result = ref ? ref->get("result") : svc::Json();
    if (!checkRepair(plan.warm[j].source,
                     result.getString("status", "") == "fixed",
                     result.getString("patchedSource", ""), why))
      r.fail("fix_racy warm input", why);
  }
  for (std::size_t k = 0; k < run.warmResponses.size(); ++k) {
    bool ok = checkFixResponse(run.warmResponses[k],
                               run.references[run.warmInput[k]], why);
    if (ok) {
      cssame::Expected<svc::Json> env = svc::parseJson(run.warmResponses[k]);
      if (env->getString("cached", "") != "memory") {
        ok = false;
        why = "warm op not answered from the memory tier";
      }
    }
    if (!ok) r.fail("fix_racy warm", why);
  }
  return run.result;
}

RunResult runServiceMix(const Args& args) {
  const ServicePlan plan = planServiceMix(args);
  // One payload per source: request i sends requestFor[stream[i]].
  std::vector<std::string> requestFor;
  for (std::size_t src = 0; src < plan.sources.size(); ++src)
    requestFor.push_back(
        csanRequest(static_cast<std::int64_t>(src), plan.sources[src], false));
  const std::vector<std::size_t>& requests = plan.stream;
  const std::string path = socketPath("service_mix");

  std::vector<double> setups;
  std::unique_ptr<SocketServer> daemon;
  std::vector<cssame::support::FdStream> conns;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    conns.clear();
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<SocketServer>(serviceMixServerOptions(), path);
    for (std::size_t c = 0; c < kServiceClients; ++c)
      conns.push_back(daemon->connect());
    for (std::size_t k = 0; k < plan.warmup.size(); ++k)
      (void)roundTrip(conns[k % kServiceClients],
                      csanRequest(-1, plan.warmup[k], false));
    setups.push_back(seconds(t0));
  }

  // Closed loop: each client sends its next request when the previous
  // reply arrives. Client c owns requests c, c + clients, ... Repeated
  // requests carry the same id, so their replies are byte-identical per
  // tier; each client keeps one copy of every distinct reply.
  struct Client {
    std::unordered_map<std::string, std::size_t> index;
    std::vector<const std::string*> distinct;
  };
  std::vector<Client> clientState(kServiceClients);
  std::vector<std::size_t> replyOf(requests.size());
  std::vector<double> latency(requests.size());
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kServiceClients; ++c)
    clients.emplace_back([&, c] {
      Client& me = clientState[c];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = c; i < requests.size(); i += kServiceClients) {
        const Clock::time_point t0 = Clock::now();
        std::string reply = roundTrip(conns[c], requestFor[requests[i]]);
        latency[i] = msSince(t0);
        const auto [it, added] =
            me.index.try_emplace(std::move(reply), me.distinct.size());
        if (added) me.distinct.push_back(&it->first);
        replyOf[i] = it->second;
      }
    });
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  const double timed = seconds(start);
  const double rss = peakRssMb();
  conns.clear();
  daemon.reset();

  RunResult r;
  r.attempted = requests.size();
  std::vector<RunOutput> standalone(plan.sources.size());
  std::vector<bool> computed(plan.sources.size(), false);
  // Each client's distinct replies are checked once.
  struct Verdict {
    bool ok = false;
    std::string tier, why;
  };
  std::vector<std::vector<std::optional<Verdict>>> verdicts;
  for (const Client& client : clientState)
    verdicts.emplace_back(client.distinct.size());
  Latencies lat;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t src = plan.stream[i];
    if (!computed[src]) {
      standalone[src] = cssame::driver::runSource(plan.sources[src],
                                                  kFileName, serviceOptions());
      computed[src] = true;
    }
    const std::size_t c = i % kServiceClients;
    std::optional<Verdict>& v = verdicts[c][replyOf[i]];
    if (!v) {
      v.emplace();
      v->ok = checkCsanResponse(*clientState[c].distinct[replyOf[i]],
                                standalone[src], v->why, &v->tier);
    }
    if (!v->ok) r.fail("service_mix", v->why);
    if (v->tier == "memory") lat.warm.push_back(latency[i]);
    if (v->tier == "miss") lat.cold.push_back(latency[i]);
  }
  addEndToEnd(r, median(setups), requests.size(), timed, lat, rss);
  return r;
}

}  // namespace perfbench
