#include "src/interp/interp.h"

#include <random>

#include "src/interp/machine.h"

namespace cssame::interp {

RunResult run(const ir::Program& program, InterpOptions opts) {
  const MachineLayout layout(program, opts.model);
  Machine machine(layout);
  std::mt19937_64 rng(opts.seed);
  RunResult result;
  // Lock-hold accounting lives here, not in the machine: per thread, the
  // locks it holds in acquisition order.
  std::vector<std::vector<SymbolId>> held;
  std::vector<Machine::Action> ready;
  while (true) {
    if (result.steps >= opts.maxSteps) {
      result.budgetExceeded = support::BudgetKind::Steps;
      break;
    }
    if (!machine.anyAlive()) {
      result.completed = true;
      break;
    }
    if (machine.threadCount() > opts.maxThreads) {
      result.budgetExceeded = support::BudgetKind::Threads;
      break;
    }
    // The memory cap is checked every 256 steps.
    if ((result.steps & 0xff) == 0 &&
        machine.approxBytes() > opts.maxMemoryBytes) {
      result.budgetExceeded = support::BudgetKind::Memory;
      break;
    }
    // Under SC the ready actions are the ready threads' program steps,
    // so the RNG draws — and thus every seeded schedule — are those of
    // the pre-TSO interpreter.
    ready.clear();
    machine.readyActions(ready);
    if (ready.empty()) {
      result.deadlocked = true;
      break;
    }
    const Machine::Action pick =
        ready[std::uniform_int_distribution<std::size_t>(
            0, ready.size() - 1)(rng)];
    ++result.steps;
    if (pick.flush) {
      machine.perform(pick);
      continue;
    }
    // What the step does to locks, read off the pre-step state: a
    // blocked acquire resumes holding its lock; a Lock on a free lock
    // acquires it; an Unlock by the holder releases it.
    const std::size_t ti = pick.thread;
    SymbolId acquire, release;
    bool contended = false;
    if (machine.statusOf(ti) == Machine::Status::WaitLock) {
      acquire = machine.waitSymOf(ti);
      contended = true;
    } else if (const ir::Stmt* s = machine.pendingStmt(ti)) {
      if (s->kind == ir::StmtKind::Lock &&
          machine.lockHolderOf(s->sync) == Machine::kNoThread)
        acquire = s->sync;
      else if (s->kind == ir::StmtKind::Unlock &&
               machine.lockHolderOf(s->sync) == ti)
        release = s->sync;
    }
    machine.perform(pick);
    if (held.size() < machine.threadCount()) held.resize(machine.threadCount());
    if (acquire.valid()) {
      held[ti].push_back(acquire);
      LockStats& ls = result.lockStats[acquire];
      ++ls.acquisitions;
      if (contended) ++ls.contendedAcquires;
    }
    if (release.valid()) std::erase(held[ti], release);
    for (SymbolId l : held[ti]) ++result.lockStats[l].holdSteps;
  }
  const std::span<const long long> out = machine.output();
  result.output.assign(out.begin(), out.end());
  result.lockError = machine.lockError();
  result.assertFailed = machine.assertFailed();
  result.ptrError = machine.ptrError();
  return result;
}

std::vector<RunResult> runManySeeds(const ir::Program& program,
                                    std::uint64_t seeds,
                                    std::uint64_t maxSteps) {
  std::vector<RunResult> out;
  out.reserve(seeds);
  for (std::uint64_t s = 1; s <= seeds; ++s)
    out.push_back(run(program, InterpOptions{s, maxSteps}));
  return out;
}

}  // namespace cssame::interp
