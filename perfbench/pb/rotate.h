// Spreads a single-threaded op over every CPU the process may use.
//
// On a shared VM each vCPU runs at its own speed: a neighbour busy on the
// same host core slows this code by up to half for seconds at a time,
// while other vCPUs stay fast. A thread the scheduler leaves on one vCPU
// takes that vCPU's speed for a whole run, so the run's median lands in
// one regime or the other. Moving the thread to the next CPU every few
// milliseconds makes each op's time an average over all vCPUs instead.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/types.h>

namespace perfbench {

class CpuRotator {
 public:
  /// Starts moving the calling thread to the next allowed CPU every
  /// `period`. Does nothing when the process may use only one CPU.
  explicit CpuRotator(std::chrono::microseconds period);
  /// Stops, waits for the mover thread and restores the original affinity.
  ~CpuRotator();
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  void loop(std::chrono::microseconds period);

  pid_t tid_;
  cpu_set_t original_;
  std::vector<int> cpus_;  ///< visited in turn; empty when not moved
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread mover_;
};

}  // namespace perfbench
