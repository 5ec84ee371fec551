#include "pb/rotate.h"

#include <sys/syscall.h>
#include <unistd.h>

namespace perfbench {

CpuRotator::CpuRotator(std::chrono::microseconds period)
    : tid_(static_cast<pid_t>(::syscall(SYS_gettid))) {
  CPU_ZERO(&original_);
  if (::sched_getaffinity(tid_, sizeof original_, &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  if (cpus_.size() < 2) {
    cpus_.clear();
    return;
  }
  mover_ = std::thread([this, period] { loop(period); });
}

CpuRotator::~CpuRotator() {
  if (!mover_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  mover_.join();
  (void)::sched_setaffinity(tid_, sizeof original_, &original_);
}

void CpuRotator::loop(std::chrono::microseconds period) {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t next = 0; !cv_.wait_for(lock, period, [this] { return stop_; });
       next = (next + 1) % cpus_.size()) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next], &one);
    (void)::sched_setaffinity(tid_, sizeof one, &one);
  }
}

}  // namespace perfbench
