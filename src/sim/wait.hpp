#pragma once
// Wait/notify primitives for simulation processes.
//
// WaitQueue is the condition-variable analogue: processes park on it and a
// notifier wakes them (at the current cycle). Its one user is the DMA
// channel's completion wait (dma::DmaChannel); memory watches and process
// joins park on their own records instead. The parked handles live in a
// head-indexed vector, so notify_one is O(1) amortised instead of the O(n)
// front-erase it once was.

#include <coroutine>
#include <cstddef>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace epi::sim {

class WaitQueue {
public:
  explicit WaitQueue(Engine& e) noexcept : engine_(&e) {}
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  /// Awaitable: park until the next notify.
  auto wait() noexcept {
    struct Awaiter {
      WaitQueue& q;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { q.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Wake every parked process (they resume at the current cycle, in the
  /// order they parked).
  void notify_all() {
    for (std::size_t i = head_; i < waiters_.size(); ++i) {
      engine_->schedule_in(0, waiters_[i]);
    }
    waiters_.clear();
    head_ = 0;
  }

  /// Wake the process that has been parked longest (FIFO).
  void notify_one() {
    if (head_ == waiters_.size()) return;
    engine_->schedule_in(0, waiters_[head_++]);
    if (head_ == waiters_.size()) {
      waiters_.clear();
      head_ = 0;
    }
  }

  [[nodiscard]] std::size_t waiting() const noexcept {
    return waiters_.size() - head_;
  }

private:
  Engine* engine_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::size_t head_ = 0;  // waiters_[0, head_) already woken by notify_one
};

/// Re-check `pred` every `interval` cycles until it holds. This models a
/// polling spin-loop where no event-driven wake-up is available.
template <typename Pred>
Op<void> poll_until(Engine& engine, Pred pred, Cycles interval = 4) {
  while (!pred()) co_await delay(engine, interval);
}

/// Awaitable returned by join(): parks on the process's completion record;
/// the finishing process wakes it at the completion cycle. No coroutine
/// frame and no polling -- one event per join, fired exactly on time.
struct JoinAwaiter {
  std::shared_ptr<ProcessState> st;
  [[nodiscard]] bool await_ready() const noexcept { return !st || st->done; }
  void await_suspend(std::coroutine_handle<> h) const { st->joiners.push_back(h); }
  void await_resume() const {
    if (st && st->error) std::rethrow_exception(st->error);
  }
};

/// Park until process `p` completes (event-driven: the joiner resumes at
/// `p`'s exact completion cycle). Joining an invalid Process is a no-op;
/// the process's uncaught exception, if any, rethrows here.
[[nodiscard]] inline JoinAwaiter join(Engine& /*engine*/, Process p) {
  return JoinAwaiter{p.state()};
}

}  // namespace epi::sim
