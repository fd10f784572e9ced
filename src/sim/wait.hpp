#pragma once
// Wait/notify primitive for simulation processes.
//
// WaitQueue is the condition-variable analogue: processes park on it and a
// notifier wakes them all (at the current cycle). Its one user is the DMA
// channel's completion wait (dma::DmaChannel); memory watches park on their
// own index instead.

#include <coroutine>
#include <vector>

#include "sim/engine.hpp"

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
    for (const auto h : waiters_) engine_->schedule_in(0, h);
    waiters_.clear();
  }

private:
  Engine* engine_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace epi::sim
