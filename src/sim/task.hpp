#pragma once
// Coroutine task types for simulation processes.
//
// Op<T> is a lazy coroutine: creating one does nothing until it is awaited
// (from another Op) or spawned as a root process on an Engine. Completion
// resumes the awaiting coroutine via symmetric transfer, so arbitrarily deep
// call chains cost no stack and no extra events.
//
// spawn() turns an Op<void> into a detached root process: one frame, which
// also holds the process's entry in the Engine's live list (its name, for
// deadlock reports). There is no handle. A spawner that needs completion or
// errors records them itself, as the eSDK host reads a core's status word
// (host::Workgroup counts retired kernels, dma::DmaChannel keeps its chain's
// error). A root must catch everything: an exception that escapes one is a
// simulator bug and terminates.
//
// Every promise type derives from PooledFrame, which routes frame storage
// through FramePool: simulation kernels churn through millions of
// short-lived frames (per-word stores, barrier legs, DMA chunk loops), and a
// size-class free list beats the global allocator by a wide margin on that
// pattern.

#include <coroutine>
#include <exception>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"

namespace epi::sim {

template <typename T>
class Op;

namespace detail {

/// Frame storage comes from the pool; both deallocation signatures are
/// provided so whichever form the compiler selects finds the pool.
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p) noexcept { FramePool::deallocate(p); }
  static void operator delete(void* p, std::size_t) noexcept {
    FramePool::deallocate(p);
  }
};

struct OpPromiseBase : PooledFrame {
  std::coroutine_handle<> continuation{};
  std::exception_ptr error{};

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) const noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

template <typename T>
struct OpPromise : OpPromiseBase {
  // Deferred-construction storage avoids requiring T be default-constructible.
  alignas(T) unsigned char storage[sizeof(T)];
  bool has_value = false;

  Op<T> get_return_object() noexcept;
  template <typename U>
  void return_value(U&& v) {
    ::new (static_cast<void*>(storage)) T(std::forward<U>(v));
    has_value = true;
  }
  T& value() noexcept { return *std::launder(reinterpret_cast<T*>(storage)); }
  ~OpPromise() {
    if (has_value) value().~T();
  }
};

template <>
struct OpPromise<void> : OpPromiseBase {
  Op<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

/// A lazily-started simulation sub-operation returning T.
template <typename T = void>
class [[nodiscard]] Op {
public:
  using promise_type = detail::OpPromise<T>;

  Op() noexcept = default;
  explicit Op(std::coroutine_handle<promise_type> h) noexcept : h_(h) {}
  Op(Op&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Op& operator=(Op&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;
  ~Op() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return h_ != nullptr; }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) const noexcept {
        h.promise().continuation = cont;
        return h;  // start the child; symmetric transfer
      }
      T await_resume() const {
        if (h.promise().error) std::rethrow_exception(h.promise().error);
        if constexpr (!std::is_void_v<T>) return std::move(h.promise().value());
      }
    };
    return Awaiter{h_};
  }

  /// Release ownership of the coroutine handle (used by spawn()).
  std::coroutine_handle<promise_type> release() noexcept { return std::exchange(h_, nullptr); }

private:
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_{};
};

namespace detail {
template <typename T>
Op<T> OpPromise<T>::get_return_object() noexcept {
  return Op<T>(std::coroutine_handle<OpPromise<T>>::from_promise(*this));
}
inline Op<void> OpPromise<void>::get_return_object() noexcept {
  return Op<void>(std::coroutine_handle<OpPromise<void>>::from_promise(*this));
}
}  // namespace detail

namespace detail {

struct RootTask {
  // The frame is the process's live record: spawn() links it into the
  // engine's list and the destructor (the process's end) unlinks it.
  struct promise_type : PooledFrame, ProcessRecord {
    Engine* engine = nullptr;

    RootTask get_return_object() noexcept {
      return RootTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    // Not suspending at the final point destroys the frame automatically.
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept { std::terminate(); }
    ~promise_type() { engine->unlink_process(*this); }
  };
  std::coroutine_handle<promise_type> h;
};

/// The root frame around `op`. Defined out of line (task.cpp): GCC 12 emits
/// an inline coroutine's destroy part into COMDAT sections that one
/// translation unit can discard while another still references it.
RootTask root_task(Op<void> op);

}  // namespace detail

/// Launch `op` as a detached process, scheduled to start `start_delay`
/// cycles from now. `name` is a human-readable label ("core (2,3)",
/// "dma0@(0,1)", "host") surfaced by DeadlockError when the process hangs.
inline void spawn(Engine& engine, Op<void> op, Cycles start_delay = 0,
                  std::string name = {}) {
  detail::RootTask t = detail::root_task(std::move(op));
  auto& p = t.h.promise();
  p.engine = &engine;
  p.name = std::move(name);
  engine.link_process(p);
  engine.schedule_in(start_delay, t.h);
}

}  // namespace epi::sim
