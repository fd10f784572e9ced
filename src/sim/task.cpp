#include "sim/task.hpp"

namespace epi::sim::detail {

RootTask root_task(Op<void> op) { co_await std::move(op); }

}  // namespace epi::sim::detail
