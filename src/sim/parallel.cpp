#include "sim/parallel.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace epi::sim {

ParallelEngine::ParallelEngine(Cycles lookahead) : lookahead_(lookahead) {
  if (lookahead_ == 0) {
    throw std::invalid_argument("ParallelEngine: lookahead must be positive");
  }
}

DomainId ParallelEngine::add_domain(Domain& d) {
  if (ran_) throw std::logic_error("ParallelEngine: add_domain after run()");
  domains_.push_back(&d);
  return static_cast<DomainId>(domains_.size() - 1);
}

void ParallelEngine::send(DomainId src, DomainId dst, Cycles at,
                          std::uint64_t key, std::function<void()> deliver) {
  if (src >= domains_.size() || dst >= domains_.size()) {
    throw std::out_of_range("ParallelEngine::send: unknown domain");
  }
  if (!ran_) {
    throw std::logic_error(
        "ParallelEngine::send outside run(): route pre-run traffic through "
        "an engine event on the source domain instead");
  }
  const Cycles now = domains_[src]->engine().now();
  if (at < now + lookahead_) {
    throw std::logic_error(
        "ParallelEngine::send violates the lookahead contract: deliver@" +
        std::to_string(at) + " < now " + std::to_string(now) + " + lookahead " +
        std::to_string(lookahead_));
  }
  outbox_[dst].push_back(Msg{at, key, src, send_seq_++, std::move(deliver)});
}

void ParallelEngine::flush_inbound(DomainId dst) {
  std::vector<Msg>& box = outbox_[dst];
  if (box.empty()) return;
  // Deterministic merge: delivery time, then the caller's stable tie-break
  // key, then source domain, then send order. Injection order becomes
  // engine insertion-sequence order, so same-cycle messages fire exactly in
  // this order.
  std::sort(box.begin(), box.end(), [](const Msg& a, const Msg& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.key != b.key) return a.key < b.key;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  Engine& eng = domains_[dst]->engine();
  for (Msg& m : box) {
    eng.call_at(m.at, std::move(m.deliver));
    ++stats_.messages;
  }
  box.clear();
}

template <typename F>
void ParallelEngine::guarded(DomainId d, F&& f) {
  try {
    f();
  } catch (...) {
    if (!errors_[d]) errors_[d] = std::current_exception();
    failed_ = true;
  }
}

void ParallelEngine::run() {
  if (ran_) throw std::logic_error("ParallelEngine: run() called twice");
  ran_ = true;
  const auto k = static_cast<DomainId>(domains_.size());
  if (k == 0) return;
  outbox_.resize(k);
  errors_.assign(k, nullptr);
  stats_.lookahead = lookahead_;

  for (;;) {
    Cycles tmin = Engine::kNever;
    for (DomainId d = 0; d < k; ++d) {
      guarded(d, [&] {
        flush_inbound(d);
        tmin = std::min(tmin, domains_[d]->next_time());
      });
    }
    if (tmin == Engine::kNever || failed_) break;
    stats_.horizon = tmin;
    ++stats_.windows;
    const Cycles limit =
        tmin > Engine::kNever - lookahead_ ? Engine::kNever : tmin + lookahead_;
    for (DomainId d = 0; d < k; ++d) {
      guarded(d, [&] { domains_[d]->advance(limit); });
    }
  }

  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<std::string> stuck;
  for (Domain* d : domains_) {
    auto names = d->unfinished();
    stuck.insert(stuck.end(), std::make_move_iterator(names.begin()),
                 std::make_move_iterator(names.end()));
  }
  if (!stuck.empty()) {
    // Take the count first: argument evaluation order is unspecified, so
    // size() after the move could read an emptied vector.
    const std::size_t n = stuck.size();
    throw DeadlockError(n, std::move(stuck));
  }
}

}  // namespace epi::sim
