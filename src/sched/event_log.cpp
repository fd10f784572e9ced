#include "sched/event_log.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace epi::sched {

void EventLog::append(std::string_view line) {
  if (line.find('\n') != std::string_view::npos) {
    throw std::invalid_argument("EventLog::append: line holds a newline");
  }
  // The line, then its '\n', each split across blocks where one fills up.
  const auto put = [this](std::string_view s) {
    while (!s.empty()) {
      if (blocks_.empty() || fill_ == kBlockBytes) {
        blocks_.push_back(std::make_unique_for_overwrite<char[]>(kBlockBytes));
        fill_ = 0;
      }
      const std::size_t n = std::min(s.size(), kBlockBytes - fill_);
      std::memcpy(blocks_.back().get() + fill_, s.data(), n);
      fill_ += n;
      s.remove_prefix(n);
    }
  };
  put(line);
  put("\n");
  ++lines_;
}

std::size_t EventLog::line_end(std::size_t pos) const noexcept {
  for (std::size_t b = pos / kBlockBytes;; ++b) {
    const char* text = blocks_[b].get();
    const std::size_t used = b + 1 == blocks_.size() ? fill_ : kBlockBytes;
    const std::size_t from = b == pos / kBlockBytes ? pos % kBlockBytes : 0;
    if (const void* nl = std::memchr(text + from, '\n', used - from)) {
      return b * kBlockBytes + static_cast<std::size_t>(static_cast<const char*>(nl) - text);
    }
  }
}

std::string EventLog::const_iterator::operator*() const {
  const std::size_t end = log_->line_end(pos_);
  std::string line;
  line.reserve(end - pos_);
  for (std::size_t at = pos_; at < end;) {
    const std::size_t off = at % kBlockBytes;
    const std::size_t n = std::min(end - at, kBlockBytes - off);
    line.append(log_->blocks_[at / kBlockBytes].get() + off, n);
    at += n;
  }
  return line;
}

}  // namespace epi::sched
