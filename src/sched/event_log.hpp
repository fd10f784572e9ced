#pragma once
// The scheduler's decision log as stored text.
//
// An overloaded serve logs hundreds of thousands of ~44-byte lines, and a
// heap string per line costs more than the text it holds. EventLog keeps
// the lines '\n'-terminated, back to back, in fixed 64 KiB blocks: a block
// is allocated once, filled and never moved, and a line may run on from one
// block into the next. The blocks together hold exactly the transcript
// text, so a consumer that wants the text (sched::transcript, epi_serve
// --log) copies whole blocks; one that wants lines iterates. There is no
// per-line index: nothing reads the log by line number.
//
// 64 KiB stays below glibc's default 128 KiB mmap threshold, so blocks come
// from the heap like the strings they replace and never move that
// threshold (which decides where later large allocations -- a machine's
// scratchpads -- are placed).

#include <cstddef>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace epi::sched {

class EventLog {
public:
  static constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

  /// Append `line` and its '\n'. Throws std::invalid_argument if `line`
  /// itself holds a '\n': the text would then read back as two lines.
  void append(std::string_view line);

  [[nodiscard]] bool empty() const noexcept { return lines_ == 0; }
  /// Lines appended.
  [[nodiscard]] std::size_t size() const noexcept { return lines_; }
  /// Text bytes, each line's '\n' included.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return blocks_.empty() ? 0 : (blocks_.size() - 1) * kBlockBytes + fill_;
  }
  /// Bytes of block storage held: less than bytes() + kBlockBytes.
  [[nodiscard]] std::size_t held_bytes() const noexcept {
    return blocks_.size() * kBlockBytes;
  }

  /// Call `f(std::string_view)` on each block's text in order; together
  /// the views are the whole log, '\n'-terminated lines back to back.
  template <typename F>
  void for_each_block(F&& f) const {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      f(std::string_view(blocks_[b].get(),
                         b + 1 == blocks_.size() ? fill_ : kBlockBytes));
    }
  }

  /// Walks the lines, yielding each (without its '\n') as a std::string.
  class const_iterator {
  public:
    using iterator_category = std::input_iterator_tag;
    using value_type = std::string;
    using reference = std::string;
    using pointer = void;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    [[nodiscard]] std::string operator*() const;
    const_iterator& operator++() {
      pos_ = log_->line_end(pos_) + 1;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator was = *this;
      ++*this;
      return was;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) noexcept {
      return a.pos_ == b.pos_;
    }

  private:
    friend class EventLog;
    const_iterator(const EventLog* log, std::size_t pos) : log_(log), pos_(pos) {}
    const EventLog* log_ = nullptr;
    std::size_t pos_ = 0;  // text offset of the line's first byte
  };

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, bytes()}; }

private:
  /// Text offset of the '\n' ending the line that starts at `pos`.
  [[nodiscard]] std::size_t line_end(std::size_t pos) const noexcept;

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t fill_ = 0;  // bytes used in blocks_.back()
  std::size_t lines_ = 0;
};

}  // namespace epi::sched
