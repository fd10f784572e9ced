// sched::EventLog: the decision log's block storage reads back exactly the
// lines appended, as lines and as transcript text, in bounded space.

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "host/system.hpp"
#include "sched/event_log.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sched/workload.hpp"

namespace {

using epi::sched::EventLog;
using namespace epi;
constexpr std::size_t kBlock = EventLog::kBlockBytes;

std::vector<std::string> lines_of(const EventLog& log) {
  return {log.begin(), log.end()};
}

/// The transcript text of `lines`: each one followed by its '\n'.
std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string text_of(const EventLog& log) {
  std::string out;
  log.for_each_block([&](std::string_view b) { out += b; });
  return out;
}

/// The log holds its text and less than one block more.
void expect_bounded(const EventLog& log) {
  EXPECT_GE(log.held_bytes(), log.bytes());
  EXPECT_LT(log.held_bytes(), log.bytes() + kBlock);
}

TEST(EventLog, EmptyLogHasNoLinesTextOrBlocks) {
  const EventLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.bytes(), 0u);
  EXPECT_EQ(log.held_bytes(), 0u);
  EXPECT_TRUE(log.begin() == log.end());
  std::size_t blocks = 0;
  log.for_each_block([&](std::string_view) { ++blocks; });
  EXPECT_EQ(blocks, 0u);
}

TEST(EventLog, LineEndingExactlyAtABlockBoundary) {
  EventLog log;
  const std::string fills(kBlock - 1, 'a');  // its '\n' is the block's last byte
  log.append(fills);
  EXPECT_EQ(log.bytes(), kBlock);
  EXPECT_EQ(log.held_bytes(), kBlock);
  EXPECT_EQ(lines_of(log), std::vector<std::string>{fills});
  log.append("next");
  EXPECT_EQ(log.held_bytes(), 2 * kBlock);
  EXPECT_EQ(lines_of(log), (std::vector<std::string>{fills, "next"}));
  EXPECT_EQ(text_of(log), joined({fills, "next"}));
}

TEST(EventLog, NewlineStartsTheNextBlock) {
  EventLog log;
  const std::string fills(kBlock, 'b');  // the '\n' spills into block 2
  log.append(fills);
  log.append("");
  EXPECT_EQ(log.held_bytes(), 2 * kBlock);
  EXPECT_EQ(lines_of(log), (std::vector<std::string>{fills, ""}));
  EXPECT_EQ(text_of(log), joined({fills, ""}));
}

TEST(EventLog, LineLongerThanOneBlock) {
  EventLog log;
  log.append("head");
  std::string big(2 * kBlock + kBlock / 2, ' ');
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>('a' + i % 26);
  log.append(big);
  log.append("tail");
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(lines_of(log), (std::vector<std::string>{"head", big, "tail"}));
  EXPECT_EQ(text_of(log), joined({"head", big, "tail"}));
  expect_bounded(log);
}

TEST(EventLog, IterationYieldsTheAppendedLines) {
  EventLog log;
  std::vector<std::string> ref;
  // Lengths from 0 to 299 in a fixed scramble, so lines straddle blocks at
  // many different offsets.
  for (std::size_t i = 0; ref.size() < 20'000; ++i) {
    std::string line((i * 7919) % 300, 'x');
    if (!line.empty()) line.front() = static_cast<char>('A' + i % 26);
    log.append(line);
    ref.push_back(std::move(line));
  }
  EXPECT_EQ(log.size(), ref.size());
  EXPECT_GT(log.held_bytes(), 10 * kBlock);
  EXPECT_EQ(lines_of(log), ref);
  EXPECT_EQ(text_of(log), joined(ref));
}

TEST(EventLog, LineHoldingANewlineIsRejected) {
  EventLog log;
  log.append("kept");
  EXPECT_THROW(log.append("one\ntwo"), std::invalid_argument);
  EXPECT_THROW(log.append("\n"), std::invalid_argument);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(text_of(log), "kept\n");
}

TEST(EventLog, HeldBytesStayWithinOneBlockOfTheText) {
  EventLog log;
  for (std::size_t i = 0; i < 50'000; ++i) {
    std::string line = "@";
    line += std::to_string(i * 131);
    line += " head-block job=7 waited=500000";
    log.append(line);
    if (i % 997 == 0) expect_bounded(log);
  }
  expect_bounded(log);
  EXPECT_EQ(log.held_bytes() % kBlock, 0u);
}

TEST(EventLog, MovedOutLogKeepsItsText) {
  EventLog log;
  log.append("a");
  log.append("b");
  const EventLog moved = std::move(log);
  EXPECT_EQ(lines_of(moved), (std::vector<std::string>{"a", "b"}));
}

// transcript() appends the log block by block; it must equal the line-by-line
// join it replaced, on a serve whose log spans many blocks.
TEST(EventLog, TranscriptMatchesTheLineByLineJoin) {
  host::System sys;
  sched::Scheduler sc(sys);
  sched::TrafficConfig tc;
  tc.jobs = 300;
  tc.seed = 42;
  tc.mean_interarrival = 12'000;
  for (auto& spec : sched::generate(tc)) sc.submit(std::move(spec));
  sc.run();
  ASSERT_GT(sc.event_log().held_bytes(), 4 * kBlock);

  std::vector<std::string> lines(sc.event_log().begin(), sc.event_log().end());
  for (const auto& r : sc.fault_log()) lines.push_back(fault::to_line(r));
  EXPECT_EQ(sched::transcript(sc), sched::render_report(sc) + joined(lines));
}

}  // namespace
