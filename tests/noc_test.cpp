// Unit tests for the eMesh link model and the eLink arbiter.

#include <gtest/gtest.h>

#include <map>

#include "noc/elink.hpp"
#include "noc/mesh.hpp"
#include "sim/task.hpp"

namespace {

using namespace epi;
using arch::CoreCoord;
using sim::Cycles;

class MeshTest : public ::testing::Test {
protected:
  arch::MeshDims dims{8, 8};
  arch::TimingParams timing{};
  sim::Engine engine;
  fault::Instruments none;  // neither traced nor faulted
  noc::MeshNetwork mesh{dims, timing, engine, none};
};

TEST_F(MeshTest, DirectCopyCostMatchesTableOne) {
  // 20-word (80-byte) message, distance 1: 20 * 6.67 cycles = ~133.
  const Cycles adjacent = mesh.direct_copy_cycles({0, 0}, {0, 1}, 20);
  EXPECT_NEAR(static_cast<double>(adjacent), 20 * 6.67, 1.0);
  // Distance 14 costs ~7.54 cycles/word.
  const Cycles far = mesh.direct_copy_cycles({0, 0}, {7, 7}, 20);
  EXPECT_NEAR(static_cast<double>(far), 20 * (6.67 + 13 * 0.067), 1.0);
  EXPECT_GT(far, adjacent);
}

TEST_F(MeshTest, DirectCopyDistanceEffectIsSmall) {
  // Table I's headline: "surprisingly little effect of distance" -- under
  // 15% from distance 1 to distance 14.
  const auto d1 = static_cast<double>(mesh.direct_copy_cycles({0, 0}, {0, 1}, 100));
  const auto d14 = static_cast<double>(mesh.direct_copy_cycles({0, 0}, {7, 7}, 100));
  EXPECT_LT((d14 - d1) / d1, 0.15);
}

TEST_F(MeshTest, RemoteLoadSlowerThanStore) {
  EXPECT_GT(mesh.remote_load_cycles({0, 0}, {0, 1}), timing.remote_store_issue_cycles);
  EXPECT_GT(mesh.remote_load_cycles({0, 0}, {7, 7}),
            mesh.remote_load_cycles({0, 0}, {0, 1}));
}

TEST_F(MeshTest, ReservePathLocalIsFree) {
  EXPECT_EQ(mesh.reserve_path({2, 2}, {2, 2}, 1024, 100), 100u);
}

TEST_F(MeshTest, ReservePathChargesOccupancyAndHops) {
  // 800 bytes at 8 B/cycle = 100 cycles occupancy + 1 hop * 1.5 cycles.
  const Cycles done = mesh.reserve_path({0, 0}, {0, 1}, 800, 0);
  EXPECT_EQ(done, 100u + 2u);  // 1.5 rounds to 2
}

TEST_F(MeshTest, DisjointPathsDoNotContend) {
  const Cycles a = mesh.reserve_path({0, 0}, {0, 1}, 8000, 0);
  const Cycles b = mesh.reserve_path({7, 0}, {7, 1}, 8000, 0);
  EXPECT_EQ(a, b);  // same cost, no serialisation
}

TEST_F(MeshTest, SharedLinkSerialises) {
  // Two bursts over the same directed link: the second starts after the
  // first's occupancy.
  const Cycles first = mesh.reserve_path({0, 0}, {0, 1}, 8000, 0);
  const Cycles second = mesh.reserve_path({0, 0}, {0, 1}, 8000, 0);
  EXPECT_GE(second, first + 1000 - 2);
}

TEST_F(MeshTest, OppositeDirectionsDoNotContend) {
  const Cycles a = mesh.reserve_path({0, 0}, {0, 1}, 8000, 0);
  const Cycles b = mesh.reserve_path({0, 1}, {0, 0}, 8000, 0);
  EXPECT_EQ(a, b);
}

TEST_F(MeshTest, XYRoutingSharesColumnFirstSegment) {
  // (0,0)->(1,2) routes east twice then south; (0,0)->(0,2) uses the same
  // two eastward links, so they serialise.
  const Cycles a = mesh.reserve_path({0, 0}, {1, 2}, 800, 0);
  const Cycles b = mesh.reserve_path({0, 0}, {0, 2}, 800, 0);
  EXPECT_GT(b, a - 3);  // second burst pushed behind the first
}

// ---- eLink -----------------------------------------------------------------

class ELinkTest : public ::testing::Test {
protected:
  arch::MeshDims dims{8, 8};
  arch::TimingParams timing{};
  sim::Engine engine;
  fault::Instruments none;  // neither traced nor faulted
  noc::ELink elink{dims, timing, engine, timing.elink_write_overhead,
                   trace::ElinkKind::Write, none};

  void writer(CoreCoord c, std::uint32_t bytes, unsigned blocks, Cycles* done_at = nullptr) {
    sim::spawn(
        engine, [](noc::ELink& l, sim::Engine& e, CoreCoord cc, std::uint32_t b, unsigned n,
                   Cycles* d) -> sim::Op<void> {
          for (unsigned i = 0; i < n; ++i) co_await l.txn(cc, b);
          if (d) *d = e.now();
        }(elink, engine, c, bytes, blocks, done_at));
  }
};

TEST_F(ELinkTest, SingleWriterSeesSustainedRate) {
  Cycles done = 0;
  writer({0, 7}, 2048, 100, &done);
  engine.run();
  // 100 blocks * 2 KB at 150 MB/s = 819200 cycles (+ per-txn latency).
  const double expected = 100 * 2048 * 4.0;
  EXPECT_NEAR(static_cast<double>(done), expected, expected * 0.05);
}

TEST_F(ELinkTest, AggregateThroughputCappedAtSustainedRate) {
  for (unsigned r = 0; r < 8; ++r) {
    for (unsigned c = 0; c < 8; ++c) writer({r, c}, 2048, 4);
  }
  engine.run();
  const double seconds = static_cast<double>(engine.now()) / timing.clock_hz;
  const double mbps = static_cast<double>(elink.total_bytes_served()) / seconds / 1e6;
  EXPECT_LE(mbps, 151.0);
  EXPECT_GE(mbps, 140.0);
}

TEST_F(ELinkTest, PositionDependentShares) {
  // Saturate from every core for a fixed window; nearer the exit corner
  // (row 0, max column) must win more slots.
  for (unsigned r = 0; r < 8; ++r) {
    for (unsigned c = 0; c < 8; ++c) writer({r, c}, 2048, 1000);
  }
  engine.run_until(20'000'000);
  EXPECT_GE(elink.bytes_served({0, 7}), elink.bytes_served({4, 7}));
  EXPECT_GE(elink.bytes_served({0, 7}), elink.bytes_served({0, 0}));
  EXPECT_GT(elink.bytes_served({0, 7}), 0u);
  // Starvation: the far corner gets a small fraction of the winner.
  EXPECT_LT(static_cast<double>(elink.bytes_served({7, 0})),
            0.25 * static_cast<double>(elink.bytes_served({0, 7})));
}

TEST_F(ELinkTest, FairWithinTwoEqualWriters) {
  writer({0, 7}, 2048, 500);
  writer({1, 7}, 2048, 500);
  engine.run_until(4'000'000);
  const auto a = static_cast<double>(elink.bytes_served({0, 7}));
  const auto b = static_cast<double>(elink.bytes_served({1, 7}));
  // Round-robin at the merge point: within a factor ~2 of each other even
  // though the cascade favours row 0.
  EXPECT_GT(a, 0);
  EXPECT_GT(b, 0);
  EXPECT_LT(a / b, 2.5);
}

TEST_F(ELinkTest, ReadOverheadIndependent) {
  noc::ELink rd(dims, timing, engine, timing.elink_read_overhead, trace::ElinkKind::Read,
                none);
  Cycles done = 0;
  sim::spawn(engine,
             [](noc::ELink& l, sim::Engine& e, Cycles& d) -> sim::Op<void> {
               co_await l.txn({3, 3}, 4096);
               d = e.now();
             }(rd, engine, done));
  engine.run();
  EXPECT_GE(done, 4096u * 4);
}

}  // namespace
