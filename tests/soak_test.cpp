// Serving in bounded memory: the host memory a long serve keeps must grow
// with the jobs served by no more than a fixed amount per job.
//
// Serves the same overload stream (abl_sched's overload point, the
// serve_overload benchmark's rate) at N and 4N jobs, each in a fresh
// epi_serve process, and compares the two processes' max RSS from wait4().
// Fresh processes keep the allocator's retained heap from one run out of
// the other's figure.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <string>
#include <vector>

extern char** environ;

namespace {

constexpr unsigned kJobs = 2600;  // N; the second run serves 4N

/// Max RSS growth per extra job served, in KB. A Release build (GCC 12,
/// glibc, x86-64) measured 10.5 KB/job, 8.2 of it the decision log's text;
/// the bound leaves room for allocator and libc differences. The same
/// epi_serve with the log kept as one heap string per line measured
/// 18.2 KB/job, and fails it.
constexpr double kMaxKbPerJob = 12.0;

/// Max RSS in KB of one `epi_serve --jobs=<jobs>` overload serve, or -1.
[[maybe_unused]] long serve_max_rss_kb(unsigned jobs) {
  std::vector<std::string> args = {EPI_SERVE_PATH, "--jobs=" + std::to_string(jobs),
                                   "--seed=1", "--interarrival=12000"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t quiet;
  posix_spawn_file_actions_init(&quiet);
  posix_spawn_file_actions_addopen(&quiet, 1, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int err = posix_spawn(&pid, argv[0], &quiet, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&quiet);
  if (err != 0) return -1;
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1;
  }
  return ru.ru_maxrss;
}

TEST(ServingFootprint, OverloadMaxRssGrowsBoundedPerJob) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's allocator and shadow memory decide resident pages, "
                  "not the simulator's own allocations";
#else
  const long small = serve_max_rss_kb(kJobs);
  const long large = serve_max_rss_kb(4 * kJobs);
  ASSERT_GT(small, 0) << "epi_serve --jobs=" << kJobs << " failed";
  ASSERT_GT(large, 0) << "epi_serve --jobs=" << 4 * kJobs << " failed";
  const double kb_per_job = static_cast<double>(large - small) / (3 * kJobs);
  EXPECT_LE(kb_per_job, kMaxKbPerJob)
      << "max RSS " << small << " KB at " << kJobs << " jobs, " << large
      << " KB at " << 4 * kJobs << " jobs";
#endif
}

}  // namespace
