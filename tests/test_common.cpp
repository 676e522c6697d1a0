// Tests for the common substrate: thread pool, table printer, CLI parsing,
// timers.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cli.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace mcdc {
namespace {

// --- ThreadPool -----------------------------------------------------------------

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesWorkAcrossThreads) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(1, 101, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, SizeReflectsConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> counter{0};
  global_pool().parallel_for(0, 50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ExceptionsSurfaceThroughFutures) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

// --- TablePrinter ----------------------------------------------------------------

TEST(TablePrinter, RendersAlignedTable) {
  TablePrinter table({"Name", "Value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream out;
  table.print(out);
  const std::string rendered = out.str();
  EXPECT_NE(rendered.find("| Name "), std::string::npos);
  EXPECT_NE(rendered.find("| alpha "), std::string::npos);
  EXPECT_NE(rendered.find("22222"), std::string::npos);
  // Rules above header, below header, and at the bottom.
  std::size_t rules = 0;
  for (std::size_t pos = rendered.find('+'); pos != std::string::npos;
       pos = rendered.find("\n+", pos + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 3u);
}

TEST(TablePrinter, RowArityMismatchThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(TablePrinter, EmptyHeaderThrows) {
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(TablePrinter, MeanStdCellFormat) {
  EXPECT_EQ(TablePrinter::mean_std_cell(0.372, 0.0), "0.372+/-0.00");
  EXPECT_EQ(TablePrinter::mean_std_cell(0.906, 0.014), "0.906+/-0.01");
  EXPECT_EQ(TablePrinter::num_cell(1.23456, 2), "1.23");
}

// --- Cli --------------------------------------------------------------------------

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--runs", "50", "--paper", "--alpha=0.05",
                        "positional"};
  const Cli cli(6, argv);
  EXPECT_TRUE(cli.has("paper"));
  EXPECT_FALSE(cli.has("absent"));
  EXPECT_EQ(cli.get_int("runs", 1), 50);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.1), 0.05);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
  EXPECT_EQ(cli.program(), "prog");
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  EXPECT_EQ(cli.get("sweep", "all"), "all");
  EXPECT_EQ(cli.get_int("runs", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("eta", 0.03), 0.03);
}

TEST(Cli, RejectsValuesThatAreNotWhollyANumber) {
  const char* argv[] = {"prog", "--k", "2x", "--n", "two", "--tol", "0,15",
                        "--huge", "1e999", "--bare"};
  const Cli cli(10, argv);
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("tol", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("huge", 0.0), std::invalid_argument);
  try {
    cli.get_int("k", 0);
    FAIL() << "--k 2x parsed";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("--k"), std::string::npos) << what;
    EXPECT_NE(what.find("'2x'"), std::string::npos) << what;
  }
  // A bare flag keeps its fallback.
  EXPECT_EQ(cli.get_int("bare", 7), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("bare", 0.5), 0.5);
}

TEST(Cli, CountsLieBetweenOneAndIntMax) {
  const char* argv[] = {"prog", "--runs", "0", "--k", "-2", "--n", "1",
                        "--repeats", "4294967296", "--max", "2147483647"};
  const Cli cli(11, argv);
  EXPECT_EQ(cli.get_int("runs", 5), 0);  // get_int has no bounds
  EXPECT_EQ(cli.get_int("repeats", 5), 4294967296L);
  EXPECT_EQ(cli.get_count("n", 5), 1);
  EXPECT_EQ(cli.get_count("max", 5), 2147483647);
  EXPECT_EQ(cli.get_count("absent", 5), 5);
  EXPECT_THROW(cli.get_count("k", 5), std::invalid_argument);
  try {
    cli.get_count("runs", 5);
    FAIL() << "--runs 0 passed as a count";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "--runs must be at least 1");
  }
  try {
    cli.get_count("repeats", 5);
    FAIL() << "--repeats 4294967296 passed as a count";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "--repeats must be at most 2147483647");
  }
}

TEST(Cli, BareFlagDoesNotSwallowNextFlag) {
  const char* argv[] = {"prog", "--verbose", "--runs", "3"};
  const Cli cli(4, argv);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("verbose", "x"), "");
  EXPECT_EQ(cli.get_int("runs", 0), 3);
}

// --- Timer ------------------------------------------------------------------------

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = t.elapsed_seconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);
  EXPECT_NEAR(t.elapsed_ms(), elapsed * 1000.0, 100.0);
}

TEST(Timer, ResetRestartsClock) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  t.reset();
  EXPECT_LT(t.elapsed_seconds(), 0.010);
}

TEST(Timer, TimeSecondsHelper) {
  const double elapsed = time_seconds(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); });
  EXPECT_GE(elapsed, 0.008);
}

}  // namespace
}  // namespace mcdc
