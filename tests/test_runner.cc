/**
 * @file
 * Tests for the parallel experiment runner (src/runner): thread-pool
 * draining and exception transport, ordered-map determinism, the
 * SimRunner worker-count invariance contract, the `-j` flag parser,
 * and the bench-side baseline memo's run-exactly-once guarantee.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "runner/sim_runner.hh"
#include "runner/thread_pool.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

using namespace cdp;
using namespace cdp::runner;

namespace
{

/** A fast configuration for tests that run real simulations. */
SimConfig
tinyConfig(const std::string &workload)
{
    SimConfig cfg;
    cfg.workload = workload;
    cfg.warmupUops = 1000;
    cfg.measureUops = 3000;
    return cfg;
}

} // namespace

TEST(ThreadPool, DrainsEveryTaskOnWaitIdle)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.submit([&] { ++count; });
        // No waitIdle: the destructor must finish the queue itself.
    }
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, EmptyPoolConstructsAndDestructsCleanly)
{
    for (int i = 0; i < 8; ++i) {
        ThreadPool pool(3);
        pool.waitIdle(); // no tasks: must not deadlock
    }
}

TEST(ThreadPool, OversubscribedSingleWorkerCompletes)
{
    ThreadPool pool(1);
    std::atomic<int> count{0};
    for (int i = 0; i < 500; ++i)
        pool.submit([&] { ++count; });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, WaitIdleIsReusableAcrossBatches)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 5; ++batch) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { ++count; });
        pool.waitIdle();
        EXPECT_EQ(count.load(), (batch + 1) * 50);
    }
}

TEST(OrderedMap, ResultsIndexedBySubmissionNotCompletion)
{
    ThreadPool pool(4);
    // Early indices sleep longest, so completion order is roughly the
    // reverse of submission order; the result vector must not care.
    const std::size_t n = 16;
    auto out = orderedMap(pool, n, [&](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(n - i));
        return i * 10;
    });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * 10);
}

TEST(OrderedMap, RethrowsLowestIndexExceptionAfterDraining)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    try {
        orderedMap(pool, std::size_t(12), [&](std::size_t i) -> int {
            ++ran;
            if (i == 3 || i == 7)
                throw std::runtime_error("task " + std::to_string(i));
            return 0;
        });
        FAIL() << "expected orderedMap to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 3"); // lowest index wins
    }
    // The whole batch drained before the rethrow...
    EXPECT_EQ(ran.load(), 12);
    // ...and the pool is still usable afterwards.
    auto out = orderedMap(pool, std::size_t(4),
                          [](std::size_t i) { return i + 1; });
    EXPECT_EQ(out.back(), 4u);
}

TEST(SimRunner, ResultsInvariantUnderWorkerCount)
{
    std::vector<SimJob> jobs;
    for (const char *w : {"b2c", "quake", "tpcc-2", "rc3"})
        jobs.push_back({tinyConfig(w), w, SimJob::Mode::Run});

    SimRunner serial(1);
    SimRunner wide(4);
    const auto a = serial.run(jobs);
    const auto b = wide.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(a[i].workload, jobs[i].tag);
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].uops, b[i].uops);
        EXPECT_DOUBLE_EQ(a[i].ipc, b[i].ipc);
        EXPECT_EQ(a[i].mem.l2DemandMisses, b[i].mem.l2DemandMisses);
        EXPECT_EQ(a[i].mem.cdpIssued, b[i].mem.cdpIssued);
        EXPECT_EQ(a[i].mem.cdpUseful, b[i].mem.cdpUseful);
    }
}

TEST(SimRunner, TracksHarnessTelemetry)
{
    SimRunner runner(2);
    std::vector<SimJob> jobs(3, {tinyConfig("b2c"), "b2c",
                                 SimJob::Mode::Run});
    runner.run(jobs);
    const HarnessStats s = runner.stats();
    EXPECT_EQ(s.jobs, 2u);
    EXPECT_EQ(s.sims, 3u);
    EXPECT_GT(s.wallSeconds, 0.0);
    EXPECT_GT(s.simsPerSecond(), 0.0);
}

TEST(ParseJobsFlag, AcceptsAllSpellingsAndCompactsArgv)
{
    {
        char a0[] = "prog", a1[] = "-j4", a2[] = "x=1";
        char *argv[] = {a0, a1, a2};
        int argc = 3;
        EXPECT_EQ(parseJobsFlag(argc, argv), 4u);
        ASSERT_EQ(argc, 2);
        EXPECT_STREQ(argv[1], "x=1");
    }
    {
        char a0[] = "prog", a1[] = "--jobs=8";
        char *argv[] = {a0, a1};
        int argc = 2;
        EXPECT_EQ(parseJobsFlag(argc, argv), 8u);
        EXPECT_EQ(argc, 1);
    }
    {
        char a0[] = "prog", a1[] = "-j", a2[] = "2", a3[] = "y=0";
        char *argv[] = {a0, a1, a2, a3};
        int argc = 4;
        EXPECT_EQ(parseJobsFlag(argc, argv), 2u);
        ASSERT_EQ(argc, 2);
        EXPECT_STREQ(argv[1], "y=0");
    }
    {
        char a0[] = "prog", a1[] = "--jobs", a2[] = "3";
        char *argv[] = {a0, a1, a2};
        int argc = 3;
        EXPECT_EQ(parseJobsFlag(argc, argv), 3u);
        EXPECT_EQ(argc, 1);
    }
    {
        char a0[] = "prog", a1[] = "x=1";
        char *argv[] = {a0, a1};
        int argc = 2;
        EXPECT_EQ(parseJobsFlag(argc, argv), 0u); // no flag given
        EXPECT_EQ(argc, 2);
    }
}

TEST(ParseJobsFlag, RejectsMalformedValues)
{
    char a0[] = "prog", a1[] = "-j0";
    char *argv[] = {a0, a1};
    int argc = 2;
    EXPECT_THROW(parseJobsFlag(argc, argv), std::invalid_argument);

    char b0[] = "prog", b1[] = "--jobs=lots";
    char *argvb[] = {b0, b1};
    int argcb = 2;
    EXPECT_THROW(parseJobsFlag(argcb, argvb), std::invalid_argument);

    // The whole value must be a count that fits an unsigned.
    for (const char *bad : {"-j4x", "--jobs=3abc", "--jobs=99999999999",
                            "-j-2", "-j+2", "-j 2"}) {
        std::string arg = bad;
        char c0[] = "prog";
        char *argvc[] = {c0, arg.data()};
        int argcc = 2;
        EXPECT_THROW(parseJobsFlag(argcc, argvc), std::invalid_argument)
            << bad;
    }
}

TEST(BaselineMemo, ConcurrentRequestsRunBaselineExactlyOnce)
{
    // A geometry no other test uses, so the memo entry is fresh.
    SimConfig base = tinyConfig("b2c");
    base.measureUops = 3100;

    const std::uint64_t before = cdpbench::baselineComputations();

    std::vector<std::thread> threads;
    std::vector<std::uint64_t> values(8, 0);
    for (std::size_t t = 0; t < values.size(); ++t)
        threads.emplace_back([&, t] {
            values[t] =
                cdpbench::missesWithoutPrefetching(base, "b2c");
        });
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(cdpbench::baselineComputations() - before, 1u);
    for (const auto v : values)
        EXPECT_EQ(v, values.front());
}

TEST(BaselineMemo, DistinctConfigsGetDistinctEntries)
{
    SimConfig base = tinyConfig("b2c");
    base.measureUops = 3200;
    const std::uint64_t before = cdpbench::baselineComputations();
    const auto small =
        cdpbench::missesWithoutPrefetching(base, "b2c");

    SimConfig big = base;
    big.mem.l2Bytes = 4 * 1024 * 1024; // geometry is part of the key
    const auto large = cdpbench::missesWithoutPrefetching(big, "b2c");
    EXPECT_EQ(cdpbench::baselineComputations() - before, 2u);
    EXPECT_GE(small, large); // bigger L2 cannot miss more
}
