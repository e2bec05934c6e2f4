/**
 * @file
 * The measured phase of a warmed-up simulation must not touch the
 * heap.
 *
 * Every container on the per-uop and per-miss path (MSHR file,
 * arbiter queues, recent-issue ring, scan and observe buffers, frame
 * table, event wheel) is sized at construction or keeps the capacity
 * it grew to during warm-up. This test replaces the global operator
 * new with a counting one and runs the default machine on the three
 * workloads the repository benchmark uses, failing if the measured
 * phase allocates 0.1 times per kilo-uop or more.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "check/check.hh"
#include "sim/simulator.hh"

namespace
{

std::atomic<bool> counting{false};
std::atomic<long> allocations{0};

void *
countedAlloc(std::size_t n)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace cdp;

class AllocFree : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllocFree, MeasuredPhaseDoesNotAllocate)
{
    if (CDP_CHECKS_ENABLED)
        GTEST_SKIP() << "checked builds run periodic invariant audits, "
                        "which build sorted snapshots on the heap";
    SimConfig cfg; // the default machine and run lengths
    cfg.workload = GetParam();
    Simulator sim(cfg);
    sim.warmup(cfg.warmupUops);

    allocations = 0;
    counting = true;
    const RunResult r = sim.measure(cfg.measureUops);
    counting = false;

    ASSERT_GT(r.uops, 0u);
    const double per_kuop = 1000.0 * static_cast<double>(allocations) /
                            static_cast<double>(r.uops);
    RecordProperty("allocations", std::to_string(allocations.load()));
    EXPECT_LT(per_kuop, 0.1)
        << allocations << " heap allocations over " << r.uops
        << " measured uops";
}

INSTANTIATE_TEST_SUITE_P(BenchmarkWorkloads, AllocFree,
                         ::testing::Values("proE", "verilog-gate",
                                           "specjbb-vsnet"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &ch : n) {
                                 if (ch == '-')
                                     ch = '_';
                             }
                             return n;
                         });
