/** @file Unit tests for the Simulator driver. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hh"

using namespace cdp;

namespace
{

SimConfig
smallConfig(const std::string &workload = "b2c")
{
    SimConfig c;
    c.workload = workload;
    c.warmupUops = 5'000;
    c.measureUops = 20'000;
    return c;
}

} // namespace

TEST(Simulator, RunsAndReportsBasicNumbers)
{
    Simulator sim(smallConfig());
    const RunResult r = sim.run();
    EXPECT_EQ(r.workload, "b2c");
    EXPECT_GE(r.uops, 20'000u);
    EXPECT_LE(r.uops, 20'002u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LE(r.ipc, 3.0); // bounded by issue width
}

TEST(Simulator, MptuMetric)
{
    RunResult r;
    r.uops = 1000;
    r.mem.l2DemandMisses = 5;
    EXPECT_DOUBLE_EQ(r.mptu(), 5.0);
    r.uops = 0;
    EXPECT_DOUBLE_EQ(r.mptu(), 0.0);
}

TEST(Simulator, SpeedupOver)
{
    RunResult fast, slow;
    fast.ipc = 1.2;
    slow.ipc = 1.0;
    EXPECT_DOUBLE_EQ(fast.speedupOver(slow), 1.2);
    slow.ipc = 0.0;
    EXPECT_DOUBLE_EQ(fast.speedupOver(slow), 0.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const SimConfig c = smallConfig("specjbb-vsnet");
    Simulator a(c), b(c);
    const RunResult ra = a.run();
    const RunResult rb = b.run();
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.mem.l2DemandMisses, rb.mem.l2DemandMisses);
    EXPECT_EQ(ra.mem.cdpIssued, rb.mem.cdpIssued);
}

TEST(Simulator, SeedChangesTheRun)
{
    SimConfig c1 = smallConfig("specjbb-vsnet");
    SimConfig c2 = c1;
    c2.workloadSeed = 999;
    Simulator a(c1), b(c2);
    EXPECT_NE(a.run().cycles, b.run().cycles);
}

TEST(Simulator, MeasureFollowsWarmupCounters)
{
    Simulator sim(smallConfig());
    sim.warmup(5'000);
    const RunResult r = sim.measure(10'000);
    EXPECT_GE(r.uops, 10'000u);
    EXPECT_LE(r.uops, 10'002u);
    // Counter deltas, not cumulative totals.
    EXPECT_LE(r.mem.demandLoads, 10'000u);
}

TEST(Simulator, RunChunkReportsDeltas)
{
    Simulator sim(smallConfig());
    const RunResult c1 = sim.runChunk(5'000);
    const RunResult c2 = sim.runChunk(5'000);
    EXPECT_GE(c1.uops, 5'000u);
    EXPECT_GE(c2.uops, 5'000u);
    // Chunks report deltas, not cumulative totals.
    EXPECT_LE(c1.mem.demandLoads, c1.uops);
    EXPECT_LE(c2.mem.demandLoads, c2.uops);
    EXPECT_GT(c1.mem.demandLoads, 0u);
}

TEST(Simulator, CdpOffMatchesCdpOffBitForBit)
{
    // Two identical configs with cdp disabled: identical timing.
    SimConfig c = smallConfig("verilog-func");
    c.cdp.enabled = false;
    Simulator a(c), b(c);
    EXPECT_EQ(a.run().cycles, b.run().cycles);
}

TEST(Simulator, WorkloadAccessibleComponents)
{
    Simulator sim(smallConfig());
    EXPECT_EQ(std::string(sim.workload().name()), "b2c");
    EXPECT_EQ(sim.memory().l2().sizeBytes(), 1024u * 1024);
    EXPECT_EQ(sim.config().workload, "b2c");
}

TEST(Simulator, UnknownWorkloadThrows)
{
    SimConfig c = smallConfig("not-a-benchmark");
    EXPECT_THROW(Simulator{c}, std::invalid_argument);
}

TEST(Simulator, MarkovConfigurationsConstruct)
{
    SimConfig c = smallConfig();
    c.markov.enabled = true;
    c.markov.stabBytes = 128 * 1024;
    c.mem.l2Bytes = 896 * 1024;
    c.mem.l2Ways = 7;
    c.cdp.enabled = false;
    Simulator sim(c);
    const RunResult r = sim.run();
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_NE(sim.memory().markovPf(), nullptr);
}

TEST(Simulator, UnboundedKnobFailsConstructionNamingTheKey)
{
    // 4294967295 is what "-1" used to parse to before the config
    // parser rejected signs; a width or degree that large used to
    // spin the first scan or miss. The machine must refuse it up
    // front, naming the key.
    const std::vector<std::vector<std::string>> cases = {
        {"cdp.next_lines=4294967295"},
        {"cdp.next_lines=100000"},
        {"cdp.prev_lines=64"},
        {"stride.degree=4294967295"},
        {"stride.policy=nextline", "stride.degree=65"},
        {"markov.enabled=1", "markov.fanout=4294967295"},
        // Zero sizes: a zero width or buffer never issues a uop, a
        // zero stride table has no slot to index, and a zero-cycle
        // bus transfer breaks the fill schedule's tie-freedom.
        {"core.issue_width=0"},
        {"core.rob=0"},
        {"core.load_buffer=0"},
        {"stride.entries=0"},
        {"mem.bus_occupancy=0"},
    };
    for (const auto &args : cases) {
        SimConfig c = smallConfig();
        for (const std::string &a : args) {
            const auto eq = a.find('=');
            ASSERT_TRUE(c.applyOverride(a.substr(0, eq), a.substr(eq + 1)));
        }
        const std::string &bad = args.back();
        const std::string key = bad.substr(0, bad.find('='));
        try {
            Simulator sim(c);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
    // "-1" itself no longer reaches the machine: parsing refuses it,
    // again naming the key.
    for (const char *key :
         {"cdp.next_lines", "stride.degree", "markov.fanout"}) {
        SimConfig c = smallConfig();
        try {
            c.applyOverride(key, "-1");
            ADD_FAILURE() << key << "=-1 was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << e.what();
        }
    }
}
