/** @file Unit tests for SimConfig parsing and defaults. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/config.hh"

using namespace cdp;

TEST(Config, DefaultsMatchTable1)
{
    const SimConfig c;
    EXPECT_EQ(c.core.issueWidth, 3u);
    EXPECT_EQ(c.core.retireWidth, 3u);
    EXPECT_EQ(c.core.robEntries, 128u);
    EXPECT_EQ(c.core.loadBuffer, 48u);
    EXPECT_EQ(c.core.storeBuffer, 32u);
    EXPECT_EQ(c.core.mispredictPenalty, 28u);
    EXPECT_EQ(c.core.bpEntries, 16384u);
    EXPECT_EQ(c.mem.l1Bytes, 32u * 1024);
    EXPECT_EQ(c.mem.l1Ways, 8u);
    EXPECT_EQ(c.mem.l1Latency, 3u);
    EXPECT_EQ(c.mem.l2Bytes, 1024u * 1024);
    EXPECT_EQ(c.mem.l2Ways, 8u);
    EXPECT_EQ(c.mem.l2Latency, 16u);
    EXPECT_EQ(c.mem.dtlbEntries, 64u);
    EXPECT_EQ(c.mem.dtlbWays, 4u);
    EXPECT_EQ(c.mem.busLatency, 460u);
    EXPECT_EQ(c.mem.busQueueSize, 32u);
    EXPECT_EQ(c.mem.l2QueueSize, 128u);
}

TEST(Config, DefaultsMatchBestCdpConfig)
{
    const SimConfig c;
    EXPECT_TRUE(c.cdp.enabled);
    EXPECT_EQ(c.cdp.vam.compareBits, 8u);
    EXPECT_EQ(c.cdp.vam.filterBits, 4u);
    EXPECT_EQ(c.cdp.vam.alignBits, 1u);
    EXPECT_EQ(c.cdp.vam.scanStep, 2u);
    EXPECT_EQ(c.cdp.depthThreshold, 3u);
    EXPECT_EQ(c.cdp.nextLines, 3u);
    EXPECT_EQ(c.cdp.prevLines, 0u);
    EXPECT_TRUE(c.cdp.reinforce);
    EXPECT_TRUE(c.stride.enabled); // baseline always has stride
    EXPECT_FALSE(c.markov.enabled);
}

TEST(Config, OverridesApply)
{
    SimConfig c;
    EXPECT_TRUE(c.applyOverride("cdp.depth", "5"));
    EXPECT_TRUE(c.applyOverride("cdp.next_lines", "1"));
    EXPECT_TRUE(c.applyOverride("cdp.reinforce", "false"));
    EXPECT_TRUE(c.applyOverride("mem.l2_kb", "512"));
    EXPECT_TRUE(c.applyOverride("markov.enabled", "true"));
    EXPECT_TRUE(c.applyOverride("markov.stab_kb", "128"));
    EXPECT_TRUE(c.applyOverride("workload", "tpcc-2"));
    EXPECT_EQ(c.cdp.depthThreshold, 5u);
    EXPECT_EQ(c.cdp.nextLines, 1u);
    EXPECT_FALSE(c.cdp.reinforce);
    EXPECT_EQ(c.mem.l2Bytes, 512u * 1024);
    EXPECT_TRUE(c.markov.enabled);
    EXPECT_EQ(c.markov.stabBytes, 128u * 1024);
    EXPECT_EQ(c.workload, "tpcc-2");
}

TEST(Config, UnknownKeyReturnsFalse)
{
    SimConfig c;
    EXPECT_FALSE(c.applyOverride("no.such.key", "1"));
}

TEST(Config, BoolParsingVariants)
{
    SimConfig c;
    for (const char *t : {"1", "true", "on", "yes"}) {
        c.cdp.enabled = false;
        c.applyOverride("cdp.enabled", t);
        EXPECT_TRUE(c.cdp.enabled) << t;
    }
    for (const char *f : {"0", "false", "off", "no"}) {
        c.cdp.enabled = true;
        c.applyOverride("cdp.enabled", f);
        EXPECT_FALSE(c.cdp.enabled) << f;
    }
}

namespace
{

/** The what() of the invalid_argument @p fn throws ("" if none). */
template <typename Fn>
std::string
rejection(Fn fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

std::string
overrideError(const std::string &key, const std::string &value)
{
    return rejection([&] {
        SimConfig c;
        c.applyOverride(key, value);
    });
}

} // namespace

TEST(ConfigStrict, TrailingGarbageIsRejected)
{
    // Used to run as depth 5.
    const std::string err = overrideError("cdp.depth", "5x");
    EXPECT_NE(err.find("cdp.depth=5x"), std::string::npos) << err;
}

TEST(ConfigStrict, NonNumberErrorNamesKeyAndValue)
{
    // Used to report only "stoull".
    const std::string err = overrideError("cdp.depth", "abc");
    EXPECT_NE(err.find("cdp.depth=abc"), std::string::npos) << err;
    EXPECT_NE(err.find("unsigned integer"), std::string::npos) << err;
}

TEST(ConfigStrict, SignIsRejected)
{
    // seed=-1 used to wrap to 2^64-1.
    EXPECT_NE(overrideError("seed", "-1"), "");
    EXPECT_NE(overrideError("seed", "+1"), "");
    EXPECT_NE(overrideError("cdp.depth", " 5"), "");
    EXPECT_NE(overrideError("adaptive.low_accuracy", "-0.1"), "");
}

TEST(ConfigStrict, UnknownBoolSpellingIsRejected)
{
    // Used to turn CDP off silently.
    const std::string err = overrideError("cdp.enabled", "ture");
    EXPECT_NE(err.find("cdp.enabled=ture"), std::string::npos) << err;
}

TEST(ConfigStrict, ValueMustFitItsField)
{
    // core.rob is an unsigned: 2^32 used to truncate to 0.
    const std::string err = overrideError("core.rob", "4294967296");
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    SimConfig c;
    EXPECT_TRUE(c.applyOverride("core.rob", "4294967295"));
    EXPECT_EQ(c.core.robEntries, 4294967295u);
    // The KB keys store bytes: the product must fit as well.
    EXPECT_NE(overrideError("mem.l2_kb", "18014398509481984"), "");
    EXPECT_NE(overrideError("seed", "18446744073709551616"), "");
    EXPECT_NE(overrideError("cdp.depth", ""), "");
}

TEST(ConfigStrict, DoublesParseWhole)
{
    EXPECT_NE(overrideError("scale", "1.5x"), "");
    EXPECT_NE(overrideError("scale", "nan"), "");
    EXPECT_NE(overrideError("adaptive.high_accuracy", "0.5 "), "");
    SimConfig c;
    EXPECT_TRUE(c.applyOverride("adaptive.high_accuracy", "0.5"));
    EXPECT_DOUBLE_EQ(c.adaptive.highAccuracy, 0.5);
}

TEST(ConfigStrict, ParseArgsReportsTheBadArgument)
{
    SimConfig c;
    const char *argv[] = {"prog", "cdp.depth=abc"};
    const std::string err = rejection(
        [&] { c.parseArgs(2, const_cast<char **>(argv)); });
    EXPECT_NE(err.find("cdp.depth=abc"), std::string::npos) << err;
}

TEST(Config, ParseArgsAcceptsKeyValueVector)
{
    SimConfig c;
    const char *argv[] = {"prog", "cdp.depth=9", "seed=42"};
    c.parseArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(c.cdp.depthThreshold, 9u);
    EXPECT_EQ(c.workloadSeed, 42u);
}

TEST(Config, ParseArgsRejectsMalformed)
{
    SimConfig c;
    const char *bad1[] = {"prog", "cdp.depth"};
    EXPECT_THROW(c.parseArgs(2, const_cast<char **>(bad1)),
                 std::invalid_argument);
    const char *bad2[] = {"prog", "bogus.key=1"};
    EXPECT_THROW(c.parseArgs(2, const_cast<char **>(bad2)),
                 std::invalid_argument);
}

TEST(Config, ScaleRunLength)
{
    SimConfig c;
    c.warmupUops = 1000;
    c.measureUops = 2000;
    c.scaleRunLength(2.5);
    EXPECT_EQ(c.warmupUops, 2500u);
    EXPECT_EQ(c.measureUops, 5000u);
    EXPECT_THROW(c.scaleRunLength(0.0), std::invalid_argument);
}

TEST(Config, ScaleNeverReachesZero)
{
    SimConfig c;
    c.warmupUops = 10;
    c.measureUops = 10;
    c.scaleRunLength(0.001);
    EXPECT_GE(c.warmupUops, 1u);
    EXPECT_GE(c.measureUops, 1u);
}

TEST(Config, SummaryMentionsKeyKnobs)
{
    SimConfig c;
    const std::string s = c.summary();
    EXPECT_NE(s.find("8.4.1.2"), std::string::npos);
    EXPECT_NE(s.find("p0.n3"), std::string::npos);
    EXPECT_NE(s.find("ROB 128"), std::string::npos);
}
