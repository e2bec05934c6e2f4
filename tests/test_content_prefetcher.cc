/** @file
 * Unit tests for the content prefetcher policy engine: chaining
 * depth, width emission, and the reinforcement predicate.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>

#include "core/content_prefetcher.hh"

using namespace cdp;

namespace
{

/** Build a line with pointers planted at the given offsets. */
std::array<std::uint8_t, lineBytes>
lineWith(std::initializer_list<std::pair<unsigned, std::uint32_t>> ptrs)
{
    std::array<std::uint8_t, lineBytes> line{};
    for (const auto &[off, v] : ptrs)
        std::memcpy(line.data() + off, &v, 4);
    return line;
}

CdpConfig
baseConfig()
{
    CdpConfig c;
    c.depthThreshold = 3;
    c.nextLines = 0;
    c.prevLines = 0;
    return c;
}

} // namespace

TEST(ContentPf, FindsCandidateAndAssignsChildDepth)
{
    ContentPrefetcher pf(baseConfig());
    const auto line = lineWith({{8, 0x10345678}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].vaddr, 0x10345678u);
    EXPECT_EQ(out[0].lineVa, lineAlign(0x10345678u));
    EXPECT_EQ(out[0].depth, 1u);
    EXPECT_FALSE(out[0].widthLine);
}

TEST(ContentPf, ChainedDepthIncrements)
{
    ContentPrefetcher pf(baseConfig());
    const auto line = lineWith({{8, 0x10345678}});
    EXPECT_EQ(pf.scanFill(line.data(), 0x10000008, 1)[0].depth, 2u);
    EXPECT_EQ(pf.scanFill(line.data(), 0x10000008, 2)[0].depth, 3u);
}

TEST(ContentPf, FillAtThresholdNotScanned)
{
    ContentPrefetcher pf(baseConfig());
    const auto line = lineWith({{8, 0x10345678}});
    EXPECT_TRUE(pf.scanFill(line.data(), 0x10000008, 3).empty());
    EXPECT_TRUE(pf.scanFill(line.data(), 0x10000008, 7).empty());
    EXPECT_EQ(pf.linesScanned(), 0u);
}

TEST(ContentPf, DisabledScansNothing)
{
    CdpConfig c = baseConfig();
    c.enabled = false;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}});
    EXPECT_TRUE(pf.scanFill(line.data(), 0x10000008, 0).empty());
}

TEST(ContentPf, NextLinesEmittedAfterCandidate)
{
    CdpConfig c = baseConfig();
    c.nextLines = 3;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);
    ASSERT_EQ(out.size(), 4u);
    const Addr base = lineAlign(0x10345678u);
    EXPECT_EQ(out[0].lineVa, base);
    EXPECT_FALSE(out[0].widthLine);
    for (unsigned n = 1; n <= 3; ++n) {
        EXPECT_EQ(out[n].lineVa, base + n * lineBytes);
        EXPECT_TRUE(out[n].widthLine);
        EXPECT_EQ(out[n].depth, 1u);
    }
}

TEST(ContentPf, PrevLinesEmitted)
{
    CdpConfig c = baseConfig();
    c.prevLines = 1;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1].lineVa, lineAlign(0x10345678u) - lineBytes);
    EXPECT_TRUE(out[1].widthLine);
}

TEST(ContentPf, DuplicateLinesSuppressedWithinScan)
{
    // Two pointers into the same line produce one line request.
    CdpConfig c = baseConfig();
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}, {16, 0x10345670}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);
    EXPECT_EQ(out.size(), 1u);
}

TEST(ContentPf, TriggerLineNeverReRequested)
{
    // A self-pointer (pointer into the line being scanned) is not
    // worth a prefetch.
    ContentPrefetcher pf(baseConfig());
    const auto line = lineWith({{8, 0x10000010}});
    EXPECT_TRUE(pf.scanFill(line.data(), 0x10000008, 0).empty());
}

TEST(ContentPf, WidthDoesNotWrapBelowZero)
{
    CdpConfig c = baseConfig();
    c.prevLines = 2;
    ContentPrefetcher pf(c);
    // Candidate in the first line of the address space: prev lines
    // would wrap; they must be suppressed.
    const auto line = lineWith({{8, 0x00500000}});
    const auto out = pf.scanFill(line.data(), 0x00500fc8, 0);
    // candidate line 0x500000 is the line at the trigger? no:
    // trigger line = 0x500fc0, candidate line = 0x500000.
    ASSERT_GE(out.size(), 1u);
    for (const auto &cand : out)
        EXPECT_LE(cand.lineVa, lineAlign(0x00500000u));
}

TEST(ContentPf, ShouldRescanRequiresReinforcementOn)
{
    CdpConfig c = baseConfig();
    c.reinforce = false;
    ContentPrefetcher pf(c);
    EXPECT_FALSE(pf.shouldRescan(0, 3));
}

TEST(ContentPf, ShouldRescanDeltaOne)
{
    CdpConfig c = baseConfig();
    c.reinforce = true;
    c.reinforceMinDelta = 1;
    ContentPrefetcher pf(c);
    EXPECT_TRUE(pf.shouldRescan(0, 1));
    EXPECT_TRUE(pf.shouldRescan(0, 3));
    EXPECT_TRUE(pf.shouldRescan(1, 2));
    EXPECT_FALSE(pf.shouldRescan(1, 1));
    EXPECT_FALSE(pf.shouldRescan(2, 1)); // deeper request, no rescan
}

TEST(ContentPf, ShouldRescanDeltaTwoHalvesRescans)
{
    // Figure 4(c): rescan only when the incoming depth is at least
    // two below the stored depth.
    CdpConfig c = baseConfig();
    c.reinforceMinDelta = 2;
    ContentPrefetcher pf(c);
    EXPECT_FALSE(pf.shouldRescan(0, 1));
    EXPECT_TRUE(pf.shouldRescan(0, 2));
    EXPECT_TRUE(pf.shouldRescan(1, 3));
    EXPECT_FALSE(pf.shouldRescan(2, 3));
}

TEST(ContentPf, StatsCountScansAndCandidates)
{
    CdpConfig c = baseConfig();
    c.nextLines = 2;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}});
    pf.scanFill(line.data(), 0x10000008, 0);
    pf.scanFill(line.data(), 0x10000008, 0, /*is_rescan=*/true);
    EXPECT_EQ(pf.linesScanned(), 2u);
    EXPECT_EQ(pf.rescanCount(), 1u);
    EXPECT_EQ(pf.candidatesFound(), 2u);
}

TEST(ContentPf, WidthLabel)
{
    CdpConfig c;
    c.prevLines = 0;
    c.nextLines = 3;
    EXPECT_EQ(c.widthLabel(), "p0.n3");
    c.prevLines = 1;
    c.nextLines = 0;
    EXPECT_EQ(c.widthLabel(), "p1.n0");
}

/** Property: across depth thresholds, scans occur iff depth is below
 *  the threshold, and emitted depths never exceed threshold. */
class ContentPfDepth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ContentPfDepth, DepthInvariants)
{
    CdpConfig c = baseConfig();
    c.depthThreshold = GetParam();
    c.nextLines = 2;
    ContentPrefetcher pf(c);
    const auto line = lineWith({{8, 0x10345678}, {24, 0x10899000}});
    for (unsigned fill_depth = 0; fill_depth < 12; ++fill_depth) {
        const auto out = pf.scanFill(line.data(), 0x10000008,
                                     fill_depth);
        if (fill_depth >= c.depthThreshold) {
            EXPECT_TRUE(out.empty());
        } else {
            EXPECT_FALSE(out.empty());
            for (const auto &cand : out) {
                EXPECT_EQ(cand.depth, fill_depth + 1);
                EXPECT_LE(cand.depth, c.depthThreshold);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ContentPfDepth,
                         ::testing::Values(1u, 2u, 3u, 5u, 9u));

/** Property: emitted line set = dedup of candidate lines plus their
 *  width neighbourhoods, minus the trigger line. */
TEST(ContentPfProperty, EmittedSetMatchesSpec)
{
    CdpConfig c = baseConfig();
    c.nextLines = 3;
    c.prevLines = 1;
    ContentPrefetcher pf(c);
    const auto line = lineWith(
        {{0, 0x10100000}, {8, 0x10100040}, {32, 0x10900000}});
    const auto out = pf.scanFill(line.data(), 0x10000008, 0);

    std::set<Addr> expect;
    for (Addr cand : {0x10100000u, 0x10100040u, 0x10900000u}) {
        const Addr base = lineAlign(cand);
        expect.insert(base - lineBytes);
        for (unsigned n = 0; n <= 3; ++n)
            expect.insert(base + n * lineBytes);
    }
    expect.erase(lineAlign(0x10000008u));

    std::set<Addr> got;
    for (const auto &cand : out)
        EXPECT_TRUE(got.insert(cand.lineVa).second)
            << "duplicate line emitted";
    EXPECT_EQ(got, expect);
}

TEST(ContentPf, WidthAboveBoundIsRejectedNamingTheKey)
{
    // Each width knob sizes the scan's candidate buffer; an unbounded
    // one (cdp.next_lines=-1 wraps to 2^32-1) used to spin a scan for
    // billions of iterations.
    const auto message = [](const CdpConfig &c) -> std::string {
        try {
            ContentPrefetcher pf(c);
        } catch (const std::invalid_argument &e) {
            return e.what();
        }
        return "";
    };
    CdpConfig c = baseConfig();
    c.nextLines = maxWidthLines + 1;
    EXPECT_NE(message(c).find("cdp.next_lines"), std::string::npos);
    c.nextLines = 0xffffffffu;
    EXPECT_NE(message(c).find("cdp.next_lines"), std::string::npos);
    c.nextLines = 0;
    c.prevLines = 100000;
    EXPECT_NE(message(c).find("cdp.prev_lines"), std::string::npos);
    c.prevLines = maxWidthLines;
    c.nextLines = maxWidthLines;
    EXPECT_EQ(message(c), "");
}

TEST(ContentPf, ReconfigureRejectsWidthAboveBoundAndKeepsConfig)
{
    ContentPrefetcher pf(baseConfig());
    CdpConfig wide = baseConfig();
    wide.nextLines = 100000;
    EXPECT_THROW(pf.reconfigure(wide), std::invalid_argument);
    EXPECT_EQ(pf.config().nextLines, 0u);
    wide.nextLines = maxWidthLines;
    pf.reconfigure(wide);
    EXPECT_EQ(pf.config().nextLines, maxWidthLines);
}

TEST(ContentPf, WidestScanOfAFullLineStaysInItsBuffer)
{
    // Every word a candidate, maximal width on both sides: the scan
    // finishes, emits each line once, and fits the sized buffer.
    CdpConfig c = baseConfig();
    c.vam.scanStep = 4;
    c.nextLines = maxWidthLines;
    c.prevLines = maxWidthLines;
    ContentPrefetcher pf(c);
    std::array<std::uint8_t, lineBytes> line{};
    for (unsigned off = 0; off < lineBytes; off += 4) {
        const std::uint32_t p = 0x10000000 + off * 0x10000;
        std::memcpy(line.data() + off, &p, 4);
    }
    const auto &out = pf.scanFill(line.data(), 0x10000008, 0);
    EXPECT_EQ(out.size(), 16u * (1 + 2 * maxWidthLines) - 1);
    EXPECT_LE(out.size(), out.capacity());
    std::set<Addr> lines;
    for (const auto &cand : out)
        EXPECT_TRUE(lines.insert(cand.lineVa).second);
}
