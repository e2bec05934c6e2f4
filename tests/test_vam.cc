/** @file
 * Unit and property tests for the Virtual Address Matching predictor
 * — the paper's pointer-recognition heuristic (Section 3.3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "core/vam.hh"

using namespace cdp;

namespace
{

/** The paper's chosen configuration: 8.4.1.2. */
VamConfig
paperConfig()
{
    return VamConfig{8, 4, 1, 2};
}

/**
 * The differential check behind the VamProperty scan tests: scanLine
 * must return exactly the words classify() accepts at each stepped
 * offset — same candidates, same values, same order.
 */
void
expectScanMatchesClassify(const Vam &vam, const std::uint8_t *line, Addr ea)
{
    std::vector<Addr> expect;
    for (unsigned off = 0; off + wordBytes <= lineBytes;
         off += vam.config().scanStep) {
        std::uint32_t w;
        std::memcpy(&w, line + off, wordBytes);
        if (vam.isCandidate(w, ea))
            expect.push_back(w);
    }
    const VamHits hits = vam.scanLine(line, ea);
    EXPECT_EQ(std::vector<Addr>(hits.begin(), hits.end()), expect)
        << "config " << vam.config().label() << " ea=0x" << std::hex << ea;
}

/** A word that passes/fails specific VAM checks, for seeding lines. */
std::uint32_t
boundaryWord(const VamConfig &cfg, unsigned kind, Addr ea)
{
    const unsigned cshift = 32 - cfg.compareBits;
    const std::uint32_t topBits =
        (static_cast<std::uint32_t>(ea) >> cshift) << cshift;
    switch (kind % 8) {
      case 0: return 0;                      // all-zero region, filter 0
      case 1: return ~std::uint32_t{0};      // all-one region, filter 1s
      case 2: return topBits;                // exact EA match
      case 3: return topBits | 1;            // misaligned match
      case 4: return 1;                      // tiny positive integer
      case 5: return static_cast<std::uint32_t>(-2); // tiny negative
      case 6: return topBits | (1u << (cfg.alignBits ? cfg.alignBits : 1));
      default: return static_cast<std::uint32_t>(ea); // the EA itself
    }
}

} // namespace

TEST(VamConfig, Label)
{
    EXPECT_EQ(paperConfig().label(), "8.4.1.2");
    EXPECT_EQ((VamConfig{12, 0, 2, 4}.label()), "12.0.2.4");
}

TEST(VamConfig, Validation)
{
    EXPECT_THROW(Vam(VamConfig{0, 4, 1, 2}), std::invalid_argument);
    EXPECT_THROW(Vam(VamConfig{32, 4, 1, 2}), std::invalid_argument);
    EXPECT_THROW(Vam(VamConfig{30, 4, 1, 2}), std::invalid_argument);
    // compareBits + filterBits must not wrap past the 32-bit check.
    EXPECT_THROW(Vam(VamConfig{8, 4294967290u, 1, 2}),
                 std::invalid_argument);
    EXPECT_THROW(Vam(VamConfig{8, 4, 9, 2}), std::invalid_argument);
    EXPECT_THROW(Vam(VamConfig{8, 4, 1, 0}), std::invalid_argument);
}

TEST(Vam, HeapPointerMatchesHeapTrigger)
{
    Vam vam(paperConfig());
    // Trigger EA and candidate share the upper 8 bits (0x10).
    EXPECT_EQ(vam.classify(0x10345678 & ~1u, 0x10000008),
              VamVerdict::Candidate);
}

TEST(Vam, DifferentRegionRejected)
{
    Vam vam(paperConfig());
    EXPECT_EQ(vam.classify(0x20345678, 0x10000008),
              VamVerdict::CompareMismatch);
}

TEST(Vam, MisalignedRejected)
{
    Vam vam(paperConfig());
    EXPECT_EQ(vam.classify(0x10345679, 0x10000008),
              VamVerdict::Misaligned);
}

TEST(Vam, AlignBitsZeroAcceptsOddValues)
{
    Vam vam(VamConfig{8, 4, 0, 2});
    EXPECT_EQ(vam.classify(0x10345679, 0x10000008),
              VamVerdict::Candidate);
}

TEST(Vam, AlignBitsTwoRequiresFourByteAlignment)
{
    Vam vam(VamConfig{8, 4, 2, 4});
    EXPECT_EQ(vam.classify(0x10345678, 0x10000008),
              VamVerdict::Candidate);
    EXPECT_EQ(vam.classify(0x1034567a, 0x10000008),
              VamVerdict::Misaligned);
}

TEST(Vam, SmallIntegerFilteredInZeroRegion)
{
    Vam vam(paperConfig());
    // Trigger in the low region: upper 8 bits zero. A small value
    // (e.g. 42) has zero filter bits -> data, not address.
    EXPECT_EQ(vam.classify(42 & ~1u, 0x00001000),
              VamVerdict::FilteredZero);
}

TEST(Vam, LargeLowRegionValueAccepted)
{
    Vam vam(paperConfig());
    // Filter bits are [23:20] for 8.4; a value with a bit there is a
    // likely address even though the compare bits are all zero.
    EXPECT_EQ(vam.classify(0x00500000, 0x00001000),
              VamVerdict::Candidate);
}

TEST(Vam, SmallNegativeFilteredInOnesRegion)
{
    Vam vam(paperConfig());
    // -2 = 0xfffffffe: upper 8 all ones, filter bits all ones.
    EXPECT_EQ(vam.classify(0xfffffffe, 0xff001000),
              VamVerdict::FilteredOne);
}

TEST(Vam, StackPointerInOnesRegionAccepted)
{
    Vam vam(paperConfig());
    // 0xff4ff000: upper 8 ones, but filter nibble (0x4) not all ones.
    EXPECT_EQ(vam.classify(0xff4ff000, 0xff001000),
              VamVerdict::Candidate);
}

TEST(Vam, ZeroFilterBitsDisablePredictionInExtremeRegions)
{
    Vam vam(VamConfig{8, 0, 1, 2});
    // With zero filter bits, nothing in the all-zero region predicts
    // (the filter field is empty -> always "all zero").
    EXPECT_EQ(vam.classify(0x00500000, 0x00001000),
              VamVerdict::FilteredZero);
    EXPECT_EQ(vam.classify(0xff4ff000, 0xff001000),
              VamVerdict::FilteredOne);
    // Normal regions still predict.
    EXPECT_EQ(vam.classify(0x10345678, 0x10000008),
              VamVerdict::Candidate);
}

TEST(Vam, NullPointerNeverCandidate)
{
    for (unsigned cb : {8u, 10u, 12u}) {
        for (unsigned fb : {0u, 2u, 4u, 6u}) {
            Vam vam(VamConfig{cb, fb, 1, 2});
            EXPECT_NE(vam.classify(0, 0x00000100),
                      VamVerdict::Candidate)
                << cb << "." << fb;
        }
    }
}

TEST(Vam, MoreCompareBitsShrinkPrefetchableRange)
{
    // 0x10345678 vs trigger 0x10000008: upper 8 match, upper 12 do
    // not (0x103 vs 0x100).
    Vam vam8(VamConfig{8, 4, 1, 2});
    Vam vam12(VamConfig{12, 4, 1, 2});
    EXPECT_EQ(vam8.classify(0x10345678 & ~1u, 0x10000008),
              VamVerdict::Candidate);
    EXPECT_EQ(vam12.classify(0x10345678 & ~1u, 0x10000008),
              VamVerdict::CompareMismatch);
}

TEST(Vam, ScanLineFindsPlantedPointer)
{
    Vam vam(paperConfig());
    std::uint8_t line[lineBytes] = {};
    const std::uint32_t ptr = 0x10345678 & ~1u;
    std::memcpy(line + 8, &ptr, 4);
    const auto found = vam.scanLine(line, 0x10000008);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0], ptr);
}

TEST(Vam, ScanLineFindsMultiplePointers)
{
    Vam vam(paperConfig());
    std::uint8_t line[lineBytes] = {};
    const std::uint32_t p1 = 0x10100000, p2 = 0x10200000;
    std::memcpy(line + 0, &p1, 4);
    std::memcpy(line + 60, &p2, 4);
    const auto found = vam.scanLine(line, 0x10000008);
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0], p1);
    EXPECT_EQ(found[1], p2);
}

TEST(Vam, ScanStepFourMissesTwoByteAlignedPointer)
{
    // A pointer at offset 6 is visible to a 2-byte scan step but not
    // to a 4-byte step -- the coverage/accuracy trade of Figure 8.
    std::uint8_t line[lineBytes] = {};
    const std::uint32_t ptr = 0x10345678 & ~1u;
    std::memcpy(line + 6, &ptr, 4);
    Vam step2(VamConfig{8, 4, 1, 2});
    Vam step4(VamConfig{8, 4, 1, 4});
    EXPECT_EQ(step2.scanLine(line, 0x10000008).size(), 1u);
    EXPECT_EQ(step4.scanLine(line, 0x10000008).size(), 0u);
}

TEST(Vam, WordsPerLineMatchesScanStep)
{
    EXPECT_EQ(Vam(VamConfig{8, 4, 1, 1}).wordsPerLine(), 61u);
    EXPECT_EQ(Vam(VamConfig{8, 4, 1, 2}).wordsPerLine(), 31u);
    EXPECT_EQ(Vam(VamConfig{8, 4, 1, 4}).wordsPerLine(), 16u);
}

TEST(Vam, ScanLineOfZerosFindsNothing)
{
    Vam vam(paperConfig());
    std::uint8_t line[lineBytes] = {};
    EXPECT_TRUE(vam.scanLine(line, 0x10000008).empty());
}

/**
 * Property sweep over the Figure 7 configurations: for every
 * compare/filter combination, (a) genuine same-region heap pointers
 * are always candidates, (b) small integers never are, and (c) the
 * false-positive rate on uniform random words shrinks as compare
 * bits grow.
 */
class VamCompareFilter
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(VamCompareFilter, HeapPointersAlwaysMatch)
{
    const auto [cb, fb] = GetParam();
    Vam vam(VamConfig{cb, fb, 1, 2});
    Rng rng(17);
    const Addr heap_base = 0x10000000;
    for (int i = 0; i < 500; ++i) {
        // Pointer and trigger inside a 1-MB heap slab: upper 12 bits
        // match, so every swept compare width must accept.
        const Addr ptr =
            (heap_base + static_cast<Addr>(rng.below(1 << 20))) & ~3u;
        const Addr ea =
            heap_base + (static_cast<Addr>(rng.below(1 << 20)) & ~3u);
        EXPECT_EQ(vam.classify(ptr, ea), VamVerdict::Candidate)
            << std::hex << ptr << " vs " << ea;
    }
}

TEST_P(VamCompareFilter, SmallIntegersNeverMatch)
{
    const auto [cb, fb] = GetParam();
    Vam vam(VamConfig{cb, fb, 1, 2});
    Rng rng(18);
    for (int i = 0; i < 500; ++i) {
        // Values below 2^16 with a low-region trigger: the filter
        // bits (at [31-cb-fb, 31-cb]) are zero for every swept
        // config, so these must be rejected.
        const auto v =
            static_cast<std::uint32_t>(rng.below(1 << 16)) & ~1u;
        EXPECT_NE(vam.classify(v, 0x00001000), VamVerdict::Candidate);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig7Configs, VamCompareFilter,
    ::testing::Values(std::make_pair(8u, 0u), std::make_pair(8u, 2u),
                      std::make_pair(8u, 4u), std::make_pair(8u, 6u),
                      std::make_pair(8u, 8u), std::make_pair(9u, 0u),
                      std::make_pair(9u, 3u), std::make_pair(9u, 5u),
                      std::make_pair(10u, 0u), std::make_pair(10u, 4u),
                      std::make_pair(11u, 1u), std::make_pair(11u, 5u),
                      std::make_pair(12u, 0u), std::make_pair(12u, 4u)));

TEST(VamProperty, FalsePositiveRateShrinksWithCompareBits)
{
    Rng rng(29);
    std::vector<std::uint32_t> words(20000);
    for (auto &w : words)
        w = rng.next32();

    double prev_rate = 1.0;
    for (unsigned cb : {8u, 10u, 12u, 14u}) {
        Vam vam(VamConfig{cb, 4, 1, 2});
        unsigned fp = 0;
        for (auto w : words)
            fp += vam.isCandidate(w, 0x10000008) ? 1 : 0;
        const double rate = static_cast<double>(fp) / words.size();
        EXPECT_LE(rate, prev_rate + 1e-4);
        prev_rate = rate;
    }
    // At 14 compare bits the random match rate is ~2^-15.
    EXPECT_LT(prev_rate, 0.01);
}

TEST(VamProperty, FilterBitsTradeAccuracyForCoverageInLowRegion)
{
    // With a low-region trigger, growing the filter width accepts
    // strictly more values (relaxed requirement), never fewer.
    Rng rng(31);
    std::vector<std::uint32_t> words(20000);
    for (auto &w : words)
        w = rng.next32() >> 9; // low-region values (< 2^23)

    unsigned prev_accepted = 0;
    for (unsigned fb : {0u, 2u, 4u, 6u, 8u}) {
        Vam vam(VamConfig{8, fb, 1, 2});
        unsigned accepted = 0;
        for (auto w : words)
            accepted += vam.isCandidate(w & ~1u, 0x00001000) ? 1 : 0;
        EXPECT_GE(accepted, prev_accepted) << "filter bits " << fb;
        prev_accepted = accepted;
    }
}

TEST(VamProperty, ClassifyAgreesWithScanLine)
{
    Vam vam(paperConfig());
    Rng rng(37);
    for (int t = 0; t < 200; ++t) {
        std::uint8_t line[lineBytes];
        for (auto &b : line)
            b = static_cast<std::uint8_t>(rng.next32());
        expectScanMatchesClassify(vam, line,
                                  0x10000000 + (rng.next32() & 0xffff));
    }
}

/**
 * The full configuration lattice: every compareBits, the reachable
 * filterBits for it, every alignBits and a spread of scan steps. Half
 * the lines are noise; in the other half every aligned word carries
 * the EA's compare field, so candidates are dense at every width.
 */
TEST(VamProperty, ScanLineAgreesAcrossTheConfigLattice)
{
    Rng rng(20260809);
    std::uint8_t line[lineBytes];

    for (unsigned cb = 1; cb < 32; ++cb) {
        const unsigned maxFb = std::min(8u, 32 - cb);
        for (unsigned fb = 0; fb <= maxFb; ++fb) {
            for (unsigned ab = 0; ab <= 4; ++ab) {
                for (const unsigned step : {1u, 2u, 3u, 4u, 8u}) {
                    const Vam vam(VamConfig{cb, fb, ab, step});
                    for (unsigned t = 0; t < 2; ++t) {
                        const Addr ea = rng.next32();
                        const std::uint32_t top =
                            (ea >> (32 - cb)) << (32 - cb);
                        for (unsigned off = 0; off < lineBytes;
                             off += wordBytes) {
                            std::uint32_t w = rng.next32();
                            if (t == 1)
                                w = top | (w >> cb);
                            std::memcpy(line + off, &w, wordBytes);
                        }
                        expectScanMatchesClassify(vam, line, ea);
                    }
                }
            }
        }
    }
}

/**
 * Every word slot of the line, in turn, holds each crafted boundary
 * word (region edges, alignment edges, exact compare matches); byte
 * and half-word steps also see the words straddling two of them.
 * These are exactly the words where a predicate that is off by one
 * bit would still pass random testing.
 */
TEST(VamProperty, BoundaryWordsAgreeAtEveryLineOffset)
{
    std::uint8_t line[lineBytes];

    const VamConfig configs[] = {
        paperConfig(),
        {1, 0, 0, 1},       // minimal compare, no filter, byte scan
        {31, 1, 4, 4},      // maximal compare field
        {24, 8, 2, 2},      // wide filter field
        {16, 0, 0, 1},      // region checks degenerate (filterBits=0)
    };
    const Addr eas[] = {0x0000'0000u, 0x0000'1000u, 0x7fff'fff0u,
                        0x8000'0000u, 0xffff'ffccu, 0x1234'5678u};

    for (const VamConfig &cfg : configs) {
        const Vam vam(cfg);
        for (const Addr ea : eas) {
            // Place every boundary kind at every word offset; one
            // scan checks 16 planted words at once.
            for (unsigned kind = 0; kind < 8; ++kind) {
                for (unsigned off = 0; off + wordBytes <= lineBytes;
                     off += wordBytes) {
                    const std::uint32_t w =
                        boundaryWord(cfg, kind + off / wordBytes, ea);
                    std::memcpy(line + off, &w, wordBytes);
                }
                expectScanMatchesClassify(vam, line, ea);
            }
        }
    }
}

/**
 * Unaligned trigger EAs and stepped scans: scan steps 1 and 2 examine
 * words that straddle the 4-byte grid; no offset may be dropped or
 * double-counted.
 */
TEST(VamProperty, SteppedScansCoverEveryResidue)
{
    Rng rng(7);
    std::uint8_t line[lineBytes];
    for (const unsigned step : {1u, 2u, 4u}) {
        VamConfig cfg;
        cfg.scanStep = step;
        const Vam vam(cfg);
        for (unsigned trial = 0; trial < 200; ++trial) {
            // Half the trials: bias the line toward the EA's region
            // so candidates are dense, not vanishingly rare.
            const Addr ea = rng.next32();
            for (unsigned off = 0; off + wordBytes <= lineBytes;
                 off += wordBytes) {
                std::uint32_t w = rng.next32();
                if (trial % 2 == 0)
                    w = (w & 0x00ff'fffeu) | (ea & 0xff00'0000u);
                std::memcpy(line + off, &w, wordBytes);
            }
            expectScanMatchesClassify(vam, line, ea);
        }
    }
}
