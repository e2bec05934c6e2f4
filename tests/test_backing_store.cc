/** @file Unit tests for the simulated physical memory. */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "common/fnv1a.hh"
#include "common/rng.hh"
#include "mem/backing_store.hh"

using namespace cdp;

TEST(BackingStore, UnwrittenMemoryReadsZero)
{
    BackingStore m;
    EXPECT_EQ(m.read8(0x1234), 0u);
    EXPECT_EQ(m.read32(0xdeadbe00), 0u);
}

TEST(BackingStore, ByteRoundTrip)
{
    BackingStore m;
    m.write8(0x42, 0xab);
    EXPECT_EQ(m.read8(0x42), 0xabu);
    EXPECT_EQ(m.read8(0x43), 0u);
}

TEST(BackingStore, Word32RoundTrip)
{
    BackingStore m;
    m.write32(0x1000, 0x12345678u);
    EXPECT_EQ(m.read32(0x1000), 0x12345678u);
}

TEST(BackingStore, Word32IsLittleEndian)
{
    BackingStore m;
    m.write32(0x2000, 0x11223344u);
    EXPECT_EQ(m.read8(0x2000), 0x44u);
    EXPECT_EQ(m.read8(0x2001), 0x33u);
    EXPECT_EQ(m.read8(0x2002), 0x22u);
    EXPECT_EQ(m.read8(0x2003), 0x11u);
}

TEST(BackingStore, Word32AcrossFrameBoundary)
{
    BackingStore m;
    const Addr pa = pageBytes - 2; // straddles frames 0 and 1
    m.write32(pa, 0xa1b2c3d4u);
    EXPECT_EQ(m.read32(pa), 0xa1b2c3d4u);
    EXPECT_EQ(m.read8(pageBytes - 1), 0xc3u);
    EXPECT_EQ(m.read8(pageBytes), 0xb2u);
}

TEST(BackingStore, ReadLineReturnsAlignedLine)
{
    BackingStore m;
    for (Addr i = 0; i < lineBytes; ++i)
        m.write8(0x3040 + i, static_cast<std::uint8_t>(i));
    std::uint8_t buf[lineBytes];
    m.readLine(0x3050, buf); // mid-line address -> same line
    for (Addr i = 0; i < lineBytes; ++i)
        EXPECT_EQ(buf[i], i) << "offset " << i;
}

TEST(BackingStore, ReadLineOfUntouchedMemoryIsZero)
{
    BackingStore m;
    std::uint8_t buf[lineBytes];
    m.readLine(0x9990000, buf);
    for (Addr i = 0; i < lineBytes; ++i)
        EXPECT_EQ(buf[i], 0u);
}

TEST(BackingStore, BulkWrite)
{
    BackingStore m;
    std::uint8_t data[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    m.write(0x500, data, 10);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(m.read8(0x500 + i), data[i]);
}

TEST(BackingStore, FramesMaterializeLazily)
{
    BackingStore m;
    EXPECT_EQ(m.framesTouched(), 0u);
    (void)m.read32(0x1000); // reads do not materialize
    EXPECT_EQ(m.framesTouched(), 0u);
    m.write8(0x1000, 1);
    EXPECT_EQ(m.framesTouched(), 1u);
    m.write8(0x1001, 2); // same frame
    EXPECT_EQ(m.framesTouched(), 1u);
    m.write8(0x10000, 3); // new frame
    EXPECT_EQ(m.framesTouched(), 2u);
}

TEST(BackingStore, TopPageOfTheAddressSpace)
{
    // Page 0xfffff sits in the last leaf of the frame table; a word
    // in its last four bytes is the highest addressable word.
    BackingStore m;
    m.write32(0xfffffffc, 0xcafef00du);
    EXPECT_EQ(m.read32(0xfffffffc), 0xcafef00du);
    EXPECT_EQ(m.read8(0xffffffff), 0xcau);
    EXPECT_EQ(m.framesTouched(), 1u);
    std::uint8_t buf[lineBytes];
    m.readLine(0xffffffc5, buf);
    EXPECT_EQ(buf[lineBytes - 1], 0xcau);
    EXPECT_EQ(m.read32(0xffffeffc), 0u); // the page below stays absent
    EXPECT_EQ(m.pageDataIfPresent(0xffffe000), nullptr);
}

TEST(BackingStore, PageDataIfPresentDoesNotMaterialize)
{
    BackingStore m;
    EXPECT_EQ(m.pageDataIfPresent(0x7000), nullptr);
    EXPECT_EQ(m.framesTouched(), 0u);
    // A neighbour in the same table leaf does not make it present.
    m.write8(0x8000, 5);
    EXPECT_EQ(m.pageDataIfPresent(0x7000), nullptr);
    EXPECT_EQ(m.framesTouched(), 1u);
    std::uint8_t *host = m.pageDataIfPresent(0x8123);
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(host[0], 5u);
    EXPECT_EQ(m.pageData(0x8fff), host); // stable, same frame
    std::uint8_t *made = m.pageData(0x7000); // materializes
    EXPECT_EQ(m.pageDataIfPresent(0x7abc), made);
    EXPECT_EQ(m.framesTouched(), 2u);
}

TEST(BackingStore, FramesTouchedCountsDistinctPagesAcrossLeaves)
{
    BackingStore m;
    // Pages spread over several 64-page leaves, each written twice.
    const Addr pages[] = {0, 1, 63, 64, 4095, 0x12345, 0xfffff};
    for (int pass = 0; pass < 2; ++pass) {
        for (const Addr p : pages)
            m.write8((p << pageShift) + 7, static_cast<std::uint8_t>(p));
    }
    EXPECT_EQ(m.framesTouched(), std::size(pages));
    for (const Addr p : pages)
        EXPECT_EQ(m.read8((p << pageShift) + 7),
                  static_cast<std::uint8_t>(p));
}

TEST(BackingStore, ContentHashIsPagesInOrderThenFrameCount)
{
    // The hash covers each frame in ascending page order, prefixed by
    // its u32 page number, then the u64 frame count.
    BackingStore m;
    m.write32((3 << pageShift) + 0x10, 0xa0000003u);
    std::uint8_t frame[pageBytes] = {};
    const std::uint32_t v = 0xa0000003u;
    std::memcpy(frame + 0x10, &v, 4);
    Fnv1a want;
    want.word(3, 4);
    want.bytes(frame, pageBytes);
    want.word(1);
    EXPECT_EQ(m.contentHash(), want.value());

    Fnv1a none;
    none.word(0);
    EXPECT_EQ(BackingStore().contentHash(), none.value());
}

TEST(BackingStore, ContentHashSeesEveryByteAndFrameButNotWriteOrder)
{
    const Addr pages[] = {0xfffff, 3, 0x400, 2, 0x3ff};
    BackingStore a;
    for (const Addr p : pages)
        a.write32((p << pageShift) + 0x10, 0xa0000000u | p);
    BackingStore b; // the same frames, materialized in reverse order
    for (auto p = std::rbegin(pages); p != std::rend(pages); ++p)
        b.write32((*p << pageShift) + 0x10, 0xa0000000u | *p);
    const std::uint64_t h = a.contentHash();
    EXPECT_EQ(b.contentHash(), h);

    // One byte anywhere in a frame moves it; writing it back restores
    // it: the hash is of the contents, not of the write history.
    const Addr pa = (Addr{0x400} << pageShift) + pageBytes - 1;
    b.write8(pa, 1);
    EXPECT_NE(b.contentHash(), h);
    b.write8(pa, 0);
    EXPECT_EQ(b.contentHash(), h);

    // So does one more frame, even a zero-filled one.
    (void)b.pageData(0x7000);
    EXPECT_NE(b.contentHash(), h);
}

/** Property: random word writes read back exactly. */
TEST(BackingStoreProperty, RandomWordRoundTrips)
{
    BackingStore m;
    Rng rng(123);
    // Use distinct addresses so reads are unambiguous.
    std::vector<std::pair<Addr, std::uint32_t>> writes;
    for (int i = 0; i < 2000; ++i) {
        const Addr pa = (static_cast<Addr>(i) * 52u + 4) & ~3u;
        const std::uint32_t v = rng.next32();
        m.write32(pa, v);
        writes.emplace_back(pa, v);
    }
    for (const auto &[pa, v] : writes)
        EXPECT_EQ(m.read32(pa), v);
}

/** Property: line reads agree with word reads at every offset. */
TEST(BackingStoreProperty, LineReadMatchesWordReads)
{
    BackingStore m;
    Rng rng(321);
    for (int t = 0; t < 50; ++t) {
        const Addr base =
            lineAlign(static_cast<Addr>(rng.below(1 << 20)));
        for (Addr off = 0; off < lineBytes; off += 4)
            m.write32(base + off, rng.next32());
        std::uint8_t buf[lineBytes];
        m.readLine(base, buf);
        for (Addr off = 0; off < lineBytes; off += 4) {
            std::uint32_t w;
            std::memcpy(&w, buf + off, 4);
            EXPECT_EQ(w, m.read32(base + off));
        }
    }
}
