/** @file Unit tests for the materialized two-level page table. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "vm/page_table.hh"

using namespace cdp;

namespace
{

struct PtFixture : ::testing::Test
{
    BackingStore store;
    FrameAllocator frames{0, 4096, /*scatter=*/false};
    PageTable pt{store, frames};
};

} // namespace

TEST_F(PtFixture, UnmappedTranslatesToNothing)
{
    EXPECT_FALSE(pt.translate(0x10000000).has_value());
}

TEST_F(PtFixture, MapThenTranslate)
{
    pt.map(0x10000000, 0x00400000);
    const auto pa = pt.translate(0x10000123);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x00400123u);
}

TEST_F(PtFixture, OffsetPreserved)
{
    pt.map(0x20000000, 0x00800000);
    EXPECT_EQ(*pt.translate(0x20000fff), 0x00800fffu);
    EXPECT_EQ(*pt.translate(0x20000000), 0x00800000u);
}

TEST_F(PtFixture, DistinctPagesIndependent)
{
    pt.map(0x10000000, 0x00400000);
    pt.map(0x10001000, 0x00900000);
    EXPECT_EQ(*pt.translate(0x10000010), 0x00400010u);
    EXPECT_EQ(*pt.translate(0x10001010), 0x00900010u);
    EXPECT_FALSE(pt.translate(0x10002000).has_value());
}

TEST_F(PtFixture, RemapReplacesFrame)
{
    pt.map(0x10000000, 0x00400000);
    pt.map(0x10000000, 0x00500000);
    EXPECT_EQ(*pt.translate(0x10000000), 0x00500000u);
}

TEST_F(PtFixture, MappedPagesCountsUniquePages)
{
    pt.map(0x10000000, 0x00400000);
    pt.map(0x10001000, 0x00500000);
    pt.map(0x10000000, 0x00600000); // remap, not a new page
    EXPECT_EQ(pt.mappedPages(), 2u);
}

TEST_F(PtFixture, TablesLiveInSimulatedMemory)
{
    // Before any map, the root frame is allocated but empty.
    EXPECT_EQ(store.read32(pt.rootAddr()), 0u);
    pt.map(0x10000000, 0x00400000);
    // After a map, the PDE for directory index 0x40 must be valid.
    const Addr pde_addr = pt.rootAddr() + ((0x10000000u >> 22) * 4);
    EXPECT_NE(store.read32(pde_addr) & 1u, 0u);
}

TEST_F(PtFixture, WalkPathForMappedVa)
{
    pt.map(0x10000000, 0x00400000);
    const WalkPath p = pt.walkPath(0x10000abc);
    EXPECT_TRUE(p.complete);
    // The PDE address must be inside the root frame.
    EXPECT_EQ(pageAlign(p.pdeAddr), pt.rootAddr());
    // The PTE must hold the mapped frame.
    EXPECT_EQ(pageAlign(store.read32(p.pteAddr)), 0x00400000u);
    EXPECT_EQ(p.framePa, std::optional<Addr>(0x00400000u));
}

TEST_F(PtFixture, WalkPathForUnmappedVaIsIncomplete)
{
    const WalkPath p = pt.walkPath(0xb0000000);
    EXPECT_FALSE(p.complete);
    EXPECT_EQ(p.pteAddr, 0u);
    EXPECT_FALSE(p.framePa.has_value());
}

TEST_F(PtFixture, WalkPathIncompleteButPteInvalidWhenSiblingMapped)
{
    // Map one page; a different page in the same 4-MB region shares
    // the PDE, so the walk is "complete" but the PTE is invalid.
    pt.map(0x10000000, 0x00400000);
    const WalkPath p = pt.walkPath(0x10005000);
    EXPECT_TRUE(p.complete);
    EXPECT_FALSE(p.framePa.has_value());
    EXPECT_FALSE(pt.translate(0x10005000).has_value());
}

TEST_F(PtFixture, SecondLevelTablesSharedWithinRegion)
{
    const auto before = frames.allocated();
    pt.map(0x10000000, 0x00400000);
    const auto after_first = frames.allocated();
    pt.map(0x10001000, 0x00500000); // same 4-MB region
    EXPECT_EQ(frames.allocated(), after_first);
    pt.map(0x20000000, 0x00600000); // new region -> new table frame
    EXPECT_EQ(frames.allocated(), after_first + 1);
    EXPECT_EQ(after_first, before + 1);
}

/** Property: many random mappings all translate correctly. */
TEST_F(PtFixture, RandomMappingsRoundTrip)
{
    Rng rng(5);
    std::vector<std::pair<Addr, Addr>> maps;
    for (int i = 0; i < 500; ++i) {
        const Addr va = pageAlign(static_cast<Addr>(rng.next32()));
        const Addr pa =
            pageAlign(static_cast<Addr>(rng.below(1u << 24)));
        pt.map(va, pa);
        maps.emplace_back(va, pa);
    }
    // Later mappings of the same VA win.
    for (auto it = maps.rbegin(); it != maps.rend(); ++it) {
        bool overwritten = false;
        for (auto jt = maps.rbegin(); jt != it; ++jt)
            overwritten |= (jt->first == it->first);
        if (!overwritten) {
            const auto got = pt.translate(it->first | 0x7);
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(*got, (it->second | 0x7));
        }
    }
}
