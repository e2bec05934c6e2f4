/** @file Unit tests for the simulated heap allocator. */

#include <gtest/gtest.h>

#include "workloads/heap_allocator.hh"

using namespace cdp;

namespace
{

struct HeapFixture : ::testing::Test
{
    BackingStore store;
    FrameAllocator frames{0, 8192, true, 3};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
};

} // namespace

TEST_F(HeapFixture, FirstAllocationAtHeapBase)
{
    EXPECT_EQ(heap.alloc(16), defaultHeapBase);
}

TEST_F(HeapFixture, AllocationsShareHighOrderBits)
{
    // The property VAM exploits: every heap pointer matches the heap
    // base in its upper 8 bits.
    for (int i = 0; i < 1000; ++i) {
        const Addr va = heap.alloc(48);
        EXPECT_EQ(va >> 24, defaultHeapBase >> 24);
    }
}

TEST_F(HeapFixture, AlignmentHonored)
{
    heap.alloc(3);
    EXPECT_EQ(heap.alloc(8, 4) % 4, 0u);
    heap.alloc(5);
    EXPECT_EQ(heap.alloc(8, 8) % 8, 0u);
    heap.alloc(1);
    EXPECT_EQ(heap.alloc(64, 64) % 64, 0u);
}

TEST_F(HeapFixture, BadAlignmentRejected)
{
    EXPECT_THROW(heap.alloc(8, 3), std::invalid_argument);
    EXPECT_THROW(heap.alloc(8, 0), std::invalid_argument);
    // Wider than a page would leave unmapped pages inside the heap.
    EXPECT_THROW(heap.alloc(8, 2 * pageBytes), std::invalid_argument);
    EXPECT_EQ(heap.alloc(8, pageBytes) % pageBytes, 0u);
}

TEST_F(HeapFixture, UnalignedBaseRejected)
{
    EXPECT_THROW(HeapAllocator(store, pt, frames, defaultHeapBase + 64),
                 std::invalid_argument);
}

TEST_F(HeapFixture, EnsureMappedFillsTheGapAndRejectsBelowBase)
{
    // Mapping ahead of the bump pointer maps every page up to it, so
    // the next allocation lands on a mapped page.
    heap.ensureMapped(defaultHeapBase + 3 * pageBytes, 4);
    for (Addr page = 0; page < 4; ++page)
        EXPECT_TRUE(pt.translate(defaultHeapBase + page * pageBytes));
    const Addr va = heap.alloc(2 * pageBytes);
    heap.write32(va + pageBytes, 7);
    EXPECT_EQ(heap.read32(va + pageBytes), 7u);
    EXPECT_THROW(heap.ensureMapped(defaultHeapBase - pageBytes, 4),
                 std::invalid_argument);
}

TEST_F(HeapFixture, AllocationsDoNotOverlap)
{
    const Addr a = heap.alloc(100);
    const Addr b = heap.alloc(100);
    EXPECT_GE(b, a + 100);
}

TEST_F(HeapFixture, PagesMappedOnAllocation)
{
    const Addr va = heap.alloc(3 * pageBytes); // spans 4 pages
    for (Addr off = 0; off < 3 * pageBytes; off += pageBytes)
        EXPECT_TRUE(pt.translate(va + off).has_value());
}

TEST_F(HeapFixture, Word32RoundTripThroughTranslation)
{
    const Addr va = heap.alloc(64);
    heap.write32(va + 8, 0xcafef00du);
    EXPECT_EQ(heap.read32(va + 8), 0xcafef00du);
    // And the physical copy agrees.
    const auto pa = pt.translate(va + 8);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(store.read32(*pa), 0xcafef00du);
}

TEST_F(HeapFixture, CrossPageWord)
{
    // Force an allocation whose word straddles a page boundary.
    heap.alloc(pageBytes - 18, 2);
    const Addr va = heap.alloc(8, 2);
    ASSERT_EQ(pageOffset(va), pageBytes - 18 + (pageBytes - 18) % 2);
    const Addr cross = pageAlign(va) + pageBytes - 2;
    heap.ensureMapped(cross, 8);
    heap.write32(cross, 0x11223344u);
    EXPECT_EQ(heap.read32(cross), 0x11223344u);
}

TEST_F(HeapFixture, ByteAccessors)
{
    const Addr va = heap.alloc(4);
    heap.write8(va, 0x5a);
    EXPECT_EQ(heap.read8(va), 0x5au);
}

TEST_F(HeapFixture, UnmappedAccessThrows)
{
    EXPECT_THROW(heap.read32(0xbf000000), std::runtime_error);
    EXPECT_THROW(heap.write32(0xbf000000, 1), std::runtime_error);
}

TEST_F(HeapFixture, BytesAllocatedTracked)
{
    heap.alloc(100, 4);
    EXPECT_GE(heap.bytesAllocated(), 100u);
    EXPECT_LT(heap.bytesAllocated(), 200u);
}

TEST(HeapAlignmentNoise, FractionOfAllocationsLooselyAligned)
{
    BackingStore store;
    FrameAllocator frames{0, 8192, true, 3};
    PageTable pt{store, frames};
    HeapAllocator heap(store, pt, frames, defaultHeapBase,
                       /*align_noise=*/0.5, 1234);
    unsigned loose = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        // Odd size keeps the bump pointer unaligned so the next
        // allocation's effective alignment is observable.
        const Addr va = heap.alloc(6, 4);
        if (va % 4 != 0)
            ++loose;
    }
    // Roughly half the allocations should be 2-byte aligned only.
    EXPECT_GT(loose, n / 4u);
    EXPECT_LT(loose, 3u * n / 4u);
}

TEST(HeapAlignmentNoise, ZeroNoiseKeepsEverythingAligned)
{
    BackingStore store;
    FrameAllocator frames{0, 8192, true, 3};
    PageTable pt{store, frames};
    HeapAllocator heap(store, pt, frames, defaultHeapBase, 0.0, 1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(heap.alloc(6, 4) % 4, 0u);
}
