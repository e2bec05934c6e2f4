/**
 * @file
 * Simulated heap allocator.
 *
 * The VAM heuristic works because "the memory allocation used by
 * operating systems and runtime systems" hands out heap pointers that
 * share their high-order bits and are (mostly) 4-byte aligned. This
 * allocator reproduces that property: a bump allocator over a virtual
 * heap region starting at a common base, mapping pages on demand
 * through the two-level page table, with a configurable fraction of
 * 2-byte-only alignments ("not all compilers align the base address
 * of each node; this is expected from compilers optimizing for data
 * footprint", Section 4.1).
 *
 * The allocator is also the workloads' window into simulated memory:
 * read32/write32 reach the BackingStore frames behind the heap's
 * pages, so structures built here are real bytes the content
 * prefetcher later scans. Those frames are found through a
 * direct-indexed table of host page pointers over the mapped heap
 * (DESIGN.md "workloads-layer hot path"), so a heap access is one
 * indexed load, with no page-table walk and no hashing. The table is
 * filled as frames materialize, never by a read, so reads are pure
 * and a built heap can be shared read-only between threads.
 */

#ifndef CDP_WORKLOADS_HEAP_ALLOCATOR_HH
#define CDP_WORKLOADS_HEAP_ALLOCATOR_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "mem/backing_store.hh"
#include "mem/frame_allocator.hh"
#include "vm/page_table.hh"

namespace cdp
{

/** Default base of the simulated heap (upper 8 bits = 0x10). */
constexpr Addr defaultHeapBase = 0x10000000;

/**
 * Bump allocator over a demand-mapped virtual heap.
 */
class HeapAllocator
{
  public:
    /**
     * @param heap_base first heap address; must be page-aligned
     * @param align_noise fraction of allocations aligned to 2 bytes
     *        instead of the requested alignment
     */
    HeapAllocator(BackingStore &store, PageTable &page_table,
                  FrameAllocator &frames,
                  Addr heap_base = defaultHeapBase,
                  double align_noise = 0.0,
                  std::uint64_t seed = 97);

    /**
     * Allocate @p bytes aligned to @p align (a power of two, at most
     * one page); pages are mapped on first allocation. Returns the
     * virtual address.
     */
    Addr alloc(Addr bytes, Addr align = 4);

    /**
     * Map every page of [va, va+bytes) (idempotent). The heap is
     * mapped without gaps from its base: every page below the old end
     * is mapped already, and pages between it and @p va are mapped
     * too. Throws std::invalid_argument below the heap base.
     */
    void ensureMapped(Addr va, Addr bytes);

    /** Read a 32-bit little-endian word at virtual address @p va. */
    std::uint32_t
    read32(Addr va) const
    {
        if (pageOffset(va) <= pageBytes - 4) {
            if (const std::uint8_t *host = hostPage(va)) {
                std::uint32_t v;
                std::memcpy(&v, host + pageOffset(va), 4);
                return v;
            }
        }
        return readSlow(va);
    }

    /** Write a 32-bit little-endian word at virtual address @p va. */
    void
    write32(Addr va, std::uint32_t v)
    {
        if (pageOffset(va) <= pageBytes - 4) {
            if (std::uint8_t *host = hostPage(va)) {
                std::memcpy(host + pageOffset(va), &v, 4);
                return;
            }
        }
        writeSlow(va, v);
    }

    /** Read one byte. */
    std::uint8_t read8(Addr va) const;

    /** Write one byte. */
    void write8(Addr va, std::uint8_t v);

    Addr heapBase() const { return base; }
    Addr heapTop() const { return top; }
    Addr bytesAllocated() const { return top - base; }

    BackingStore &backingStore() { return store; }
    PageTable &pageTable() { return table; }
    FrameAllocator &frameAllocator() { return frames; }

  private:
    /** Host bytes of @p va's page, or nullptr if not materialized. */
    std::uint8_t *
    hostPage(Addr va) const
    {
        // Below base the subtraction wraps past every index.
        const Addr idx = (va - base) >> pageShift;
        return idx < pages.size() ? pages[idx] : nullptr;
    }

    /**
     * Host bytes of @p va's page, materializing its frame zero-filled
     * and recording it in the table.
     */
    std::uint8_t *materialize(Addr va);

    std::uint32_t readSlow(Addr va) const;
    void writeSlow(Addr va, std::uint32_t v);
    Addr translateOrThrow(Addr va) const;

    BackingStore &store;
    PageTable &table;
    FrameAllocator &frames;
    Addr base;
    Addr top;
    Addr mappedTo; //!< first unmapped heap address
    double alignNoise;
    Rng rng;

    /**
     * Direct-indexed page table of the heap, one entry per page of
     * [base, mappedTo). A page's host pointer is filled when its
     * frame materializes, on the page's first write; a
     * never-written page stays nullptr and reads as 0 without being
     * materialized. Sized only by ensureMapped(): the measured
     * phase never grows it. The pointers stay valid because the page
     * table has no unmap and the backing store never frees or moves
     * a frame.
     */
    std::vector<std::uint8_t *> pages;
};

} // namespace cdp

#endif // CDP_WORKLOADS_HEAP_ALLOCATOR_HH
