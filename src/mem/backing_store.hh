/**
 * @file
 * Simulated physical memory.
 *
 * The content prefetcher predicts by *reading the bytes* of filled
 * cache lines, so the workloads' data structures must genuinely exist
 * in memory: a linked-list node holds the real (virtual) address of
 * its successor, little-endian, exactly where the struct layout puts
 * it. BackingStore provides that byte-addressable physical memory,
 * allocated lazily in 4-KByte frames.
 *
 * Frames are found through a direct-indexed two-level table over the
 * 20-bit page number: a directory of leaf indices, and compact leaves
 * of frame-pool indices (4 bytes per page, 0 = never materialized).
 * A lookup is three dependent loads, no hashing, and leaves are only
 * allocated for the 64-page groups that hold a frame.
 */

#ifndef CDP_MEM_BACKING_STORE_HH
#define CDP_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/**
 * Lazily allocated, frame-granular physical memory. Reads of frames
 * that were never written return zero bytes, mirroring a zero-filled
 * fresh page.
 */
class BackingStore
{
  public:
    /** Read a single byte at physical address @p pa. */
    std::uint8_t read8(Addr pa) const;

    /** Write a single byte. */
    void write8(Addr pa, std::uint8_t v);

    /**
     * Read a little-endian 32-bit word. The word may straddle a frame
     * boundary; it is assembled byte by byte.
     */
    std::uint32_t read32(Addr pa) const;

    /** Write a little-endian 32-bit word. */
    void write32(Addr pa, std::uint32_t v);

    /**
     * Copy one cache line (lineBytes bytes) starting at the
     * line-aligned physical address containing @p pa into @p out.
     */
    void readLine(Addr pa, std::uint8_t *out) const;

    /** Write @p len bytes from @p src starting at @p pa. */
    void write(Addr pa, const std::uint8_t *src, Addr len);

    BackingStore();

    /** Number of frames that have been materialized. */
    std::size_t framesTouched() const { return pool.size(); }

    /**
     * Host pointer to the base of the frame holding @p pa,
     * materializing it zero-filled. Frames are never deallocated
     * except by loadState(), so the pointer stays valid until then —
     * callers memoizing it must reset on restore.
     */
    std::uint8_t *pageData(Addr pa) { return frameFor(pa); }

    /**
     * Host pointer to the frame holding @p pa, or nullptr if it was
     * never materialized (reads of such pages see zero bytes). Same
     * lifetime guarantee as pageData().
     */
    std::uint8_t *pageDataIfPresent(Addr pa)
    {
        return lookup(pageNumber(pa));
    }

    /** Read-only pageDataIfPresent(), for a shared (const) store. */
    const std::uint8_t *
    pageDataIfPresent(Addr pa) const
    {
        return lookup(pageNumber(pa));
    }

    /** Serialize every materialized frame in page-number order. */
    void saveState(snap::Writer &w) const;

    /** Replace all contents with the checkpointed frames. */
    void loadState(snap::Reader &r);

  private:
    using Frame = std::array<std::uint8_t, pageBytes>;

    /** log2 of the pages one leaf covers. */
    static constexpr unsigned leafBits = 6;
    static constexpr Addr leafPages = Addr{1} << leafBits;
    /** Pool index + 1 of each page's frame; 0 = not materialized. */
    using Leaf = std::array<std::uint32_t, leafPages>;

    /** Host bytes of page number @p page, or nullptr if absent. */
    std::uint8_t *lookup(Addr page) const
    {
        const std::uint32_t leaf = dir[page >> leafBits];
        if (leaf == 0)
            return nullptr;
        const std::uint32_t slot =
            leaves[leaf - 1][page & (leafPages - 1)];
        return slot == 0 ? nullptr : pool[slot - 1]->data();
    }

    /** Host bytes of the frame holding @p pa, creating it zeroed. */
    std::uint8_t *frameFor(Addr pa);

    /** Leaf index + 1 per 64-page group of the 32-bit space. */
    std::vector<std::uint32_t> dir;
    std::vector<Leaf> leaves;
    /** Materialized frames, in materialization order. */
    std::vector<std::unique_ptr<Frame>> pool;
};

} // namespace cdp

#endif // CDP_MEM_BACKING_STORE_HH
