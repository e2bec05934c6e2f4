#include "workloads/heap_allocator.hh"

#include <cstring>
#include <stdexcept>

namespace cdp
{

HeapAllocator::HeapAllocator(BackingStore &store, PageTable &page_table,
                             FrameAllocator &frames, Addr heap_base,
                             double align_noise, std::uint64_t seed)
    : store(store), table(page_table), frames(frames), base(heap_base),
      top(heap_base), mappedTo(heap_base), alignNoise(align_noise),
      rng(seed)
{
    if (pageOffset(heap_base) != 0)
        throw std::invalid_argument("HeapAllocator: heap base not "
                                    "page-aligned");
}

Addr
HeapAllocator::alloc(Addr bytes, Addr align)
{
    if (bytes == 0)
        bytes = 1;
    if (align == 0 || (align & (align - 1)) != 0 || align > pageBytes)
        throw std::invalid_argument("HeapAllocator: bad alignment");

    Addr effective_align = align;
    if (alignNoise > 0.0 && align > 2 && rng.chance(alignNoise))
        effective_align = 2;

    top = (top + effective_align - 1) & ~(effective_align - 1);
    const Addr va = top;
    top += bytes;
    ensureMapped(va, bytes);
    return va;
}

void
HeapAllocator::ensureMapped(Addr va, Addr bytes)
{
    if (va < base)
        throw std::invalid_argument("HeapAllocator: ensureMapped below "
                                    "the heap base");
    // alloc() aligns to at most a page, so an allocation starts at or
    // below mappedTo and the pages it needs are exactly those from
    // mappedTo up: the ones below are mapped already.
    const Addr last = pageAlign(va + bytes - 1);
    if (last < mappedTo)
        return;
    for (Addr page = mappedTo; page <= last; page += pageBytes)
        table.map(page, frames.allocate());
    mappedTo = last + pageBytes;
    pages.resize((mappedTo - base) >> pageShift);
}

Addr
HeapAllocator::translateOrThrow(Addr va) const
{
    const auto pa = table.translate(va);
    if (!pa)
        throw std::runtime_error("HeapAllocator: unmapped VA");
    return *pa;
}

std::uint8_t *
HeapAllocator::materialize(Addr va)
{
    std::uint8_t *host = store.pageData(translateOrThrow(va));
    const Addr idx = (va - base) >> pageShift;
    if (idx < pages.size())
        pages[idx] = host;
    return host;
}

std::uint32_t
HeapAllocator::readSlow(Addr va) const
{
    // A page outside the table (never written, or not the heap's)
    // and a word straddling two pages: assembled byte by byte, and an
    // absent frame reads as zero and stays absent.
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(read8(va + i)) << (8 * i);
    return v;
}

void
HeapAllocator::writeSlow(Addr va, std::uint32_t v)
{
    if (pageOffset(va) <= pageBytes - 4) {
        std::memcpy(materialize(va) + pageOffset(va), &v, 4);
        return;
    }
    for (unsigned i = 0; i < 4; ++i)
        write8(va + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint8_t
HeapAllocator::read8(Addr va) const
{
    return store.read8(translateOrThrow(va));
}

void
HeapAllocator::write8(Addr va, std::uint8_t v)
{
    materialize(va)[pageOffset(va)] = v;
}

} // namespace cdp
