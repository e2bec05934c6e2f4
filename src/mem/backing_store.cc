#include "mem/backing_store.hh"

#include <cstring>

#include "common/fnv1a.hh"

namespace cdp
{

BackingStore::BackingStore()
    : dir(std::size_t{1} << (32 - pageShift - leafBits), 0)
{
}

std::uint8_t *
BackingStore::frameFor(Addr pa)
{
    const Addr page = pageNumber(pa);
    if (std::uint8_t *host = lookup(page))
        return host;
    std::uint32_t &leaf = dir[page >> leafBits];
    if (leaf == 0) {
        leaves.emplace_back();
        leaves.back().fill(0);
        leaf = static_cast<std::uint32_t>(leaves.size());
    }
    pool.push_back(std::make_unique<Frame>());
    pool.back()->fill(0);
    leaves[leaf - 1][page & (leafPages - 1)] =
        static_cast<std::uint32_t>(pool.size());
    return pool.back()->data();
}

std::uint8_t
BackingStore::read8(Addr pa) const
{
    const std::uint8_t *f = lookup(pageNumber(pa));
    return f ? f[pageOffset(pa)] : 0;
}

void
BackingStore::write8(Addr pa, std::uint8_t v)
{
    frameFor(pa)[pageOffset(pa)] = v;
}

std::uint32_t
BackingStore::read32(Addr pa) const
{
    // Fast path: word fully inside one frame.
    if (pageOffset(pa) <= pageBytes - 4) {
        const std::uint8_t *f = lookup(pageNumber(pa));
        if (!f)
            return 0;
        std::uint32_t v;
        std::memcpy(&v, f + pageOffset(pa), 4);
        return v; // host is little-endian; simulated ISA is too
    }
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(read8(pa + i)) << (8 * i);
    return v;
}

void
BackingStore::write32(Addr pa, std::uint32_t v)
{
    if (pageOffset(pa) <= pageBytes - 4) {
        std::memcpy(frameFor(pa) + pageOffset(pa), &v, 4);
        return;
    }
    for (unsigned i = 0; i < 4; ++i)
        write8(pa + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
BackingStore::readLine(Addr pa, std::uint8_t *out) const
{
    const Addr base = lineAlign(pa);
    const std::uint8_t *f = lookup(pageNumber(base));
    if (f) {
        std::memcpy(out, f + pageOffset(base), lineBytes);
    } else {
        std::memset(out, 0, lineBytes);
    }
}

void
BackingStore::write(Addr pa, const std::uint8_t *src, Addr len)
{
    for (Addr i = 0; i < len; ++i)
        write8(pa + i, src[i]);
}

std::uint64_t
BackingStore::contentHash() const
{
    // Walking the table in index order yields ascending page numbers,
    // so the hash depends only on the frames, not on write order.
    Fnv1a h;
    for (Addr d = 0; d < dir.size(); ++d) {
        if (dir[d] == 0)
            continue;
        const Leaf &leaf = leaves[dir[d] - 1];
        for (Addr i = 0; i < leafPages; ++i) {
            if (leaf[i] == 0)
                continue;
            h.word((d << leafBits) | i, 4);
            h.bytes(pool[leaf[i] - 1]->data(), pageBytes);
        }
    }
    h.word(pool.size());
    return h.value();
}

} // namespace cdp
