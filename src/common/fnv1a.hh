/**
 * @file
 * 64-bit FNV-1a, the one content hash of the simulator: the
 * checkpoint section checksum and the workload image hash
 * (BackingStore::contentHash) both use it.
 */

#ifndef CDP_COMMON_FNV1A_HH
#define CDP_COMMON_FNV1A_HH

#include <cstddef>
#include <cstdint>

namespace cdp
{

/** 64-bit FNV-1a, fed incrementally. */
class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    /** Mix the low @p n bytes of @p v, least significant first. */
    void
    word(std::uint64_t v, unsigned n = 8)
    {
        for (unsigned i = 0; i < n; ++i) {
            h ^= static_cast<std::uint8_t>(v >> (8 * i));
            h *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** FNV-1a of one byte buffer. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n)
{
    Fnv1a h;
    h.bytes(data, n);
    return h.value();
}

} // namespace cdp

#endif // CDP_COMMON_FNV1A_HH
