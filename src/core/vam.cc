#include "core/vam.hh"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace cdp
{

std::string
VamConfig::label() const
{
    return std::to_string(compareBits) + "." + std::to_string(filterBits) +
           "." + std::to_string(alignBits) + "." + std::to_string(scanStep);
}

Vam::Vam(const VamConfig &cfg) : cfg(cfg)
{
    if (cfg.compareBits == 0 || cfg.compareBits > 31)
        throw std::invalid_argument("Vam: compareBits must be in [1,31]");
    if (cfg.filterBits > 32 - cfg.compareBits) // no unsigned wrap
        throw std::invalid_argument("Vam: compare+filter bits exceed 32");
    if (cfg.alignBits > 4)
        throw std::invalid_argument("Vam: alignBits must be <= 4");
    if (cfg.scanStep == 0 || cfg.scanStep > lineBytes - wordBytes)
        throw std::invalid_argument("Vam: bad scanStep");

    alignMask = (1u << cfg.alignBits) - 1;
    compareShift = 32 - cfg.compareBits;
    compareMax = (1u << cfg.compareBits) - 1;
    filterShift = 32 - cfg.compareBits - cfg.filterBits;
    filterMask = (1u << cfg.filterBits) - 1;
}

VamVerdict
Vam::classify(std::uint32_t word, Addr trigger_ea) const
{
    if (word & alignMask)
        return VamVerdict::Misaligned;

    const std::uint32_t word_top = word >> compareShift;
    const std::uint32_t ea_top =
        static_cast<std::uint32_t>(trigger_ea) >> compareShift;

    if (word_top != ea_top)
        return VamVerdict::CompareMismatch;

    if (word_top == 0) {
        // All-zeros region: small positive values would "match" any
        // low effective address. Demand a non-zero bit among the
        // filter bits; zero filter bits means never predict here.
        const std::uint32_t filt = (word >> filterShift) & filterMask;
        if (filt == 0)
            return VamVerdict::FilteredZero;
    } else if (word_top == compareMax) {
        // All-ones region: small negative values. Demand a non-one
        // bit among the filter bits.
        const std::uint32_t filt = (word >> filterShift) & filterMask;
        if (filt == filterMask)
            return VamVerdict::FilteredOne;
    }

    return VamVerdict::Candidate;
}

VamHits
Vam::scanLine(const std::uint8_t *line, Addr trigger_ea) const
{
    static_assert(lineBytes - wordBytes < 64,
                  "every word offset of a line needs a mask bit");

    // classify() without branches. With filterBits == 0 both region
    // tests reject, as classify() does.
    const std::uint32_t ea_top =
        static_cast<std::uint32_t>(trigger_ea) >> compareShift;
    std::uint64_t mask = 0;
    for (unsigned off = 0; off + wordBytes <= lineBytes;
         off += cfg.scanStep) {
        std::uint32_t word;
        std::memcpy(&word, line + off, wordBytes);
        const std::uint32_t top = word >> compareShift;
        const std::uint32_t filt = (word >> filterShift) & filterMask;
        const bool reject = ((top == 0) & (filt == 0)) |
                            ((top == compareMax) & (filt == filterMask));
        const bool cand =
            ((word & alignMask) == 0) & (top == ea_top) & !reject;
        mask |= static_cast<std::uint64_t>(cand) << off;
    }

    // Offsets ascend with bit position, so lowest-first is scan order.
    VamHits out;
    for (; mask != 0; mask &= mask - 1) {
        std::uint32_t word;
        std::memcpy(&word, line + std::countr_zero(mask), wordBytes);
        out.push_back(static_cast<Addr>(word));
    }
    return out;
}

} // namespace cdp
