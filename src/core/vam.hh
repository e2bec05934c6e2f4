/**
 * @file
 * Virtual Address Matching (VAM) — the paper's pointer-recognition
 * heuristic (Section 3.3, Figures 2 and 5).
 *
 * An address-sized word in a freshly filled cache line is deemed a
 * *candidate virtual address* when:
 *
 *  1. its low @p alignBits bits are zero (compilers place pointers on
 *     2/4-byte boundaries);
 *  2. its upper @p compareBits match the upper bits of the effective
 *     address that triggered the fill (heap pointers share a base);
 *  3. in the two degenerate regions — upper bits all zeros or all
 *     ones — the next @p filterBits of the word must contain a
 *     non-zero (resp. non-one) bit, so that small positive or
 *     negative integers are not misread as stack/low-heap pointers.
 *
 * The line is scanned at @p scanStep-byte granularity; the paper's
 * chosen configuration is 8 compare bits, 4 filter bits, 1 align bit,
 * 2-byte scan step (written "8.4.1.2").
 */

#ifndef CDP_CORE_VAM_HH
#define CDP_CORE_VAM_HH

#include <cstdint>
#include <string>

#include "common/fixed_vec.hh"
#include "common/types.hh"

namespace cdp
{

/** Tunable knobs of the VAM predictor (Figures 7 and 8). */
struct VamConfig
{
    unsigned compareBits = 8; //!< upper bits matched against the EA
    unsigned filterBits = 4;  //!< bits inspected in the all-0/all-1 regions
    unsigned alignBits = 1;   //!< low bits that must be zero
    unsigned scanStep = 2;    //!< bytes stepped between examined words

    /** "8.4.1.2"-style label used in the paper's figures. */
    std::string label() const;
};

/** Why a word was accepted or rejected (tests and tuning stats). */
enum class VamVerdict
{
    Candidate,       //!< passed every check
    Misaligned,      //!< low align bits non-zero
    CompareMismatch, //!< upper bits differ from the trigger EA
    FilteredZero,    //!< all-zero region, filter bits all zero
    FilteredOne,     //!< all-one region, filter bits all one
};

/** Most words one line scan can examine (a 1-byte scan step). */
constexpr unsigned maxScanWords = lineBytes - wordBytes + 1;

/** The candidate pointer values of one line scan, in scan order. */
using VamHits = FixedVec<Addr, maxScanWords>;

/**
 * The VAM predictor. Stateless by construction — the entire paper's
 * premise — so the class holds only its configuration.
 */
class Vam
{
  public:
    explicit Vam(const VamConfig &cfg = VamConfig{});

    /**
     * Full classification of one word against a trigger EA. The
     * reference for scanLine: the tests check that a scan returns
     * exactly the stepped words this accepts.
     */
    VamVerdict classify(std::uint32_t word, Addr trigger_ea) const;

    /** Shorthand: classify(...) == Candidate. */
    bool isCandidate(std::uint32_t word, Addr trigger_ea) const
    {
        return classify(word, trigger_ea) == VamVerdict::Candidate;
    }

    /**
     * Scan one cache line for candidate virtual addresses.
     * @param line lineBytes bytes of fill data
     * @param trigger_ea virtual effective address of the request that
     *        caused the fill
     * @return the candidate pointer values found, in scan order
     *         (held inline, so a scan never allocates)
     *
     * Evaluates classify()'s predicate at every stepped offset
     * without branches into a bitmap of byte offsets, then emits the
     * set bits lowest first, which is scan order.
     */
    VamHits scanLine(const std::uint8_t *line, Addr trigger_ea) const;

    const VamConfig &config() const { return cfg; }

    /** Words examined per line at the configured scan step. */
    unsigned wordsPerLine() const
    {
        return (lineBytes - wordBytes) / cfg.scanStep + 1;
    }

  private:
    VamConfig cfg;
    std::uint32_t alignMask;   //!< low bits that must be zero
    unsigned compareShift;     //!< 32 - compareBits
    std::uint32_t compareMax;  //!< all-ones value of the compare field
    unsigned filterShift;      //!< 32 - compareBits - filterBits
    std::uint32_t filterMask;  //!< mask of the filter field
};

} // namespace cdp

#endif // CDP_CORE_VAM_HH
