/**
 * @file
 * Common interface for miss-stream-driven prefetchers.
 *
 * The stride prefetcher (baseline, always on in the paper) and the
 * Markov prefetcher (Section 5 comparison) both watch a demand miss
 * stream and emit candidate virtual addresses. The content prefetcher
 * is deliberately *not* behind this interface: it consumes fill
 * contents, not miss addresses, which is the paper's whole point.
 */

#ifndef CDP_PREFETCH_PREFETCHER_HH
#define CDP_PREFETCH_PREFETCHER_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"

namespace cdp
{

/**
 * Abstract miss-driven prefetcher.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * Observe one demand miss.
     * @param pc program counter of the missing load
     * @param vaddr effective address that missed
     * @return virtual addresses to prefetch (possibly empty): a view
     *         of a buffer the prefetcher reuses, valid until its next
     *         observeMiss call
     */
    virtual const std::vector<Addr> &observeMiss(Addr pc, Addr vaddr) = 0;

    /** Identifying name for stats and traces. */
    virtual const char *name() const = 0;

    /** Most predictions one miss may yield (degree or fan-out). */
    static constexpr unsigned maxPredictions = 64;

  protected:
    /**
     * Size the prediction buffer for @p n predictions per miss, so
     * observing a miss never allocates. Throws std::invalid_argument
     * naming config @p key when @p n exceeds maxPredictions.
     */
    void reservePredictions(unsigned n, const char *key)
    {
        if (n > maxPredictions)
            throw std::invalid_argument(
                std::string(key) + " must be <= " +
                std::to_string(maxPredictions) + ", got " +
                std::to_string(n));
        predictions.reserve(n);
    }

    /** The buffer observeMiss fills; reused from call to call. */
    std::vector<Addr> predictions;
};

} // namespace cdp

#endif // CDP_PREFETCH_PREFETCHER_HH
