/**
 * @file
 * Bounded memory of recently issued prefetch lines.
 *
 * The paper's adjusted coverage and accuracy (Figure 7) subtract the
 * content prefetches the baseline prefetcher would also have issued,
 * so the baseline remembers its last few thousand issued lines. The
 * stride and next-line prefetchers share this one structure: a FIFO
 * ring of line addresses plus a set over it for O(1) membership,
 * both sized at construction.
 */

#ifndef CDP_PREFETCH_RECENT_ISSUE_HH
#define CDP_PREFETCH_RECENT_ISSUE_HH

#include <cstddef>

#include "common/addr_table.hh"
#include "common/ring.hh"
#include "common/types.hh"

namespace cdp
{

namespace snap
{
class Writer;
class Reader;
} // namespace snap

/**
 * FIFO of the last @p capacity distinct line addresses remembered.
 */
class RecentIssueRing
{
  public:
    explicit RecentIssueRing(std::size_t capacity = 4096);

    /** Was the line holding @p va remembered and not yet evicted? */
    bool contains(Addr va) const
    {
        return present.contains(lineAlign(va));
    }

    /**
     * Remember the line holding @p va; a line already present keeps
     * its place. When full, the oldest line is forgotten.
     */
    void remember(Addr va);

    /** Serialize the FIFO, oldest first. */
    void saveState(snap::Writer &w) const;

    /** Restore; @p who names the owner in error messages. */
    void loadState(snap::Reader &r, const char *who);

  private:
    Ring<Addr> fifo;
    // cdplint: transient(present) -- index over fifo, rebuilt from it in loadState
    AddrSet present;
};

} // namespace cdp

#endif // CDP_PREFETCH_RECENT_ISSUE_HH
