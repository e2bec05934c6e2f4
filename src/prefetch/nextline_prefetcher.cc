#include "prefetch/nextline_prefetcher.hh"

#include "snapshot/ckpt_io.hh"

namespace cdp
{

NextLinePrefetcher::NextLinePrefetcher(unsigned degree, bool tagged,
                                       StatGroup *stats,
                                       const std::string &name)
    : degree(degree ? degree : 1), tagged(tagged),
      observed(stats ? *stats : dummyGroup, name + ".observed",
               "demand misses observed"),
      issued(stats ? *stats : dummyGroup, name + ".issued",
             "next-line prefetches issued"),
      suppressed(stats ? *stats : dummyGroup, name + ".suppressed",
                 "predictions suppressed by the tag filter")
{
    reservePredictions(this->degree, "stride.degree");
}

const std::vector<Addr> &
NextLinePrefetcher::observeMiss(Addr /*pc*/, Addr vaddr)
{
    ++observed;
    std::vector<Addr> &out = predictions;
    out.clear();
    const Addr base = lineAlign(vaddr);
    for (unsigned d = 1; d <= degree; ++d) {
        const Addr line = base + d * lineBytes;
        if (line < base)
            break; // wrapped past the top of the address space
        if (tagged && recent.contains(line)) {
            ++suppressed;
            continue;
        }
        out.push_back(line);
        recent.remember(line);
        ++issued;
    }
    return out;
}

void
NextLinePrefetcher::saveState(snap::Writer &w) const
{
    recent.saveState(w);
}

void
NextLinePrefetcher::loadState(snap::Reader &r)
{
    recent.loadState(r, "next-line");
}

} // namespace cdp
