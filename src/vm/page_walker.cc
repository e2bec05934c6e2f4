#include "vm/page_walker.hh"

namespace cdp
{

PageWalker::PageWalker(PageTable &table, StatGroup *stats,
                       const std::string &name)
    : table(table),
      walks(stats ? *stats : dummyGroup, name + ".walks",
            "hardware page walks performed"),
      faults(stats ? *stats : dummyGroup, name + ".faults",
             "walks that found no valid translation")
{
}

WalkResult
PageWalker::walk(Addr va, Tlb &tlb)
{
    ++walks;
    WalkResult res;
    const WalkPath path = table.walkPath(va);
    res.accesses.push_back(path.pdeAddr);
    if (path.complete)
        res.accesses.push_back(path.pteAddr);
    res.framePa = path.framePa;
    if (!res.framePa) {
        ++faults;
        return res;
    }
    tlb.insert(va, *res.framePa);
    return res;
}

} // namespace cdp
