#include "workloads/generators.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

// --------------------------------------------------------- block base

void
BlockUopSource::saveQueue(snap::Writer &w) const
{
    // Only the unconsumed tail is live state; the byte format (count
    // + uops in hand-out order) is unchanged from the deque days.
    w.u64(queue.size() - queueHead);
    for (std::size_t i = queueHead; i < queue.size(); ++i)
        snap::saveUop(w, queue[i]);
}

void
BlockUopSource::loadQueue(snap::Reader &r)
{
    const std::uint64_t n = r.u64();
    queue.clear();
    queueHead = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        queue.push_back(snap::loadUop(r));
}

// ---------------------------------------------------------------- list

ListTraversalGen::ListTraversalGen(const HeapAllocator &heap,
                                   const BuiltList &list, Addr pc_base,
                                   unsigned reg_base, WalkOptions opts,
                                   std::uint64_t seed, Addr start)
    : heap(heap), list(list), start(start ? start : list.head),
      pcBase(pc_base), regBase(reg_base), opts(opts), rng(seed),
      cur(this->start)
{
}

void
ListTraversalGen::emitBlock()
{
    const auto rp = static_cast<std::int8_t>(regBase % numRegs);
    const auto rv = static_cast<std::int8_t>((regBase + 1) % numRegs);
    const auto rc = static_cast<std::int8_t>((regBase + 2) % numRegs);

    // Payload loads are spread across the node so that nodes larger
    // than a cache line touch their trailing lines — the access
    // pattern that makes "wider" prefetching worthwhile (Sec. 3.4.3).
    const std::uint32_t span = list.nodeBytes & ~3u;
    for (unsigned k = 0; k < opts.payloadLoads; ++k) {
        std::uint32_t off =
            (span * (k + 1) / (opts.payloadLoads + 1)) & ~3u;
        if (off == list.nextOffset)
            off = (off + 4) % span;
        pushLoad(pcBase + 4 * k, cur + off, rp, rv, false);
    }
    for (unsigned k = 0; k < opts.aluPerNode; ++k) {
        pushOp(rng.chance(opts.fpFrac) ? UopType::Fp : UopType::Alu,
               pcBase + 0x40 + 4 * k, rv, rc);
    }
    // The recurrence load: next = cur->next.
    pushLoad(pcBase + 0x80, cur + list.nextOffset, rp, rp, true);
    // Loop branch: the list is circular, so always taken.
    pushBranch(pcBase + 0x84, true);

    cur = heap.read32(cur + list.nextOffset);
    if (cur == 0)
        cur = start; // defensive: corrupt list
}

void
ListTraversalGen::saveState(snap::Writer &w) const
{
    saveQueue(w);
    w.rng(rng);
    w.u32(cur);
}

void
ListTraversalGen::loadState(snap::Reader &r)
{
    loadQueue(r);
    r.rng(rng);
    cur = r.u32();
}

// ---------------------------------------------------------------- tree

TreeSearchGen::TreeSearchGen(const HeapAllocator &heap,
                             const BuiltTree &tree, Addr pc_base,
                             unsigned reg_base, WalkOptions opts,
                             std::uint64_t seed)
    : heap(heap), tree(tree), pcBase(pc_base), regBase(reg_base),
      opts(opts), rng(seed), cur(tree.root)
{
}

void
TreeSearchGen::emitBlock()
{
    const auto rp = static_cast<std::int8_t>(regBase % numRegs);
    const auto rk = static_cast<std::int8_t>((regBase + 1) % numRegs);
    const auto rc = static_cast<std::int8_t>((regBase + 2) % numRegs);

    // Load the key, compare against the search target.
    pushLoad(pcBase, cur + 0, rp, rk, false);
    for (unsigned k = 0; k < opts.aluPerNode; ++k)
        pushAlu(pcBase + 4 + 4 * k, rk, rc);

    const std::uint32_t left = heap.read32(cur + tree.leftOffset);
    const std::uint32_t right = heap.read32(cur + tree.rightOffset);
    // Random search key -> effectively random direction; the branch
    // depends on the loaded key and mispredicts like real search code.
    // A node with one child goes to it; a leaf keeps the coin and
    // restarts from the root on the next block. Selects, not
    // branches: the host cannot predict the coin either.
    const bool coin = rng.chance(0.5);
    const bool has_left = left != 0;
    const bool has_right = right != 0;
    const bool go_left =
        (coin & (has_left == has_right)) | (has_left & !has_right);
    pushBranch(pcBase + 0x40, go_left, rk);

    const std::uint32_t child_off =
        go_left ? tree.leftOffset : tree.rightOffset;
    pushLoad(pcBase + 0x44, cur + child_off, rp, rp, true);

    const Addr child = go_left ? left : right;
    cur = child != 0 ? child : tree.root;
}

void
TreeSearchGen::saveState(snap::Writer &w) const
{
    saveQueue(w);
    w.rng(rng);
    w.u32(cur);
}

void
TreeSearchGen::loadState(snap::Reader &r)
{
    loadQueue(r);
    r.rng(rng);
    cur = r.u32();
}

// ---------------------------------------------------------------- hash

HashLookupGen::HashLookupGen(const HeapAllocator &heap,
                             const BuiltHash &hash, Addr pc_base,
                             unsigned reg_base, WalkOptions opts,
                             std::uint64_t seed)
    : heap(heap), hash(hash), pcBase(pc_base), regBase(reg_base),
      opts(opts), rng(seed)
{
}

void
HashLookupGen::emitBlock()
{
    const auto rp = static_cast<std::int8_t>(regBase % numRegs);
    const auto rk = static_cast<std::int8_t>((regBase + 1) % numRegs);
    const auto rh = static_cast<std::int8_t>((regBase + 2) % numRegs);

    // Pick a key: mostly present (a random node's key), sometimes not.
    std::uint32_t key;
    if (!hash.nodes.empty() && rng.chance(0.8)) {
        const Addr n = hash.nodes[rng.below(hash.nodes.size())];
        key = heap.read32(n);
    } else {
        key = rng.next32();
    }
    const std::uint32_t bucket = key & (hash.buckets - 1);

    // Hash computation, then the bucket-head load (indexed).
    pushAlu(pcBase, rh, rh);
    pushAlu(pcBase + 4, rh, rh);
    pushLoad(pcBase + 8, hash.bucketArray + bucket * 4, rh, rp, true);

    Addr cur = heap.read32(hash.bucketArray + bucket * 4);
    unsigned hops = 0;
    while (cur != 0 && hops < maxChain) {
        pushLoad(pcBase + 0x20, cur + 0, rp, rk, false);
        // Key comparison reads row fields spread across the node, so
        // multi-line rows exercise their trailing lines on every hop.
        const std::uint32_t span = hash.nodeBytes & ~3u;
        for (unsigned k = 0; k < opts.payloadLoads; ++k) {
            std::uint32_t off =
                (span * (k + 1) / (opts.payloadLoads + 1)) & ~3u;
            if (off == hash.nextOffset || off == 0)
                off = (off + 4) % span;
            pushLoad(pcBase + 0x50 + 4 * k, cur + off, rp, rk, false);
        }
        for (unsigned k = 0; k < opts.aluPerNode; ++k)
            pushAlu(pcBase + 0x24 + 4 * k, rk, rh);
        const bool found = heap.read32(cur) == key;
        pushBranch(pcBase + 0x40, found, rk);
        if (found)
            break;
        pushLoad(pcBase + 0x44, cur + hash.nextOffset, rp, rp, true);
        cur = heap.read32(cur + hash.nextOffset);
        ++hops;
    }
    // End-of-lookup branch back to the dispatch loop.
    pushBranch(pcBase + 0x60, true);
}

void
HashLookupGen::saveState(snap::Writer &w) const
{
    saveQueue(w);
    w.rng(rng);
}

void
HashLookupGen::loadState(snap::Reader &r)
{
    loadQueue(r);
    r.rng(rng);
}

// --------------------------------------------------------------- graph

GraphWalkGen::GraphWalkGen(const HeapAllocator &heap,
                           const BuiltGraph &graph, Addr pc_base,
                           unsigned reg_base, WalkOptions opts,
                           std::uint64_t seed)
    : heap(heap), graph(graph), pcBase(pc_base), regBase(reg_base),
      opts(opts), rng(seed), cur(graph.nodes.front())
{
}

void
GraphWalkGen::emitBlock()
{
    const auto rp = static_cast<std::int8_t>(regBase % numRegs);
    const auto rd = static_cast<std::int8_t>((regBase + 1) % numRegs);
    const auto ra = static_cast<std::int8_t>((regBase + 2) % numRegs);
    const auto rc = static_cast<std::int8_t>((regBase + 3) % numRegs);

    // Load the node header: degree, then the adjacency-array pointer.
    pushLoad(pcBase, cur + BuiltGraph::degreeOffset, rp, rd, false);
    pushLoad(pcBase + 4, cur + BuiltGraph::adjPtrOffset, rp, ra, true);
    for (unsigned k = 0; k < opts.aluPerNode; ++k)
        pushAlu(pcBase + 8 + 4 * k, rd, rc);

    const std::uint32_t degree =
        heap.read32(cur + BuiltGraph::degreeOffset);
    const Addr adj = heap.read32(cur + BuiltGraph::adjPtrOffset);
    const std::uint32_t pick =
        degree ? static_cast<std::uint32_t>(rng.below(degree)) : 0;

    // Edge-select branch (data dependent -> mispredicts), then the
    // hop: load the chosen adjacency entry into the node pointer.
    pushBranch(pcBase + 0x40, (pick & 1) != 0, rd);
    pushLoad(pcBase + 0x44, adj + 4 * pick, ra, rp, true);

    const Addr next = heap.read32(adj + 4 * pick);
    cur = next != 0 ? next : graph.nodes.front();
}

void
GraphWalkGen::saveState(snap::Writer &w) const
{
    saveQueue(w);
    w.rng(rng);
    w.u32(cur);
}

void
GraphWalkGen::loadState(snap::Reader &r)
{
    loadQueue(r);
    r.rng(rng);
    cur = r.u32();
}

// --------------------------------------------------------------- btree

BTreeSearchGen::BTreeSearchGen(const HeapAllocator &heap,
                               const BuiltBTree &tree, Addr pc_base,
                               unsigned reg_base, WalkOptions opts,
                               std::uint64_t seed)
    : heap(heap), tree(tree), pcBase(pc_base), regBase(reg_base),
      opts(opts), rng(seed)
{
}

void
BTreeSearchGen::emitBlock()
{
    const auto rp = static_cast<std::int8_t>(regBase % numRegs);
    const auto rk = static_cast<std::int8_t>((regBase + 1) % numRegs);
    const auto rc = static_cast<std::int8_t>((regBase + 2) % numRegs);

    const std::uint32_t target = rng.next32() >> 1;
    Addr cur = tree.root;
    // Descend height-1 inner levels; the leaf load ends the search.
    for (std::uint32_t level = 0; level + 1 < tree.height; ++level) {
        const std::uint32_t count = heap.read32(cur + 0);
        pushLoad(pcBase, cur + 0, rp, rk, false); // entry count
        // Separator comparisons (a few per level).
        std::uint32_t child = 0;
        for (std::uint32_t i = 0; i + 1 < count; ++i) {
            if (i < 3) { // model only the first comparisons' uops
                pushLoad(pcBase + 4 + 4 * i,
                         cur + tree.keyOffset(i), rp, rk, false);
                pushAlu(pcBase + 0x20 + 4 * i, rk, rc);
            }
            if (target >= heap.read32(cur + tree.keyOffset(i)))
                child = i + 1;
        }
        pushBranch(pcBase + 0x40, (child & 1) != 0, rk);
        pushLoad(pcBase + 0x44, cur + tree.childOffset(child), rp, rp,
                 true);
        cur = heap.read32(cur + tree.childOffset(child));
        if (cur == 0) {
            cur = tree.root; // defensive
            break;
        }
    }
    // Touch the leaf.
    pushLoad(pcBase + 0x60, cur + tree.keyOffset(0), rp, rk, false);
    for (unsigned k = 0; k < opts.aluPerNode; ++k)
        pushAlu(pcBase + 0x64 + 4 * k, rk, rc);
    pushBranch(pcBase + 0x80, true);
}

void
BTreeSearchGen::saveState(snap::Writer &w) const
{
    saveQueue(w);
    w.rng(rng);
}

void
BTreeSearchGen::loadState(snap::Reader &r)
{
    loadQueue(r);
    r.rng(rng);
}

// -------------------------------------------------------------- stride

StrideStreamGen::StrideStreamGen(Addr region_base, Addr region_bytes,
                                 Addr stride_bytes, Addr pc_base,
                                 unsigned reg_base, unsigned alu_per_iter,
                                 std::uint64_t seed)
    : base(region_base), bytes(region_bytes), stride(stride_bytes),
      pcBase(pc_base), regBase(reg_base), aluPerIter(alu_per_iter),
      rng(seed)
{
    if (bytes == 0 || stride == 0)
        throw std::invalid_argument("StrideStreamGen: empty region");
}

void
StrideStreamGen::emitBlock()
{
    const auto ri = static_cast<std::int8_t>(regBase % numRegs);
    const auto rv = static_cast<std::int8_t>((regBase + 1) % numRegs);

    pushAlu(pcBase, ri, ri); // induction-variable update
    pushLoad(pcBase + 4, base + pos, ri, rv, false);
    for (unsigned k = 0; k < aluPerIter; ++k)
        pushAlu(pcBase + 8 + 4 * k, rv, rv);
    const bool wrap = pos + stride >= bytes;
    pushBranch(pcBase + 0x40, !wrap, ri);

    pos = wrap ? 0 : pos + stride;
}

void
StrideStreamGen::saveState(snap::Writer &w) const
{
    saveQueue(w);
    w.rng(rng);
    w.u32(pos);
}

void
StrideStreamGen::loadState(snap::Reader &r)
{
    loadQueue(r);
    r.rng(rng);
    pos = r.u32();
    if (pos >= bytes)
        r.fail("stride-stream position " + std::to_string(pos) +
               " outside its " + std::to_string(bytes) + "-byte region");
}

// -------------------------------------------------------------- random

RandomAccessGen::RandomAccessGen(Addr region_base, Addr region_bytes,
                                 Addr pc_base, unsigned reg_base,
                                 std::uint64_t seed)
    : base(region_base), bytes(region_bytes), pcBase(pc_base),
      regBase(reg_base), rng(seed)
{
    if (bytes < 4)
        throw std::invalid_argument("RandomAccessGen: region too small");
}

void
RandomAccessGen::emitBlock()
{
    const auto rv = static_cast<std::int8_t>(regBase % numRegs);
    const auto rc = static_cast<std::int8_t>((regBase + 1) % numRegs);

    const Addr off = static_cast<Addr>(rng.below(bytes / 4)) * 4;
    // Address from a (register-resident) table index: no load-load
    // dependence, so these loads overlap freely.
    pushLoad(pcBase, base + off, noReg, rv, false);
    pushAlu(pcBase + 4, rv, rc);
    pushBranch(pcBase + 8, true);
}

void
RandomAccessGen::saveState(snap::Writer &w) const
{
    saveQueue(w);
    w.rng(rng);
}

void
RandomAccessGen::loadState(snap::Reader &r)
{
    loadQueue(r);
    r.rng(rng);
}

// ------------------------------------------------------------- compute

ComputeGen::ComputeGen(Addr pc_base, unsigned reg_base,
                       unsigned block_uops, double fp_frac,
                       double branch_random_prob, Addr hot_base,
                       Addr hot_bytes, unsigned hot_loads,
                       std::uint64_t seed)
    : pcBase(pc_base), regBase(reg_base),
      blockUops(block_uops ? block_uops : 1), fpFrac(fp_frac),
      branchRandomProb(branch_random_prob), hotBase(hot_base),
      hotBytes(hot_bytes), hotLoads(hot_bytes >= 4 ? hot_loads : 0),
      rng(seed)
{
}

void
ComputeGen::emitBlock()
{
    const auto r0 = static_cast<std::int8_t>(regBase % numRegs);
    const auto r1 = static_cast<std::int8_t>((regBase + 1) % numRegs);
    const auto r2 = static_cast<std::int8_t>((regBase + 2) % numRegs);

    for (unsigned k = 0; k < hotLoads; ++k) {
        const Addr off = static_cast<Addr>(rng.below(hotBytes / 4)) * 4;
        pushLoad(pcBase + 0x200 + 4 * k, hotBase + off, noReg, r2,
                 false);
    }
    for (unsigned k = 0; k < blockUops; ++k) {
        // Alternate dependent/independent ops: ~2-wide ILP.
        const auto dst = (k % 2) ? r0 : r1;
        const auto src = (k % 2) ? r1 : r0;
        pushOp(rng.chance(fpFrac) ? UopType::Fp : UopType::Alu,
               pcBase + 4 * k, src, dst);
    }
    const bool random_branch = rng.chance(branchRandomProb);
    pushBranch(pcBase + 0x100,
               random_branch ? rng.chance(0.5) : true, r0);
}

void
ComputeGen::saveState(snap::Writer &w) const
{
    saveQueue(w);
    w.rng(rng);
}

void
ComputeGen::loadState(snap::Reader &r)
{
    loadQueue(r);
    r.rng(rng);
}

// ----------------------------------------------------------------- mix

MixGen::MixGen(std::string mix_name, std::uint64_t seed)
    : mixName(std::move(mix_name)), rng(seed)
{
}

void
MixGen::addSegment(const HeapAllocator &segment)
{
    segments.push_back(&segment);
}

void
MixGen::adopt(std::shared_ptr<const void> keep)
{
    owner = std::move(keep);
}

void
MixGen::add(std::unique_ptr<BlockUopSource> src, double weight)
{
    if (weight <= 0.0)
        return;
    sources.push_back(std::move(src));
    totalWeight += weight;
    cumWeights.push_back(totalWeight);
}

Uop
MixGen::next()
{
    if (sources.empty())
        throw std::runtime_error("MixGen: no sources");
    const double pick = rng.uniform() * totalWeight;
    // upper_bound without its branches: cumWeights never decreases,
    // so the index of the first weight above pick is the number of
    // weights at or below it.
    std::size_t idx = 0;
    for (const double w : cumWeights)
        idx += w <= pick;
    return sources[std::min(idx, sources.size() - 1)]->take();
}

void
MixGen::saveState(snap::Writer &w) const
{
    w.rng(rng);
    w.u64(sources.size());
    for (const auto &src : sources) {
        // The name doubles as a layout guard: restoring into a mix
        // whose composition differs must fail loudly, not scramble.
        w.str(src->name());
        src->saveState(w);
    }
    w.u64(segments.size());
    for (const HeapAllocator *seg : segments)
        seg->saveState(w);
}

void
MixGen::loadState(snap::Reader &r)
{
    r.rng(rng);
    r.expectU64(sources.size(), "mix sub-source count");
    for (const auto &src : sources) {
        r.expectStr(src->name(), "mix sub-source");
        src->loadState(r);
    }
    r.expectU64(segments.size(), "mix segment-allocator count");
    for (const HeapAllocator *seg : segments)
        r.expectSaved(*seg, "workload image segment allocator");
}

} // namespace cdp
