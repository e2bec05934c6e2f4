/**
 * @file
 * Uop-stream generators: the executable side of the workloads.
 *
 * Each generator walks a structure built by builders.cc *through the
 * simulated memory* — the address of every pointer load is the value
 * actually stored at the previous node — and emits the corresponding
 * uop sequence (address-generation ALUs, payload loads, the pointer
 * load itself, loop/compare branches). Register dependencies are
 * explicit, so the timing core sees genuine pointer-chase serial
 * chains and genuine MLP for independent streams.
 *
 * Generators are combined by MixGen with per-source weights to form
 * the Table 2 benchmark suite (suite.hh). They only read simulated
 * memory, through const references to the heap and the built
 * structures, which must outlive them; many generators, on many
 * threads, can walk one shared workload image (workload_image.hh).
 */

#ifndef CDP_WORKLOADS_GENERATORS_HH
#define CDP_WORKLOADS_GENERATORS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/uop.hh"
#include "workloads/builders.hh"
#include "workloads/heap_allocator.hh"

namespace cdp
{

/**
 * Base for generators that emit whole basic blocks into a queue and
 * hand them out one uop at a time.
 */
class BlockUopSource : public UopSource
{
  public:
    /**
     * The next uop, non-virtual: MixGen hands uops out through this,
     * so only the refill of an empty block is a virtual call.
     */
    Uop
    take()
    {
        // A block is always fully consumed before the next one is
        // staged, so the queue is a flat vector with a read cursor
        // (its capacity survives the clear): one uop hand-off is an
        // indexed read, the hottest edge in the whole simulator.
        while (queueHead == queue.size()) {
            queue.clear();
            queueHead = 0;
            emitBlock();
        }
        return queue[queueHead++];
    }

    Uop next() final { return take(); }

  protected:
    /** Emit at least one uop into the queue. */
    virtual void emitBlock() = 0;

    /** Serialize the staged uop queue (helper for subclasses). */
    void saveQueue(snap::Writer &w) const;
    /** Restore the staged uop queue (helper for subclasses). */
    void loadQueue(snap::Reader &r);

    void
    pushLoad(Addr pc, Addr va, std::int8_t src, std::int8_t dst,
             bool pointer)
    {
        Uop u;
        u.type = UopType::Load;
        u.pc = pc;
        u.vaddr = va;
        u.src0 = src;
        u.dst = dst;
        u.pointerLoad = pointer;
        queue.push_back(u);
    }

    void
    pushStore(Addr pc, Addr va, std::int8_t src)
    {
        Uop u;
        u.type = UopType::Store;
        u.pc = pc;
        u.vaddr = va;
        u.src0 = src;
        queue.push_back(u);
    }

    /** An ALU or FP op: @p type is UopType::Alu or UopType::Fp. */
    void
    pushOp(UopType type, Addr pc, std::int8_t src, std::int8_t dst)
    {
        Uop u;
        u.type = type;
        u.pc = pc;
        u.src0 = src;
        u.dst = dst;
        queue.push_back(u);
    }

    void
    pushAlu(Addr pc, std::int8_t src, std::int8_t dst)
    {
        pushOp(UopType::Alu, pc, src, dst);
    }

    void
    pushBranch(Addr pc, bool taken, std::int8_t src = noReg)
    {
        Uop u;
        u.type = UopType::Branch;
        u.pc = pc;
        u.taken = taken;
        u.src0 = src;
        queue.push_back(u);
    }

    std::vector<Uop> queue;
    std::size_t queueHead = 0;
};

/** Options common to the structure-walking generators. */
struct WalkOptions
{
    unsigned aluPerNode = 2;   //!< compute uops per node visited
    unsigned payloadLoads = 1; //!< extra (non-pointer) loads per node
    double fpFrac = 0.2;       //!< fraction of compute uops that are FP
};

/**
 * Endless traversal of a circular linked list.
 */
class ListTraversalGen : public BlockUopSource
{
  public:
    /** @param start first node to visit; 0 means the list head */
    ListTraversalGen(const HeapAllocator &heap, const BuiltList &list,
                     Addr pc_base, unsigned reg_base, WalkOptions opts,
                     std::uint64_t seed, Addr start = 0);

    const char *name() const override { return "list-traversal"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, list, start, pcBase, regBase, opts) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    const HeapAllocator &heap;
    const BuiltList &list;
    Addr start; //!< where the walk begins and restarts
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng rng;
    Addr cur;
};

/**
 * Repeated random root-to-leaf searches of a binary search tree.
 * Compare-direction branches are data-dependent and mispredict
 * roughly half the time, as real search code does.
 */
class TreeSearchGen : public BlockUopSource
{
  public:
    TreeSearchGen(const HeapAllocator &heap, const BuiltTree &tree,
                  Addr pc_base, unsigned reg_base, WalkOptions opts,
                  std::uint64_t seed);

    const char *name() const override { return "tree-search"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, tree, pcBase, regBase, opts) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    const HeapAllocator &heap;
    const BuiltTree &tree;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng rng;
    Addr cur;
};

/**
 * Random hash-table lookups: compute the bucket, load the head
 * pointer, walk the chain.
 */
class HashLookupGen : public BlockUopSource
{
  public:
    HashLookupGen(const HeapAllocator &heap, const BuiltHash &hash,
                  Addr pc_base, unsigned reg_base, WalkOptions opts,
                  std::uint64_t seed);

    const char *name() const override { return "hash-lookup"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, hash, pcBase, regBase, opts) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    const HeapAllocator &heap;
    const BuiltHash &hash;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng rng;
    /** Cap on chain hops per lookup (safety on degenerate chains). */
    static constexpr unsigned maxChain = 16;
};

/**
 * Random walk over a directed graph: per step, load the node header
 * (degree + adjacency pointer), load one adjacency entry, hop. The
 * adjacency arrays are lines densely packed with node pointers — a
 * content-prefetcher feast that neither a stride nor a Markov
 * prefetcher can exploit on a first visit.
 */
class GraphWalkGen : public BlockUopSource
{
  public:
    GraphWalkGen(const HeapAllocator &heap, const BuiltGraph &graph,
                 Addr pc_base, unsigned reg_base, WalkOptions opts,
                 std::uint64_t seed);

    const char *name() const override { return "graph-walk"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, graph, pcBase, regBase, opts) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    const HeapAllocator &heap;
    const BuiltGraph &graph;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng rng;
    Addr cur;
};

/**
 * Repeated random-key searches of a B-tree: per level, load the
 * entry count, compare against the separator keys, branch, load the
 * chosen child pointer. Inner-node fills contain up to `fanout`
 * child pointers, so one scan primes several alternative descents.
 */
class BTreeSearchGen : public BlockUopSource
{
  public:
    BTreeSearchGen(const HeapAllocator &heap, const BuiltBTree &tree,
                   Addr pc_base, unsigned reg_base, WalkOptions opts,
                   std::uint64_t seed);

    const char *name() const override { return "btree-search"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(heap, tree, pcBase, regBase, opts) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    const HeapAllocator &heap;
    const BuiltBTree &tree;
    Addr pcBase;
    unsigned regBase;
    WalkOptions opts;
    Rng rng;
};

/**
 * Constant-stride sweep over a data region — the regular traffic the
 * baseline stride prefetcher eats for breakfast.
 */
class StrideStreamGen : public BlockUopSource
{
  public:
    StrideStreamGen(Addr region_base, Addr region_bytes,
                    Addr stride_bytes, Addr pc_base, unsigned reg_base,
                    unsigned alu_per_iter, std::uint64_t seed);

    const char *name() const override { return "stride-stream"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(base, bytes, stride, pcBase, regBase, aluPerIter) -- workload shape is rebuilt identically at construction from the same seed and config; only the walk cursor and RNG travel
    Addr base;
    Addr bytes;
    Addr stride;
    Addr pcBase;
    unsigned regBase;
    unsigned aluPerIter;
    Rng rng;
    Addr pos = 0;
};

/**
 * Independent loads at random offsets in a region: irregular but
 * non-pointer traffic (neither prefetcher should cover it).
 */
class RandomAccessGen : public BlockUopSource
{
  public:
    RandomAccessGen(Addr region_base, Addr region_bytes, Addr pc_base,
                    unsigned reg_base, std::uint64_t seed);

    const char *name() const override { return "random-access"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(base, bytes, pcBase, regBase) -- workload shape is rebuilt identically at construction from the same seed and config; only the RNG travels
    Addr base;
    Addr bytes;
    Addr pcBase;
    unsigned regBase;
    Rng rng;
};

/**
 * Compute padding: ALU/FP chains with loop branches, an optional dose
 * of random (mispredictable) branches, and loads against a small
 * "hot" region that stays cache-resident. The hot loads give the uop
 * stream a realistic load density (and keep the DL1/UL2 busy with hit
 * traffic) without adding L2 misses.
 */
class ComputeGen : public BlockUopSource
{
  public:
    ComputeGen(Addr pc_base, unsigned reg_base, unsigned block_uops,
               double fp_frac, double branch_random_prob,
               Addr hot_base, Addr hot_bytes, unsigned hot_loads,
               std::uint64_t seed);

    const char *name() const override { return "compute"; }

    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  protected:
    void emitBlock() override;

  private:
    // cdplint: transient(pcBase, regBase, blockUops, fpFrac, branchRandomProb, hotBase, hotBytes, hotLoads) -- workload shape is rebuilt identically at construction from the same seed and config; only the RNG travels
    Addr pcBase;
    unsigned regBase;
    unsigned blockUops;
    double fpFrac;
    double branchRandomProb;
    Addr hotBase;
    Addr hotBytes;
    unsigned hotLoads;
    Rng rng;
};

/**
 * Weighted uop-level interleaving of sub-sources. Each sub-source
 * owns a disjoint register window, so interleaving does not create
 * false dependencies.
 */
class MixGen : public UopSource
{
  public:
    MixGen(std::string mix_name, std::uint64_t seed);

    /** Add a sub-source with a selection weight. */
    void add(std::unique_ptr<BlockUopSource> src, double weight);

    /**
     * Checkpoint the bump state of @p segment (the allocator of a
     * secondary address-space segment) with this mix. Restore
     * checks it, never loads it: the segment is shared, read-only.
     */
    void addSegment(const HeapAllocator &segment);

    /**
     * Keep @p owner alive as long as this mix: whatever the
     * sub-sources reference (built structures, segment allocators).
     */
    void adopt(std::shared_ptr<const void> owner);

    Uop next() override;
    const char *name() const override { return mixName.c_str(); }

    /**
     * Serialize the mix RNG, every sub-source (name-guarded so a
     * layout change fails loudly), and the segment allocators.
     */
    void saveState(snap::Writer &w) const override;
    void loadState(snap::Reader &r) override;

  private:
    // cdplint: transient(mixName, cumWeights, totalWeight, owner) -- mix recipe is construction-time; only the constituent sources, the selector RNG and the (checked) segment state travel
    std::string mixName;
    Rng rng;
    std::vector<std::unique_ptr<BlockUopSource>> sources;
    std::vector<const HeapAllocator *> segments;
    std::vector<double> cumWeights;
    double totalWeight = 0.0;
    std::shared_ptr<const void> owner;
};

} // namespace cdp

#endif // CDP_WORKLOADS_GENERATORS_HH
