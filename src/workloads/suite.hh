/**
 * @file
 * The synthetic benchmark suite standing in for the paper's Table 2
 * workloads.
 *
 * The paper runs proprietary Intel LIT checkpoints of commercial
 * applications (b2b, quake, tpcc, verilog, specjbb, ...). Those
 * traces are not available, so each benchmark here is a parameterized
 * mix of the behaviours the paper attributes to its suite: linked
 * structure traversals (lists, trees, hash chains) over working sets
 * chosen to stress a 1-MB UL2 to a similar degree (the L2 MPTU column
 * of Table 2), plus strided streams, irregular non-pointer loads, and
 * compute padding. Names are kept so the figures line up with the
 * paper's.
 */

#ifndef CDP_WORKLOADS_SUITE_HH
#define CDP_WORKLOADS_SUITE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/uop.hh"
#include "workloads/builders.hh"
#include "workloads/generators.hh"
#include "workloads/heap_allocator.hh"

namespace cdp
{

/** Parameter block defining one synthetic benchmark. */
struct BenchmarkSpec
{
    std::string name;
    std::string suite; //!< Table 2 suite column

    // Linked-list component.
    std::uint32_t listNodes = 0;
    std::uint32_t listNodeBytes = 64;
    std::uint32_t listNextOffset = 8;
    /** Mean allocation-run length (aged-heap model; 1 = shuffled). */
    std::uint32_t listRunLen = 2;

    // Binary-tree component.
    std::uint32_t treeNodes = 0;
    std::uint32_t treeNodeBytes = 32;

    // Hash-table component.
    std::uint32_t hashBuckets = 0;
    std::uint32_t hashNodes = 0;
    std::uint32_t hashNodeBytes = 32;

    // Graph component (adjacency-array pointer chasing).
    std::uint32_t graphNodes = 0;
    std::uint32_t graphNodeBytes = 32;
    std::uint32_t graphMaxDegree = 6;

    // B-tree component (multi-way index descent).
    std::uint32_t btreeLeaves = 0;
    std::uint32_t btreeFanout = 8;

    // Regular / irregular array components.
    std::uint32_t strideKB = 0;
    std::uint32_t strideStep = 64;
    std::uint32_t randomKB = 0;

    // Mix weights (relative uop frequencies).
    double wList = 0.0;
    double wTree = 0.0;
    double wHash = 0.0;
    double wGraph = 0.0;
    double wBTree = 0.0;
    double wStride = 0.0;
    double wRandom = 0.0;
    double wCompute = 0.0;

    // Intensity knobs.
    unsigned aluPerNode = 2;
    unsigned payloadLoads = 1;
    double fpFrac = 0.15;
    double branchRandomProb = 0.02;
    unsigned computeBlock = 8;
    /** Cache-resident hot region touched by compute blocks. */
    std::uint32_t hotKB = 64;
    unsigned hotLoads = 3;

    /** Approximate working-set bytes of all structures. */
    std::uint64_t workingSetBytes() const;
};

/** The 15 benchmarks of Table 2, in the paper's order. */
const std::vector<BenchmarkSpec> &table2Suite();

/**
 * Additional workloads beyond the paper's suite: graph analytics
 * ("xgraph") and a B-tree index ("xbtree"). Usable anywhere a
 * workload name is accepted; not part of the Table 2 averages.
 */
const std::vector<BenchmarkSpec> &extraWorkloads();

/**
 * Find a benchmark spec by name.
 * @throw std::invalid_argument for unknown names.
 */
const BenchmarkSpec &findBenchmark(const std::string &name);

/**
 * The structures one benchmark builds in simulated memory. A
 * component the spec gives no nodes or no weight is absent.
 */
struct BuiltWorkload
{
    std::optional<BuiltList> list;
    std::optional<BuiltTree> tree;
    std::optional<BuiltHash> hash;
    std::optional<BuiltGraph> graph;
    std::optional<BuiltBTree> btree;
    std::optional<Addr> strideRegion;
    std::optional<Addr> randomRegion;

    /**
     * The low "globals" segment at 0x00200000 (static data): its own
     * allocator over the same memory, a cache-resident hot region and
     * a small intra-segment pointer web.
     */
    std::unique_ptr<HeapAllocator> globals;
    Addr hotBase = 0;
    Addr hotBytes = 0;
    BuiltList globalList;
};

/**
 * Build the structures of @p spec in @p heap, and the globals segment
 * beside it in the same memory. This is the only step that writes
 * simulated memory.
 */
BuiltWorkload buildWorkload(const BenchmarkSpec &spec, HeapAllocator &heap,
                            std::uint64_t seed);

/**
 * A fresh uop source walking @p built in @p heap. Its generators hold
 * const references into both, which must outlive it; any number of
 * sources can walk one build.
 */
std::unique_ptr<MixGen> makeWorkloadSource(const BenchmarkSpec &spec,
                                           const HeapAllocator &heap,
                                           const BuiltWorkload &built,
                                           std::uint64_t seed);

/**
 * Build the structures of @p spec in @p heap and return a uop source
 * over them that owns the build: buildWorkload, then
 * makeWorkloadSource.
 */
std::unique_ptr<UopSource> makeBenchmark(const BenchmarkSpec &spec,
                                         HeapAllocator &heap,
                                         std::uint64_t seed);

} // namespace cdp

#endif // CDP_WORKLOADS_SUITE_HH
