/**
 * @file
 * The full memory system of Figure 6: virtually indexed DL1,
 * physically indexed UL2, DTLB with hardware page walker, stride
 * prefetcher on the L1 miss stream, content prefetcher on the UL2
 * fill stream, optional Markov prefetcher on the UL2 miss stream,
 * priority arbiters, and the front-side bus.
 *
 * MemorySystem implements CoreMemIf: the core calls load()/store()
 * synchronously and gets back data-ready cycles; background work
 * (fill completion, fill-content scanning, chained prefetch issue,
 * prefetch-queue drain) happens in advance(), which the core calls
 * every cycle (with skip-ahead, so all bookkeeping is elapsed-time
 * based).
 *
 * Modeling notes (documented deviations, see DESIGN.md):
 *  - the bus is a single server with per-line occupancy, so queueing
 *    delay emerges from occupancy rather than an explicit slot list;
 *  - prefetch outstandingness is capped at the bus queue size (32);
 *    demand misses are bounded by the 48-entry load buffer instead of
 *    competing for those 32 slots.
 */

#ifndef CDP_SIM_MEMORY_SYSTEM_HH
#define CDP_SIM_MEMORY_SYSTEM_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "core/adaptive_vam.hh"
#include "core/content_prefetcher.hh"
#include "cpu/ooo_core.hh"
#include "mem/backing_store.hh"
#include "memsys/bus.hh"
#include "memsys/cache.hh"
#include "memsys/mshr.hh"
#include "memsys/queued_arbiter.hh"
#include "obs/tracer.hh"
#include "prefetch/markov_prefetcher.hh"
#include "prefetch/nextline_prefetcher.hh"
#include "prefetch/stride_prefetcher.hh"
#include "sim/config.hh"
#include "sim/event_wheel.hh"
#include "stats/stat.hh"
#include "vm/page_table.hh"
#include "vm/page_walker.hh"
#include "vm/tlb.hh"

namespace cdp
{

/**
 * Depth buckets for per-depth provenance attribution: depths 0..4
 * get their own bucket, everything deeper lands in the last one.
 * Small and fixed so the counters stay a plain struct.
 */
constexpr unsigned provDepthBuckets = 6;

/** Clamp a chain depth into a provenance bucket index. */
constexpr unsigned
provDepthBucket(unsigned depth)
{
    return depth < provDepthBuckets ? depth : provDepthBuckets - 1;
}

/**
 * The complete Figure 6 memory hierarchy.
 */
class MemorySystem : public CoreMemIf
{
  public:
    MemorySystem(const SimConfig &cfg, const BackingStore &store,
                 const PageTable &page_table, StatGroup *stats);

    // CoreMemIf
    Cycle load(Addr pc, Addr vaddr, Cycle now, bool pointer_load) override;
    Cycle store(Addr pc, Addr vaddr, Cycle now) override;
    void advance(Cycle now) override;
    Cycle nextEventCycle() const override;

    /** Drain every in-flight transaction (end-of-run settling). */
    void drainAll(Cycle now);

    /**
     * Audit every structural invariant of the hierarchy (caches,
     * MSHRs, arbiter, TLB, request-lifecycle accounting). Aborts with
     * a state dump on the first violation. Compiled to a no-op unless
     * the build enables CDP_ENABLE_CHECKS; checked builds also invoke
     * it periodically from advance() and at drain points.
     */
    void checkInvariants() const;

    // Component access for tests and benches.
    Cache &l1() { return dl1; }
    Cache &l2() { return ul2; }
    Tlb &dtlb() { return dataTlb; }
    /** Lifecycle-event tracer (inert unless cfg.trace.enabled). */
    obs::Tracer &tracer() { return trc; }
    const obs::Tracer &tracer() const { return trc; }
    ContentPrefetcher &contentPf() { return cdp; }

    /**
     * Switch the content-prefetcher configuration live, updating both
     * the prefetcher and this system's own copy (depth suppression,
     * reinforcement, and scan gating read the latter). Meant for
     * quiesce points only: restoring a warm checkpoint into a machine
     * built with a different cdp.* config is defined to be equivalent
     * to calling this on the checkpointing machine at its quiesce
     * point (see DESIGN.md §11).
     */
    void reconfigureCdp(const CdpConfig &new_cfg);
    const AdaptiveVamController &adaptiveCtl() const { return adaptive; }
    StridePrefetcher &stridePf() { return stride; }
    MarkovPrefetcher *markovPf() { return markov.get(); }
    const Bus &frontBus() const { return bus; }

    /** Aggregate counters the benches read out. */
    struct Counters
    {
        // Demand-side accounting.
        std::uint64_t demandLoads = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t l2DemandAccesses = 0;
        std::uint64_t l2DemandMisses = 0; //!< true misses (fresh fills)
        // Figure 10 buckets: how demand L2 lookups that would have
        // missed were (not) masked.
        std::uint64_t maskFullStride = 0;
        std::uint64_t maskPartialStride = 0;
        std::uint64_t maskFullCdp = 0;
        std::uint64_t maskPartialCdp = 0;
        // Prefetch accounting per class. strideIssued covers both
        // history prefetchers (Markov requests share the stride
        // priority class).
        std::uint64_t strideIssued = 0;
        std::uint64_t cdpIssued = 0;
        std::uint64_t cdpIssuedOverlap = 0; //!< stride also covered it
        std::uint64_t cdpUsefulOverlap = 0;
        std::uint64_t strideUseful = 0;
        std::uint64_t cdpUseful = 0;
        // Drop reasons.
        std::uint64_t pfDropL2Hit = 0;
        std::uint64_t pfDropInflight = 0;
        std::uint64_t pfDropQueued = 0;
        std::uint64_t pfDropBusFull = 0;
        std::uint64_t pfDropUnmapped = 0;
        std::uint64_t pfDropArbiter = 0;
        // TLB / walks.
        std::uint64_t demandWalks = 0;
        std::uint64_t prefetchWalks = 0;
        // Reinforcement.
        std::uint64_t promotions = 0;
        std::uint64_t rescans = 0;
        /** Depth-tag promotions recorded by reinforceOnHit alone
         *  (promotions also counts arbiter extractions). */
        std::uint64_t reinforcePromotions = 0;
        // Pollution study.
        std::uint64_t pollutionInjected = 0;
        // Unused prefetched lines evicted (accuracy complement).
        std::uint64_t prefetchEvictedUnused = 0;
        // Per-depth provenance attribution for content prefetches
        // (index = provDepthBucket(chain depth)):
        //  accurate  — first demand touch of a completed prefetch
        //  late      — demand promoted the prefetch while in flight
        //  dropped   — squashed before issue (any drop reason)
        //  polluting — evicted without ever being demanded
        std::uint64_t depthAccurate[provDepthBuckets] = {};
        std::uint64_t depthLate[provDepthBuckets] = {};
        std::uint64_t depthDropped[provDepthBuckets] = {};
        std::uint64_t depthPolluting[provDepthBuckets] = {};
    };

    const Counters &counters() const { return ctr; }

    /** Zero the counters (end of warm-up). */
    void resetCounters() { ctr = Counters{}; }

    /**
     * Serialize the entire hierarchy. Requires a quiesced machine —
     * no in-flight fills, MSHR entries, or queued prefetches (call
     * drainAll() first); throws snap::SnapshotError otherwise, so no
     * in-flight transaction ever needs encoding. The tracer is a pure
     * observer and is deliberately not checkpointed.
     */
    void saveState(snap::Writer &w) const;

    /**
     * Restore into a freshly constructed (still-empty) hierarchy. The
     * checkpointed *base* content-prefetcher config is compared with
     * this instance's: when equal, the checkpoint's live (possibly
     * adaptive-tuned) config is applied; when the restoring simulator
     * was built with deliberately different cdp knobs (a warm-fork
     * sweep), its own configuration wins.
     */
    void loadState(snap::Reader &r);

    /**
     * advance() calls that ran the full fixpoint body (vs returning
     * through the idle fast path). Diagnostic only: never serialized
     * and never a stat, so wheel and legacy stats dumps stay
     * byte-identical (tests assert the wheel actually skips).
     */
    std::uint64_t fullAdvanceCount() const { return fullAdvances; }
    /** advance() calls that returned through the idle fast path. */
    std::uint64_t skippedAdvanceCount() const { return skippedAdvances; }

  private:
    /**
     * Earliest future cycle at which advance() could do real work, or
     * CoreMemIf::noPendingEvent when nothing is in flight at all: the
     * minimum of the next fill completion and the first cycle the
     * arbiter head could win the bus (max of its enqueue time and the
     * bus going idle). Only meaningful when the per-call activities
     * (pollution RNG draw, rescan-debt repayment, adaptive epoch) are
     * quiescent — callers must check those separately. While the head
     * is bus-blocked, a legacy advance() merely accrues drain-pool
     * slots, and that accrual composes associatively under its cap,
     * so deferring it to the next full advance() is exact (DESIGN.md
     * §12).
     */
    Cycle nextProgressCycle() const
    {
        Cycle next = ~Cycle{0};
        if (!pendingFills.empty())
            next = pendingFills.nextDue();
        if (const MemRequest *head = l2Arbiter.peek())
            next = std::min(next,
                            std::max(head->enqueued, bus.freeCycle()));
        return next;
    }

    /**
     * True when advance(@p now) is provably a pure no-op: no fill is
     * due, the arbiter head (if any) cannot win the bus yet, no
     * rescan slot is owed, pollution injection (which draws the RNG
     * once per call) is off, and no adaptive epoch is pending.
     */
    bool idleAt(Cycle now) const
    {
        return !cfg.pollution.enabled && rescanDebt == 0 &&
               !adaptive.epochElapsed() && nextProgressCycle() > now;
    }

    /**
     * Charge a timed page walk at @p now.
     * @return walk latency in cycles, or nullopt on a fault
     *         (candidate pointing at unmapped memory).
     */
    std::optional<Cycle> timedWalk(Addr va, Cycle now, bool speculative);

    /** Translate @p va, walking on a DTLB miss; nullopt on fault. */
    std::optional<Addr> translate(Addr va, Cycle now, bool speculative,
                                  Cycle *extra_latency);

    /** Queue a prefetch into the L2 arbiter. */
    void enqueuePrefetch(ReqType type, Addr vaddr, Addr line_va,
                         unsigned depth, ReqId root, unsigned hop,
                         Cycle now, bool width_line = false);

    /** Count (and trace) one squashed prefetch at @p depth. */
    void noteDrop(ReqType type, unsigned depth, obs::DropReason why,
                  Addr addr, ReqId id, ReqId root, unsigned hop,
                  Cycle now);

    /** Pop prefetches from the L2 arbiter and put them on the bus. */
    void drainPrefetches(Cycle now);

    /** Issue one drained prefetch; returns false if squashed. */
    bool issuePrefetch(MemRequest req, Cycle now);

    /** Handle one completed fill (insert + scan + chain). */
    void completeFill(Addr line_pa, Cycle when);

    /** Scan fill/rescan content and enqueue the resulting requests. */
    void scanAndEnqueue(Addr line_pa, Addr trigger_ea, unsigned depth,
                        ReqId root, bool is_rescan, Cycle now);

    /** Reinforcement on an L2 hit (Section 3.4.2). */
    void reinforceOnHit(CacheLine &line, Addr line_pa, unsigned req_depth,
                        Addr req_vaddr, Cycle now);

    /** Inject one bad prefetch on an idle bus slot (Section 3.5). */
    void maybeInjectPollution(Cycle now);

    /** Baseline prefetcher predictions for one observed miss (a view
     *  of the prefetcher's reused buffer). */
    const std::vector<Addr> &baselineObserve(Addr pc, Addr vaddr);

    /** Did the baseline prefetcher recently cover @p line_va? */
    bool baselineRecentlyIssued(Addr line_va) const;

    /** Mutable only through reconfigureCdp(); geometry never changes. */
    SimConfig cfg;
    // cdplint: transient(backing, pageTable) -- wiring references; memory and page-table contents are checkpointed by their owners
    const BackingStore &backing;
    const PageTable &pageTable;

    Cache dl1;
    Cache ul2;
    Tlb dataTlb;
    // cdplint: transient(walker) -- stateless between requests; quiesce guarantees no walk is in flight
    PageWalker walker;
    StridePrefetcher stride;
    std::unique_ptr<NextLinePrefetcher> nextline; //!< alt baseline
    std::unique_ptr<MarkovPrefetcher> markov;
    ContentPrefetcher cdp;
    AdaptiveVamController adaptive;
    Bus bus;
    QueuedArbiter l2Arbiter;
    MshrFile mshrs;

    EventWheel pendingFills;
    unsigned prefetchInFlight = 0;
    // cdplint: transient(skipIdle, fullAdvances, skippedAdvances) -- scheduler-mode policy knob and diagnostic call counters; never architectural state
    /** sched.mode == "wheel": advance() may fast-path idle calls. */
    bool skipIdle = true;
    std::uint64_t fullAdvances = 0;
    std::uint64_t skippedAdvances = 0;
    Cycle lastDrain = 0;
    Cycle drainPool = 0; //!< banked L2-arbiter slots (1/cycle)
    unsigned rescanDebt = 0; //!< rescans consume L2 drain slots
    ReqId nextReqId = 1;
    std::uint64_t checkTick = 0; //!< advance() calls, for audit pacing
    /** Deepest cdp depthThreshold this machine has ever run with —
     *  including thresholds inherited through a checkpoint. Resident
     *  lines keep the depth tag they were filled with across
     *  reconfigureCdp(), so structure audits must bound depths by the
     *  high-water mark, not the current config. */
    unsigned cdpDepthHighWater = 1;
    Rng pollutionRng;
    // cdplint: transient(pollutionSpan) -- derived from the backing-store span at construction
    Addr pollutionSpan = 0; //!< physical span to pick bad lines from

    // cdplint: transient(trc) -- pure observer; trace buffers are diagnostic output, not architectural state
    obs::Tracer trc; //!< lifecycle-event recorder (pure observer)

    // cdplint: transient(dummyStatGroup, loadLatency, prefetchLead, provChainDepth, provFormulas) -- Stats are observational, reset at warm-up end, and travel via the stats dump, not the checkpoint
    StatGroup dummyStatGroup; //!< sink when no group is supplied
    /** Demand-load latency distribution (cycles, log-ish buckets). */
    Distribution loadLatency;
    /** Cycles between a content prefetch's fill and its first demand
     *  touch (timeliness; Figure 10's full-vs-partial split). */
    Distribution prefetchLead;
    /** Chain depth of every issued content prefetch (provenance). */
    Distribution provChainDepth;
    /**
     * prov.* formulas mirroring the per-depth Counters arrays into
     * the stats dump (reserve()d up front: StatGroup keeps raw
     * pointers into this vector).
     */
    std::vector<Formula> provFormulas;

    Counters ctr;
};

} // namespace cdp

#endif // CDP_SIM_MEMORY_SYSTEM_HH
