/**
 * @file
 * perfbench — the repository benchmark.
 *
 * Runs one named workload (README.md explains the three) in a closed
 * loop for a fixed host-time budget and prints one JSON result line.
 *
 *   perfbench --workload hit_compute|chase_miss|sweep_fanout
 *             --seed N --seconds S --trace 0|1 [--expect TAG=HASH ...]
 *
 * --trace 0 repeats the untraced workload (plain `Simulator`, exactly
 * what the bench harnesses run) and reports the end-to-end metrics.
 * --trace 1 alternates untraced and traced repetitions and reports
 * the per-layer metrics. A traced sim is wired by hand the way
 * `Simulator::Simulator` wires it, except that `OooCore` talks to the
 * generator and the memory system through timing decorators; the
 * benchmark times every layer from outside, through public calls only.
 *
 * Every sim's full stats dump is hashed. A sim fails when it throws,
 * when its hash differs from an --expect pin, or when it differs from
 * the first hash seen for the same leg in this process — traced and
 * untraced sims included, which shows the decorators only observe.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/content_prefetcher.hh"
#include "core/vam.hh"
#include "cpu/ooo_core.hh"
#include "runner/sim_runner.hh"
#include "sim/memory_system.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

using namespace cdp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Quantile @p q of @p v, interpolated linearly between ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

// ---------------------------------------------------------------- workloads

/** One simulation of a workload: a tagged machine configuration. */
struct Leg
{
    std::string tag;
    SimConfig cfg;
    /** Guarded config equals the default leg's, so a warm checkpoint
     *  of the default leg can be restored into it (DESIGN.md §11). */
    bool forkable = true;
};

struct Workload
{
    std::string name;
    unsigned threads = 1;
    std::vector<Leg> legs;
    /** The default-config sim (reinforced CDP, depth 3). */
    std::size_t defaultLeg = 0;
    /** cdp_speedup's baseline; deterministic, so it runs once per
     *  process, outside the timed loop. */
    Leg strideOnly;
};

Leg
reinforcedLeg(const SimConfig &base, unsigned depth)
{
    Leg l{"reinforced-d" + std::to_string(depth), base};
    l.cfg.cdp.depthThreshold = depth;
    return l;
}

Leg
strideOnlyLeg(const SimConfig &base)
{
    Leg l{"stride-only", base};
    l.cfg.cdp.enabled = false;
    return l;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    SimConfig base; // default machine and run lengths
    base.workloadSeed = seed;
    Workload w;
    w.name = name;
    if (name == "hit_compute" || name == "chase_miss") {
        base.workload = name == "hit_compute" ? "proE" : "verilog-gate";
        w.legs.push_back(reinforcedLeg(base, 3));
    } else if (name == "sweep_fanout") {
        base.workload = "specjbb-vsnet";
        w.threads = 2;
        w.legs.push_back(strideOnlyLeg(base));
        Leg stateless{"stateless-d3", base};
        stateless.cfg.cdp.reinforce = false;
        w.legs.push_back(stateless);
        for (unsigned d = 1; d <= 5; ++d)
            w.legs.push_back(reinforcedLeg(base, d));
        Leg markov{"stride-markov", base, /*forkable=*/false};
        markov.cfg.cdp.enabled = false;
        markov.cfg.markov.enabled = true;
        w.legs.push_back(markov);
        w.defaultLeg = 4; // reinforced-d3
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (hit_compute, chase_miss, "
                                    "sweep_fanout)");
    }
    w.strideOnly = strideOnlyLeg(base);
    return w;
}

// ------------------------------------------------------------ stats hashing

std::string
statsHash(const StatGroup &stats)
{
    std::ostringstream os;
    stats.dump(os);
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64
    for (const char c : os.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---------------------------------------------------------- sampled timing

/**
 * Times roughly one call in `period` and extrapolates to all calls.
 * Timing every call costs two clock reads per call, which inflates
 * the most-called layer (one generator call per uop) far more than
 * the rest; sampling keeps that cost at a few percent. Gaps are drawn
 * uniformly from [1, 2*period-1] so the sample cannot alias with a
 * periodic call pattern.
 */
class CallProbe
{
  public:
    static constexpr unsigned period = 64;

    template <typename F>
    decltype(auto)
    time(F &&f)
    {
        ++calls;
        if (--countdown != 0)
            return f();
        countdown = nextGap();
        const Span span(*this);
        return f();
    }

    void reset() { calls = samples = 0; sampledNs = 0.0; }

    /** Estimated host ns spent inside all calls, clock cost removed. */
    double
    estimateNs(double clock_ns) const
    {
        if (samples == 0)
            return 0.0;
        const double per = sampledNs / static_cast<double>(samples) -
                           clock_ns;
        return std::max(per, 0.0) * static_cast<double>(calls);
    }

    std::uint64_t calls = 0;

  private:
    struct Span
    {
        explicit Span(CallProbe &p) : probe(p), t0(Clock::now()) {}
        ~Span()
        {
            probe.sampledNs +=
                std::chrono::duration<double, std::nano>(Clock::now() -
                                                         t0)
                    .count();
            ++probe.samples;
        }
        CallProbe &probe;
        Clock::time_point t0;
    };

    unsigned
    nextGap()
    {
        rng ^= rng << 13;
        rng ^= rng >> 17;
        rng ^= rng << 5;
        return 1 + rng % (2 * period - 1);
    }

    std::uint64_t samples = 0;
    double sampledNs = 0.0;
    std::uint32_t rng = 0x9e3779b9u;
    unsigned countdown = 1;
};

/** Median cost of one back-to-back steady_clock read pair, in ns. */
double
calibrateClockNs()
{
    std::vector<double> d(4001);
    for (double &x : d) {
        const auto t0 = Clock::now();
        const auto t1 = Clock::now();
        x = std::chrono::duration<double, std::nano>(t1 - t0).count();
    }
    return median(d);
}

/** UopSource decorator: times the generator (layer `workloads`). */
class TimedSource final : public UopSource
{
  public:
    explicit TimedSource(UopSource &inner) : inner(inner) {}

    Uop
    next() override
    {
        return probe.time([this] { return inner.next(); });
    }

    const char *name() const override { return inner.name(); }
    void saveState(snap::Writer &w) const override { inner.saveState(w); }
    void loadState(snap::Reader &r) override { inner.loadState(r); }

    CallProbe probe;

  private:
    UopSource &inner;
};

/** CoreMemIf decorator: times the memory system (layers `memsys`,
 *  `core`, `prefetch`, which all run inside these calls). */
class TimedMem final : public CoreMemIf
{
  public:
    explicit TimedMem(CoreMemIf &inner) : inner(inner) {}

    Cycle
    load(Addr pc, Addr vaddr, Cycle now, bool pointer_load) override
    {
        return loads.time(
            [&] { return inner.load(pc, vaddr, now, pointer_load); });
    }

    Cycle
    store(Addr pc, Addr vaddr, Cycle now) override
    {
        return stores.time([&] { return inner.store(pc, vaddr, now); });
    }

    void
    advance(Cycle now) override
    {
        advances.time([&] { inner.advance(now); });
    }

    // Untimed: a cached-hint read, charged to the core's self time.
    Cycle nextEventCycle() const override { return inner.nextEventCycle(); }

    CallProbe loads, stores, advances;

  private:
    CoreMemIf &inner;
};

// ---------------------------------------------------------------- one sim

/** Layer measurements of one traced sim's measured phase (host
 *  times, call counts and deterministic work counts); summable. */
struct LayerSample
{
    double buildS = 0, runNs = 0, genNs = 0, loadNs = 0, storeNs = 0,
           advanceNs = 0;
    std::uint64_t imageFrames = 0, loadCalls = 0, storeCalls = 0,
                  advanceCalls = 0, fullAdvances = 0, skippedAdvances = 0,
                  linesScanned = 0, rescans = 0, candidates = 0,
                  l1Misses = 0, l2Misses = 0, pfDrops = 0, walks = 0,
                  cdpIssued = 0, cdpAccurate = 0, strideIssued = 0;

    LayerSample &
    operator+=(const LayerSample &o)
    {
        buildS += o.buildS;
        runNs += o.runNs;
        genNs += o.genNs;
        loadNs += o.loadNs;
        storeNs += o.storeNs;
        advanceNs += o.advanceNs;
        imageFrames += o.imageFrames;
        loadCalls += o.loadCalls;
        storeCalls += o.storeCalls;
        advanceCalls += o.advanceCalls;
        fullAdvances += o.fullAdvances;
        skippedAdvances += o.skippedAdvances;
        linesScanned += o.linesScanned;
        rescans += o.rescans;
        candidates += o.candidates;
        l1Misses += o.l1Misses;
        l2Misses += o.l2Misses;
        pfDrops += o.pfDrops;
        walks += o.walks;
        cdpIssued += o.cdpIssued;
        cdpAccurate += o.cdpAccurate;
        strideIssued += o.strideIssued;
        return *this;
    }
};

struct SimSample
{
    std::size_t leg = 0;
    bool ok = false;
    std::string error;
    std::string hash;
    double setupS = 0, warmS = 0, measS = 0, ipc = 0;
    std::uint64_t warmUops = 0, measUops = 0;
    // Position in the runner batch (seconds from batch start).
    double startS = 0, endS = 0;
    std::thread::id worker;
    LayerSample layer;
};

/** The untraced sim: exactly the product's `Simulator`. */
void
runPlain(const SimConfig &cfg, SimSample &s)
{
    auto t = Clock::now();
    Simulator sim(cfg);
    s.setupS = secondsSince(t);

    t = Clock::now();
    sim.warmup(cfg.warmupUops);
    s.warmS = secondsSince(t);
    s.warmUops = sim.core().retiredUops();

    t = Clock::now();
    const RunResult r = sim.measure(cfg.measureUops);
    s.measS = secondsSince(t);
    s.measUops = r.uops;
    s.ipc = r.ipc;
    s.hash = statsHash(sim.stats());
}

/** A workload image: the machine parts `Simulator` builds before the
 *  memory system (member order as in sim/simulator.hh). */
struct Image
{
    explicit Image(const SimConfig &cfg)
        : frames(/*base_pa=*/0, cfg.physFrames, /*scatter=*/true,
                 cfg.workloadSeed ^ 0xabcdef),
          pageTable(store, frames)
    {
        heap = std::make_unique<HeapAllocator>(
            store, pageTable, frames, defaultHeapBase,
            /*align_noise=*/0.05, cfg.workloadSeed ^ 0x5eed);
        source = makeBenchmark(findBenchmark(cfg.workload), *heap,
                               cfg.workloadSeed);
    }

    BackingStore store;
    FrameAllocator frames;
    PageTable pageTable;
    std::unique_ptr<HeapAllocator> heap;
    std::unique_ptr<UopSource> source;
};

/** The traced sim: `Simulator`'s wiring with timing decorators. */
void
runTraced(const SimConfig &cfg, double clock_ns, SimSample &s)
{
    LayerSample &l = s.layer;
    const auto t_setup = Clock::now();
    StatGroup stats;
    auto t = Clock::now();
    Image img(cfg);
    l.buildS = secondsSince(t);
    l.imageFrames = img.store.framesTouched();
    MemorySystem memsys(cfg, img.store, img.pageTable, &stats);
    TimedSource src(*img.source);
    TimedMem mem(memsys);
    OooCore cpu(cfg.core, src, mem, &stats);
    s.setupS = secondsSince(t_setup);

    t = Clock::now();
    cpu.run(cfg.warmupUops);
    memsys.checkInvariants();
    s.warmS = secondsSince(t);
    s.warmUops = cpu.retiredUops();

    // The measured phase, as Simulator::measure runs it.
    stats.resetAll();
    memsys.resetCounters();
    cpu.resetMeasurement();
    src.probe.reset();
    mem.loads.reset();
    mem.stores.reset();
    mem.advances.reset();
    const ContentPrefetcher &cdp = memsys.contentPf();
    const std::uint64_t full0 = memsys.fullAdvanceCount(),
                        skip0 = memsys.skippedAdvanceCount(),
                        scan0 = cdp.linesScanned(),
                        resc0 = cdp.rescanCount(),
                        cand0 = cdp.candidatesFound();
    const std::uint64_t u0 = cpu.retiredUops();
    t = Clock::now();
    const Cycle cycles = cpu.run(cfg.measureUops);
    s.measS = secondsSince(t);
    memsys.checkInvariants();

    s.measUops = cpu.retiredUops() - u0;
    s.ipc = cycles ? static_cast<double>(s.measUops) / cycles : 0.0;
    s.hash = statsHash(stats);
    l.runNs = s.measS * 1e9;
    l.genNs = src.probe.estimateNs(clock_ns);
    l.loadNs = mem.loads.estimateNs(clock_ns);
    l.loadCalls = mem.loads.calls;
    l.storeNs = mem.stores.estimateNs(clock_ns);
    l.storeCalls = mem.stores.calls;
    l.advanceNs = mem.advances.estimateNs(clock_ns);
    l.advanceCalls = mem.advances.calls;
    l.fullAdvances = memsys.fullAdvanceCount() - full0;
    l.skippedAdvances = memsys.skippedAdvanceCount() - skip0;
    l.linesScanned = cdp.linesScanned() - scan0;
    l.rescans = cdp.rescanCount() - resc0;
    l.candidates = cdp.candidatesFound() - cand0;
    const MemorySystem::Counters &k = memsys.counters();
    l.l1Misses = k.l1Misses;
    l.l2Misses = k.l2DemandMisses;
    l.pfDrops = k.pfDropL2Hit + k.pfDropInflight + k.pfDropQueued +
                k.pfDropBusFull + k.pfDropUnmapped + k.pfDropArbiter;
    l.walks = k.demandWalks + k.prefetchWalks;
    l.cdpIssued = k.cdpIssued;
    for (const std::uint64_t d : k.depthAccurate)
        l.cdpAccurate += d;
    l.strideIssued = k.strideIssued;
}

// --------------------------------------------------------------- one rep

/** Run @p f for sample @p s; an exception marks the sim failed. */
template <typename F>
void
attempt(SimSample &s, F &&f)
{
    try {
        f();
        s.ok = true;
    } catch (const std::exception &e) {
        s.error = e.what();
    }
}

/** One full run of the workload: every leg through SimRunner::map. */
struct Rep
{
    bool traced = false;
    double wallS = 0;
    unsigned workers = 1;
    std::vector<SimSample> sims;
};

Rep
runRep(runner::SimRunner &pool, const std::vector<Leg> &legs, bool traced,
       double clock_ns)
{
    Rep rep;
    rep.traced = traced;
    rep.workers = pool.jobCount();
    const auto t0 = Clock::now();
    rep.sims = pool.map(legs.size(), [&](std::size_t i) {
        SimSample s;
        s.leg = i;
        s.worker = std::this_thread::get_id();
        s.startS = secondsSince(t0);
        attempt(s, [&] {
            if (traced)
                runTraced(legs[i].cfg, clock_ns, s);
            else
                runPlain(legs[i].cfg, s);
        });
        s.endS = secondsSince(t0);
        return s;
    });
    rep.wallS = secondsSince(t0);
    return rep;
}

// ------------------------------------------------------------ correctness

/** Counts sims against their pinned and first-seen stats hashes. */
class HashCheck
{
  public:
    explicit HashCheck(std::map<std::string, std::string> pinned)
        : expected(std::move(pinned))
    {}

    void
    note(const std::string &tag, const SimSample &s)
    {
        ++attempted;
        std::string why;
        if (!s.ok) {
            why = "exception: " + s.error;
        } else if (auto it = expected.find(tag);
                   it != expected.end() && it->second != s.hash) {
            why = "stats hash " + s.hash + " != pinned " + it->second;
        } else if (auto [it, fresh] = seen.emplace(tag, s.hash);
                   !fresh && it->second != s.hash) {
            why = "stats hash " + s.hash + " != first run " + it->second;
        }
        if (!why.empty()) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED %s: %s\n",
                         tag.c_str(), why.c_str());
        }
    }

    std::uint64_t attempted = 0, failed = 0;
    std::map<std::string, std::string> seen;

  private:
    std::map<std::string, std::string> expected;
};

// ------------------------------------------------------------ extra probes

/** ns per line of ContentPrefetcher::scanFill over the image's own
 *  lines (up to 4096, evenly spread over the heap), as demand fills. */
double
scanNsPerLine(const SimConfig &cfg)
{
    const Image img(cfg);
    const HeapAllocator &heap = *img.heap;
    const Addr first = heap.heapBase();
    const Addr n_lines = heap.bytesAllocated() / lineBytes;
    const Addr step = std::max<Addr>(1, (n_lines + 4095) / 4096);
    std::vector<std::uint8_t> bytes;
    std::vector<Addr> vas;
    for (Addr i = 0; i < n_lines; i += step) {
        const Addr va = first + i * lineBytes;
        vas.push_back(va);
        for (Addr w = 0; w < lineBytes; w += 4) {
            const std::uint32_t v = heap.read32(va + w);
            for (unsigned b = 0; b < 4; ++b)
                bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
        }
    }
    if (vas.empty())
        throw std::runtime_error("workload image has no heap lines");

    ContentPrefetcher pf(cfg.cdp);
    std::vector<double> per_line;
    for (int pass = 0; pass < 101; ++pass) {
        const auto t = Clock::now();
        for (std::size_t i = 0; i < vas.size(); ++i)
            pf.scanFill(&bytes[i * lineBytes], vas[i], /*fill_depth=*/0);
        per_line.push_back(secondsSince(t) * 1e9 /
                           static_cast<double>(vas.size()));
    }
    return median(per_line);
}

struct SnapshotCost
{
    double saveS = 0, restoreS = 0;
    std::uint64_t bytes = 0;
};

/** Checkpoint the warmed default leg once; restore into every leg
 *  whose guarded config allows it. */
SnapshotCost
snapshotCost(const Workload &w, HashCheck &check)
{
    SnapshotCost c;
    const Leg &def = w.legs[w.defaultLeg];
    Simulator sim(def.cfg);
    sim.warmup(def.cfg.warmupUops);
    sim.quiesce();
    std::ostringstream os;
    auto t = Clock::now();
    sim.saveCheckpoint(os);
    c.saveS = secondsSince(t);
    const std::string bytes = os.str();
    c.bytes = bytes.size();

    std::vector<double> restores;
    for (const Leg &leg : w.legs) {
        if (!leg.forkable)
            continue;
        ++check.attempted;
        try {
            Simulator fork(leg.cfg);
            std::istringstream is(bytes);
            t = Clock::now();
            fork.restoreCheckpoint(is);
            restores.push_back(secondsSince(t));
        } catch (const std::exception &e) {
            ++check.failed;
            std::fprintf(stderr, "perfbench: FAILED restore into %s: %s\n",
                         leg.tag.c_str(), e.what());
        }
    }
    c.restoreS = median(restores);
    return c;
}

// ------------------------------------------------------------ fingerprint

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

/** The VAM dispatch level, if this tree still has runtime dispatch. */
template <typename V = Vam>
std::string
simdLevel()
{
    if constexpr (requires { V::detectSimdLevel(); }) {
        static const char *const names[] = {"scalar", "sse2", "avx2"};
        const auto i = static_cast<unsigned>(V::detectSimdLevel());
        return i < 3 ? names[i] : std::to_string(i);
    } else {
        return "scalar";
    }
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
fingerprint(unsigned threads)
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#ifdef CDP_ENABLE_CHECKS
    const bool checks = true;
#else
    const bool checks = false;
#endif
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": " << jsonStr(cpuModel())
       << ", \"compiler\": " << jsonStr(compiler)
       << ", \"build_type\": " << jsonStr(PERFBENCH_BUILD_TYPE)
       << ", \"simd\": " << jsonStr(simdLevel())
       << ", \"trace_tier\": "
       << jsonStr(CDP_TRACE_ENABLED ? "compiled-in" : "compiled-out")
       << ", \"checks\": " << (checks ? "true" : "false")
       << ", \"runner_threads\": " << threads << "}";
    return os.str();
}

// ------------------------------------------------------------------ output

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            throw std::runtime_error("metric " + name + " is not finite");
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        body += (body.empty() ? "" : ", ") + jsonStr(name) +
                ": {\"value\": " + buf + ", \"unit\": " + jsonStr(unit) +
                "}";
    }

    /** Quantile @p q of per-rep values; min/median/max/n go to the
     *  detail line. */
    void
    addQuantile(const std::string &name, const std::vector<double> &v,
                double q, const char *unit)
    {
        add(name, quantile(v, q), unit);
        if (v.empty())
            return;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "{\"min\": %.6g, \"median\": %.6g, \"max\": %.6g, "
                      "\"n\": %zu}",
                      *std::min_element(v.begin(), v.end()), median(v),
                      *std::max_element(v.begin(), v.end()), v.size());
        range += (range.empty() ? "" : ", ") + jsonStr(name) + ": " + buf;
    }

    void
    addMedian(const std::string &name, const std::vector<double> &v,
              const char *unit)
    {
        addQuantile(name, v, 0.5, unit);
    }

    std::string body, range;
};

/**
 * Peak resident set of this process in MB: VmHWM from the kernel's
 * view of the process itself. getrusage's ru_maxrss is not used
 * because Linux carries it across execve, so it would report the
 * launching interpreter's footprint when that is larger.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(f);
    if (kib <= 0)
        throw std::runtime_error("no VmHWM in /proc/self/status");
    return kib / 1024.0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = SimConfig{}.workloadSeed;
    double seconds = 10;
    bool trace = false;
    std::map<std::string, std::string> expect;
};

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value after " + a);
        const std::string v = argv[++i];
        std::size_t end = 0;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            if (v.empty() || v[0] == '-') // stoull would wrap "-1"
                throw std::invalid_argument("--seed must be >= 0");
            o.seed = std::stoull(v, &end);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v, &end);
            if (!(o.seconds > 0) || !std::isfinite(o.seconds))
                throw std::invalid_argument("--seconds must be finite "
                                            "and > 0");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--expect") {
            const auto eq = v.find('=');
            if (eq == std::string::npos)
                throw std::invalid_argument("--expect takes TAG=HASH");
            o.expect[v.substr(0, eq)] = v.substr(eq + 1);
        } else {
            throw std::invalid_argument("unknown argument " + a);
        }
        if (end != 0 && end != v.size())
            throw std::invalid_argument("malformed value for " + a + ": " +
                                        v);
    }
    if (o.workload.empty())
        throw std::invalid_argument("--workload is required");
    return o;
}

/** Sums over the sims of one rep. */
struct RepTotals
{
    double setupS = 0, warmS = 0, warmUops = 0, measS = 0, measUops = 0;
    LayerSample layer; //!< traced reps only
};

RepTotals
totals(const Rep &r)
{
    RepTotals t;
    for (const SimSample &s : r.sims) {
        t.setupS += s.setupS;
        t.warmS += s.warmS;
        t.warmUops += static_cast<double>(s.warmUops);
        t.measS += s.measS;
        t.measUops += static_cast<double>(s.measUops);
        t.layer += s.layer;
    }
    return t;
}

/**
 * End-to-end metrics of the untraced reps. Throughput is summed
 * simulated uops over summed per-sim host seconds, i.e. per runner
 * thread, so it does not depend on the worker count.
 */
void
addEndToEnd(Metrics &m, const std::vector<Rep> &reps, double ipc,
            double stride_ipc)
{
    std::vector<double> setup, warm, meas, wall;
    for (const Rep &r : reps) {
        const RepTotals t = totals(r);
        setup.push_back(t.setupS);
        warm.push_back(t.warmUops / t.warmS);
        meas.push_back(t.measUops / t.measS);
        wall.push_back(r.wallS);
    }
    // The slow quartile over reps: the level three reps in four reach.
    // The host switches between a fast and a slow state for seconds to
    // minutes, so a run's median jumps between the two whenever neither
    // holds most of the run; the slow quartile stays put as long as the
    // slow state holds a quarter of it (README.md, "Noise").
    m.addQuantile("setup_s", setup, 0.75, "s");
    m.addQuantile("warmup_uops_per_s", warm, 0.25, "uops/s");
    m.addQuantile("measure_uops_per_s", meas, 0.25, "uops/s");
    m.addQuantile("run_wall_s", wall, 0.75, "s");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    m.add("sim_ipc", ipc, "uops/cycle");
    m.add("cdp_speedup", stride_ipc > 0 ? ipc / stride_ipc : 0, "x");
}

/**
 * Per-layer metrics. Host times come from the traced reps, scheduling
 * and the tracing baseline from the untraced reps between them, and
 * the deterministic work counts from the first traced rep.
 */
void
addPerLayer(Metrics &m, const Workload &w, const std::vector<Rep> &reps,
            HashCheck &check)
{
    std::vector<double> build, gen_ns, gen_share, self_ns, load_ns, adv_ns,
        mem_share, plain_ups, traced_ups, busy, tail;
    for (const Rep &r : reps) {
        const RepTotals t = totals(r);
        if (!r.traced) {
            plain_ups.push_back(t.measUops / t.measS);
            // Busy: share of worker time inside jobs. Tail: how long
            // the first worker to run dry idles before the batch ends.
            std::map<std::thread::id, double> last_end;
            double busy_s = 0;
            for (const SimSample &s : r.sims) {
                busy_s += s.endS - s.startS;
                last_end[s.worker] = std::max(last_end[s.worker], s.endS);
            }
            double dry = last_end.size() < r.workers ? 0 : r.wallS;
            for (const auto &kv : last_end)
                dry = std::min(dry, kv.second);
            busy.push_back(busy_s / (r.workers * r.wallS));
            tail.push_back(r.wallS - dry);
            continue;
        }
        const LayerSample &l = t.layer;
        const double mem_ns = l.loadNs + l.storeNs + l.advanceNs;
        // Core self time: the run span minus its sampled children, so
        // the three shares sum to the traced run time.
        const double self = l.runNs - l.genNs - mem_ns;
        traced_ups.push_back(t.measUops / t.measS);
        build.push_back(l.buildS);
        gen_ns.push_back(l.genNs / t.measUops);
        gen_share.push_back(l.genNs / l.runNs);
        self_ns.push_back(self / t.measUops);
        load_ns.push_back(l.loadNs / std::max<double>(1, l.loadCalls));
        adv_ns.push_back(l.advanceNs / std::max<double>(1, l.advanceCalls));
        mem_share.push_back(mem_ns / l.runNs);
    }
    const RepTotals first = totals(*std::find_if(
        reps.begin(), reps.end(), [](const Rep &r) { return r.traced; }));
    const LayerSample &c = first.layer;
    const double kuops = first.measUops / 1000.0;
    const auto per_kuop = [kuops](std::uint64_t n) {
        return static_cast<double>(n) / kuops;
    };
    const char *pk = "1/kuop";

    m.addMedian("workloads.build_s", build, "s");
    m.add("workloads.image_frames", c.imageFrames, "frames");
    m.addMedian("workloads.gen_ns_per_uop", gen_ns, "ns");
    m.addMedian("workloads.gen_share", gen_share, "fraction");
    m.addMedian("cpu.self_ns_per_uop", self_ns, "ns");
    // The remainder of the median shares, so the three sum to the
    // traced run time exactly.
    m.add("cpu.self_share", 1 - median(gen_share) - median(mem_share),
          "fraction");
    m.add("cpu.mem_calls_per_kuop",
          per_kuop(c.loadCalls + c.storeCalls + c.advanceCalls), pk);
    m.addMedian("memsys.load_ns", load_ns, "ns");
    m.addMedian("memsys.advance_ns", adv_ns, "ns");
    m.addMedian("memsys.share", mem_share, "fraction");
    m.add("memsys.full_advance_per_kuop", per_kuop(c.fullAdvances), pk);
    m.add("memsys.skipped_advance_per_kuop", per_kuop(c.skippedAdvances),
          pk);
    m.add("memsys.l1_miss_per_kuop", per_kuop(c.l1Misses), pk);
    m.add("memsys.l2_miss_per_kuop", per_kuop(c.l2Misses), pk);
    m.add("memsys.pf_drop_per_kuop", per_kuop(c.pfDrops), pk);
    m.add("memsys.walks_per_kuop", per_kuop(c.walks), pk);
    m.add("core.lines_scanned_per_kuop", per_kuop(c.linesScanned), pk);
    m.add("core.rescans_per_kuop", per_kuop(c.rescans), pk);
    m.add("core.candidates_per_kuop", per_kuop(c.candidates), pk);
    m.add("core.cdp_issued_per_kuop", per_kuop(c.cdpIssued), pk);
    m.add("core.cdp_issued", c.cdpIssued, "count");
    m.add("core.cdp_accurate_ratio",
          c.cdpIssued ? static_cast<double>(c.cdpAccurate) / c.cdpIssued : 0,
          "ratio");
    m.add("core.scan_ns_per_line", scanNsPerLine(w.legs[w.defaultLeg].cfg),
          "ns");
    m.add("prefetch.stride_issued_per_kuop", per_kuop(c.strideIssued), pk);
    m.addMedian("runner.busy_frac", busy, "fraction");
    m.addMedian("runner.tail_idle_s", tail, "s");
    const SnapshotCost snap = snapshotCost(w, check);
    m.add("snapshot.save_s", snap.saveS, "s");
    m.add("snapshot.restore_s", snap.restoreS, "s");
    m.add("snapshot.bytes", snap.bytes, "bytes");
    m.add("trace.overhead_frac", median(plain_ups) / median(traced_ups) - 1,
          "fraction");
}

int
run(const Options &opt)
{
    const Workload w = makeWorkload(opt.workload, opt.seed);
    const double clock_ns = calibrateClockNs();
    std::printf("fingerprint %s\n", fingerprint(w.threads).c_str());
    std::fflush(stdout);

    HashCheck check(opt.expect);
    const auto tag = [&w](const Leg &l) { return w.name + "/" + l.tag; };

    SimSample stride;
    attempt(stride, [&] { runPlain(w.strideOnly.cfg, stride); });
    check.note(tag(w.strideOnly), stride);

    // The closed loop: whole reps until the time budget is spent;
    // --trace 1 alternates untraced and traced reps.
    runner::SimRunner pool(w.threads);
    std::vector<Rep> reps;
    // At least three traced reps, so a median can outvote one bad rep.
    const std::size_t min_reps = opt.trace ? 6 : 3;
    const auto start = Clock::now();
    while (reps.size() < min_reps || secondsSince(start) < opt.seconds) {
        const bool traced = opt.trace && reps.size() % 2 == 1;
        reps.push_back(runRep(pool, w.legs, traced, clock_ns));
        for (const SimSample &s : reps.back().sims)
            check.note(tag(w.legs[s.leg]), s);
    }

    Metrics m;
    if (opt.trace)
        addPerLayer(m, w, reps, check);
    else
        addEndToEnd(m, reps, reps.front().sims[w.defaultLeg].ipc,
                    stride.ipc);

    std::string hashes;
    for (const auto &[t, h] : check.seen)
        hashes += (hashes.empty() ? "" : ", ") + jsonStr(t) + ": " +
                  jsonStr(h);
    // The paper's average reinforced-CDP speedup, printed beside
    // cdp_speedup as a reference only: the model is unvalidated.
    std::printf("detail {\"workload\": %s, \"seed\": %llu, \"reps\": %zu, "
                "\"paper_cdp_speedup_reference\": 1.126, "
                "\"stats_hashes\": {%s}, \"range\": {%s}}\n",
                jsonStr(w.name).c_str(),
                static_cast<unsigned long long>(opt.seed), reps.size(),
                hashes.c_str(), m.range.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                check.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(check.attempted),
                static_cast<unsigned long long>(check.failed),
                m.body.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
