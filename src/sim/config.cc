#include "sim/config.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace cdp
{

namespace
{

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &why)
{
    throw std::invalid_argument("config " + key + "=" + value + ": " +
                                why);
}

/**
 * Store the unsigned decimal @p value, times @p scale, into @p field.
 * The whole string must be digits (no sign, no blanks, no suffix),
 * and the scaled value must fit the field.
 */
template <typename T>
void
setUnsigned(T &field, const std::string &key, const std::string &value,
            std::uint64_t scale = 1)
{
    static_assert(std::is_unsigned_v<T>);
    std::uint64_t v = 0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec == std::errc::invalid_argument || ptr != end)
        badValue(key, value, "expected an unsigned integer");
    const std::uint64_t max = std::numeric_limits<T>::max() / scale;
    if (ec == std::errc::result_out_of_range || v > max)
        badValue(key, value,
                 "out of range (max " + std::to_string(max) + ")");
    field = static_cast<T>(v * scale);
}

bool
toBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on" ||
        value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "off" ||
        value == "no")
        return false;
    badValue(key, value, "expected 1/true/on/yes or 0/false/off/no");
}

/** A finite, unsigned decimal number; the whole string must parse. */
double
toDouble(const std::string &key, const std::string &value)
{
    double v = 0.0;
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (value.empty() || value[0] == '-' || ec != std::errc() ||
        ptr != end || !std::isfinite(v))
        badValue(key, value, "expected an unsigned decimal number");
    return v;
}

} // namespace

void
SimConfig::scaleRunLength(double factor)
{
    if (factor <= 0.0)
        throw std::invalid_argument("scaleRunLength: factor must be > 0");
    warmupUops = static_cast<std::uint64_t>(warmupUops * factor);
    measureUops = static_cast<std::uint64_t>(measureUops * factor);
    if (warmupUops == 0)
        warmupUops = 1;
    if (measureUops == 0)
        measureUops = 1;
}

bool
SimConfig::applyOverride(const std::string &key, const std::string &value)
{
    // Core.
    if (key == "core.issue_width") setUnsigned(core.issueWidth, key, value);
    else if (key == "core.rob") setUnsigned(core.robEntries, key, value);
    else if (key == "core.load_buffer")
        setUnsigned(core.loadBuffer, key, value);
    else if (key == "core.store_buffer")
        setUnsigned(core.storeBuffer, key, value);
    else if (key == "core.mispredict_penalty")
        setUnsigned(core.mispredictPenalty, key, value);
    // Memory hierarchy.
    else if (key == "mem.l1_kb") setUnsigned(mem.l1Bytes, key, value, 1024);
    else if (key == "mem.l2_kb") setUnsigned(mem.l2Bytes, key, value, 1024);
    else if (key == "mem.l2_ways") setUnsigned(mem.l2Ways, key, value);
    else if (key == "mem.dtlb_entries")
        setUnsigned(mem.dtlbEntries, key, value);
    else if (key == "mem.dtlb_ways") setUnsigned(mem.dtlbWays, key, value);
    else if (key == "mem.bus_latency") setUnsigned(mem.busLatency, key, value);
    else if (key == "mem.bus_occupancy")
        setUnsigned(mem.busOccupancy, key, value);
    else if (key == "mem.bus_queue") setUnsigned(mem.busQueueSize, key, value);
    else if (key == "mem.l2_queue") setUnsigned(mem.l2QueueSize, key, value);
    // Stride prefetcher.
    else if (key == "stride.enabled") stride.enabled = toBool(key, value);
    else if (key == "stride.policy") {
        if (value != "stride" && value != "nextline")
            throw std::invalid_argument(
                "stride.policy must be 'stride' or 'nextline'");
        stride.policy = value;
    }
    else if (key == "stride.degree") setUnsigned(stride.degree, key, value);
    else if (key == "stride.entries")
        setUnsigned(stride.tableEntries, key, value);
    // Markov prefetcher.
    else if (key == "markov.enabled") markov.enabled = toBool(key, value);
    else if (key == "markov.stab_kb")
        setUnsigned(markov.stabBytes, key, value, 1024);
    else if (key == "markov.fanout") setUnsigned(markov.fanout, key, value);
    // Content prefetcher.
    else if (key == "cdp.enabled") cdp.enabled = toBool(key, value);
    else if (key == "cdp.compare_bits")
        setUnsigned(cdp.vam.compareBits, key, value);
    else if (key == "cdp.filter_bits")
        setUnsigned(cdp.vam.filterBits, key, value);
    else if (key == "cdp.align_bits")
        setUnsigned(cdp.vam.alignBits, key, value);
    else if (key == "cdp.scan_step") setUnsigned(cdp.vam.scanStep, key, value);
    else if (key == "cdp.depth") setUnsigned(cdp.depthThreshold, key, value);
    else if (key == "cdp.next_lines") setUnsigned(cdp.nextLines, key, value);
    else if (key == "cdp.prev_lines") setUnsigned(cdp.prevLines, key, value);
    else if (key == "cdp.reinforce") cdp.reinforce = toBool(key, value);
    else if (key == "cdp.reinforce_min_delta")
        setUnsigned(cdp.reinforceMinDelta, key, value);
    else if (key == "cdp.scan_page_walks")
        cdp.scanPageWalkFills = toBool(key, value);
    else if (key == "cdp.scan_width")
        cdp.scanWidthFills = toBool(key, value);
    // Adaptive VAM controller (Section 4.1 future work).
    else if (key == "adaptive.enabled") adaptive.enabled = toBool(key, value);
    else if (key == "adaptive.epoch")
        setUnsigned(adaptive.epochPrefetches, key, value);
    else if (key == "adaptive.low_accuracy")
        adaptive.lowAccuracy = toDouble(key, value);
    else if (key == "adaptive.high_accuracy")
        adaptive.highAccuracy = toDouble(key, value);
    else if (key == "adaptive.adjust_width")
        adaptive.adjustWidth = toBool(key, value);
    // Pollution limit study.
    else if (key == "pollution.enabled")
        pollution.enabled = toBool(key, value);
    // Simulation scheduler (host-side; stats are mode-independent).
    else if (key == "sched.mode") {
        if (value != "wheel" && value != "legacy")
            throw std::invalid_argument(
                "sched.mode must be 'wheel' or 'legacy'");
        sched.mode = value;
    }
    // Lifecycle-event tracer (src/obs).
    else if (key == "trace.enabled") trace.enabled = toBool(key, value);
    else if (key == "trace.buffer")
        setUnsigned(trace.bufferEvents, key, value);
    // Run control.
    else if (key == "workload") workload = value;
    else if (key == "seed") setUnsigned(workloadSeed, key, value);
    else if (key == "warmup_uops") setUnsigned(warmupUops, key, value);
    else if (key == "measure_uops") setUnsigned(measureUops, key, value);
    else if (key == "scale") scaleRunLength(toDouble(key, value));
    else
        return false;
    return true;
}

void
SimConfig::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument(
                "expected key=value argument, got: " + arg);
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (!applyOverride(key, value))
            throw std::invalid_argument("unknown config key: " + key);
    }
    // cdplint: allow(nondeterminism) -- CDP_SCALE is an explicit
    // host-side knob; its value is captured into the config and
    // echoed in the config summary, so runs remain reproducible.
    if (const char *scale = std::getenv("CDP_SCALE"))
        scaleRunLength(toDouble("CDP_SCALE", scale));
}

std::string
SimConfig::summary() const
{
    std::ostringstream os;
    os << "machine: " << core.issueWidth << "-wide, ROB "
       << core.robEntries << ", LB " << core.loadBuffer << ", SB "
       << core.storeBuffer << ", bp gshare " << core.bpEntries
       << " (penalty " << core.mispredictPenalty << ")\n"
       << "mem: DL1 " << mem.l1Bytes / 1024 << "KB/" << mem.l1Ways
       << "w (" << mem.l1Latency << "cy), UL2 " << mem.l2Bytes / 1024
       << "KB/" << mem.l2Ways << "w (" << mem.l2Latency
       << "cy), DTLB " << mem.dtlbEntries << "/" << mem.dtlbWays
       << "w, bus " << mem.busLatency << "cy lat / "
       << mem.busOccupancy << "cy occ, queues L2=" << mem.l2QueueSize
       << " bus=" << mem.busQueueSize << "\n"
       << "stride: " << (stride.enabled ? "on" : "off") << " degree "
       << stride.degree << "; markov: "
       << (markov.enabled ? "on" : "off") << " stab "
       << markov.stabBytes / 1024 << "KB\n"
       << "cdp: " << (cdp.enabled ? "on" : "off") << " vam "
       << cdp.vam.label() << " depth " << cdp.depthThreshold << " "
       << cdp.widthLabel() << " reinforce "
       << (cdp.reinforce ? "on" : "off") << " (delta "
       << cdp.reinforceMinDelta << ")\n"
       << "run: workload " << workload << " seed " << workloadSeed
       << " warmup " << warmupUops << " measure " << measureUops;
    return os.str();
}

} // namespace cdp
