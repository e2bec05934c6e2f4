/**
 * @file
 * Whole-machine checkpoint/restore (DESIGN.md §11).
 *
 * The Simulator's checkpoint members live here, next to the format
 * engine, so the section layout and the component serializers evolve
 * together. A checkpoint is a sequence of tagged sections:
 *
 *   CFG!  guarded configuration (name/value pairs, compared on load)
 *   STOR  BackingStore (sparse physical pages)
 *   FRAM  FrameAllocator
 *   PGTB  PageTable roots (table content lives in STOR)
 *   HEAP  HeapAllocator bump state
 *   WKLD  workload generator (name-guarded)
 *   MSYS  MemorySystem (caches, TLB, prefetchers, arbiter ledger)
 *   CORE  OooCore pipeline + branch predictor
 *   STAT  StatGroup scalar/distribution values
 *
 * The guarded configuration covers everything that shapes machine
 * *state*: restoring into a different geometry would silently corrupt
 * the run, so it fails loudly instead. The deliberately unguarded
 * knobs — cdp.*, adaptive.*, trace.*, run lengths — only shape future
 * *behaviour*; forking one warm checkpoint across a sweep of them is
 * the whole point of the subsystem.
 */

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "snapshot/ckpt_io.hh"

namespace cdp
{

namespace
{

/**
 * The guarded subset of the configuration as ordered name/value
 * pairs. Both ends build the same list, so a mismatch reports the
 * offending knob by name.
 */
std::vector<std::pair<std::string, std::string>>
guardedConfig(const SimConfig &cfg)
{
    std::vector<std::pair<std::string, std::string>> kv;
    const auto add = [&kv](const char *name, std::uint64_t v) {
        kv.emplace_back(name, std::to_string(v));
    };
    kv.emplace_back("workload", cfg.workload);
    add("workload_seed", cfg.workloadSeed);
    add("phys_frames", cfg.physFrames);

    add("core.issue_width", cfg.core.issueWidth);
    add("core.retire_width", cfg.core.retireWidth);
    add("core.rob_entries", cfg.core.robEntries);
    add("core.load_buffer", cfg.core.loadBuffer);
    add("core.store_buffer", cfg.core.storeBuffer);
    add("core.mispredict_penalty", cfg.core.mispredictPenalty);
    add("core.bp_entries", cfg.core.bpEntries);
    add("core.alu_latency", cfg.core.aluLatency);
    add("core.fp_latency", cfg.core.fpLatency);

    add("mem.l1_bytes", cfg.mem.l1Bytes);
    add("mem.l1_ways", cfg.mem.l1Ways);
    add("mem.l1_latency", cfg.mem.l1Latency);
    add("mem.l2_bytes", cfg.mem.l2Bytes);
    add("mem.l2_ways", cfg.mem.l2Ways);
    add("mem.l2_latency", cfg.mem.l2Latency);
    add("mem.dtlb_entries", cfg.mem.dtlbEntries);
    add("mem.dtlb_ways", cfg.mem.dtlbWays);
    add("mem.bus_latency", cfg.mem.busLatency);
    add("mem.bus_occupancy", cfg.mem.busOccupancy);
    add("mem.bus_queue", cfg.mem.busQueueSize);
    add("mem.l2_queue", cfg.mem.l2QueueSize);
    add("mem.drain_budget_cap", cfg.mem.drainBudgetCap);

    add("stride.enabled", cfg.stride.enabled ? 1 : 0);
    kv.emplace_back("stride.policy", cfg.stride.policy);
    add("stride.table_entries", cfg.stride.tableEntries);
    add("stride.degree", cfg.stride.degree);
    add("stride.conf_threshold", cfg.stride.confThreshold);

    add("markov.enabled", cfg.markov.enabled ? 1 : 0);
    add("markov.stab_bytes", cfg.markov.stabBytes);
    add("markov.ways", cfg.markov.ways);
    add("markov.fanout", cfg.markov.fanout);

    add("pollution.enabled", cfg.pollution.enabled ? 1 : 0);
    add("pollution.seed", cfg.pollution.seed);
    return kv;
}

} // namespace

void
Simulator::quiesce()
{
    memsys->drainAll(cpu->currentCycle());
}

// cdplint: requires_quiesced(memsys)
void
Simulator::saveCheckpoint(std::ostream &os) const
{
    snap::Writer w(os);

    w.beginSection("CFG!");
    const auto kv = guardedConfig(cfg);
    w.u64(kv.size());
    for (const auto &pair : kv) {
        w.str(pair.first);
        w.str(pair.second);
    }
    w.endSection();

    w.beginSection("STOR");
    image->backingStore().saveState(w);
    w.endSection();

    w.beginSection("FRAM");
    image->frameAllocator().saveState(w);
    w.endSection();

    w.beginSection("PGTB");
    image->pageTable().saveState(w);
    w.endSection();

    w.beginSection("HEAP");
    image->heap().saveState(w);
    w.endSection();

    w.beginSection("WKLD");
    w.str(source->name());
    source->saveState(w);
    w.endSection();

    w.beginSection("MSYS");
    memsys->saveState(w);
    w.endSection();

    w.beginSection("CORE");
    cpu->saveState(w);
    w.endSection();

    w.beginSection("STAT");
    statGroup.saveValues(w);
    w.endSection();

    w.finish();
}

/*
 * STOR, FRAM, PGTB, HEAP and the globals-segment allocator inside
 * WKLD hold the workload image. They are a pure function of guarded
 * knobs (workload, seed, physical frames) and no run writes simulated
 * memory, so a restore compares them byte for byte against the
 * shared image instead of loading them: other live machines read it.
 */
void
Simulator::restoreCheckpoint(std::istream &is)
{
    snap::Reader r(is);

    r.enterSection("CFG!");
    const auto kv = guardedConfig(cfg);
    r.expectU64(kv.size(), "guarded-config entry count");
    for (const auto &pair : kv) {
        r.expectStr(pair.first, "guarded-config key");
        r.expectStr(pair.second, pair.first.c_str());
    }
    r.leaveSection();

    r.enterSection("STOR");
    r.expectSaved(image->backingStore(), "workload image backing store");
    r.leaveSection();

    r.enterSection("FRAM");
    r.expectSaved(image->frameAllocator(),
                  "workload image frame allocator");
    r.leaveSection();

    r.enterSection("PGTB");
    r.expectSaved(image->pageTable(), "workload image page table");
    r.leaveSection();

    r.enterSection("HEAP");
    r.expectSaved(image->heap(), "workload image heap allocator");
    r.leaveSection();

    r.enterSection("WKLD");
    r.expectStr(source->name(), "workload generator");
    source->loadState(r);
    r.leaveSection();

    r.enterSection("MSYS");
    memsys->loadState(r);
    r.leaveSection();

    r.enterSection("CORE");
    cpu->loadState(r);
    r.leaveSection();

    r.enterSection("STAT");
    statGroup.loadValues(r);
    r.leaveSection();

    r.finish();
    memsys->checkInvariants();
}

// cdplint: requires_quiesced(memsys)
void
Simulator::saveCheckpointFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw snap::SnapshotError("cannot open checkpoint file '" +
                                  path + "' for writing");
    saveCheckpoint(os);
    os.flush();
    if (!os)
        throw snap::SnapshotError("write to checkpoint file '" + path +
                                  "' failed");
}

void
Simulator::restoreCheckpointFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw snap::SnapshotError("cannot open checkpoint file '" +
                                  path + "' for reading");
    restoreCheckpoint(is);
}

} // namespace cdp
