/**
 * @file
 * Capture-and-replay walkthrough: records a workload's uop stream to
 * a LIT-style trace file, replays it through a fresh simulation, and
 * verifies the replay is cycle-exact — the property that makes traces
 * useful for sharing workloads and bisecting timing changes.
 *
 * Usage: trace_replay [key=value ...]
 */

#include <cstdio>
#include <exception>

#include "sim/memory_system.hh"
#include "sim/simulator.hh"
#include "trace/trace.hh"

using namespace cdp;

int
main(int argc, char **argv)
{
    try {
        SimConfig cfg;
        cfg.parseArgs(argc, argv);
        cfg.scaleRunLength(0.25);
        const std::string path = "/tmp/cdp_example.cdpt";
        const std::uint64_t uops = cfg.warmupUops + cfg.measureUops;

        // Phase 1: run the generated workload, capturing its stream.
        // (Capture wraps the simulator's own source; the timing run
        // is the recording run.)
        std::printf("capturing %llu uops of '%s' to %s ...\n",
                    static_cast<unsigned long long>(uops),
                    cfg.workload.c_str(), path.c_str());

        Cycle recorded_cycles = 0;
        {
            Simulator sim(cfg);
            CapturingSource cap(sim.workload(), path,
                                cfg.workload + "/seed" +
                                    std::to_string(cfg.workloadSeed));
            // Drive a fresh core+memory from the capturing wrapper so
            // the trace holds exactly the uops a full run consumes.
            StatGroup stats;
            MemorySystem mem2(cfg, sim.workloadImage().backingStore(),
                              sim.workloadImage().pageTable(), &stats);
            OooCore core2(cfg.core, cap, mem2, &stats);
            recorded_cycles = core2.run(uops);
            cap.finish();
            std::printf("captured %llu uops, run took %llu cycles\n",
                        static_cast<unsigned long long>(cap.captured()),
                        static_cast<unsigned long long>(
                            recorded_cycles));
        }

        // Phase 2: replay the trace against an identical machine and
        // heap image (same workload spec + seed rebuilds the bytes).
        std::printf("replaying ...\n");
        Cycle replayed_cycles = 0;
        {
            const auto image = sharedWorkloadImage(
                cfg.workload, cfg.workloadSeed, cfg.physFrames);
            TraceSource replay(path);
            StatGroup stats;
            MemorySystem mem2(cfg, image->backingStore(),
                              image->pageTable(), &stats);
            OooCore core2(cfg.core, replay, mem2, &stats);
            replayed_cycles = core2.run(uops);
            std::printf("replayed run took %llu cycles (source: %s)\n",
                        static_cast<unsigned long long>(
                            replayed_cycles),
                        replay.name());
        }

        if (recorded_cycles == replayed_cycles) {
            std::printf("\nOK: replay is cycle-exact (%llu cycles)\n",
                        static_cast<unsigned long long>(
                            recorded_cycles));
            std::remove(path.c_str());
            return 0;
        }
        std::fprintf(stderr, "\nMISMATCH: %llu vs %llu cycles\n",
                     static_cast<unsigned long long>(recorded_cycles),
                     static_cast<unsigned long long>(replayed_cycles));
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
