/** @file
 * The shared workload image (DESIGN.md §11 "Shared workload image").
 *
 * Every live Simulator of one (workload, workload seed, physical
 * frames) reads one immutable image. These tests pin the sharing
 * contract: the same key gives the same image, any other key a
 * distinct one; the image dies with its last holder; machines sharing
 * an image on several threads produce exactly the stats of machines
 * with private images; and a checkpoint whose image sections disagree
 * with the shared image is refused without disturbing the machines
 * that share it.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/simulator.hh"
#include "snapshot/ckpt_io.hh"
#include "workloads/workload_image.hh"

using namespace cdp;

namespace
{

SimConfig
smallConfig(const std::string &workload = "b2c")
{
    SimConfig c;
    c.workload = workload;
    c.warmupUops = 5'000;
    c.measureUops = 20'000;
    return c;
}

std::string
dumpStats(Simulator &sim)
{
    std::ostringstream os;
    sim.stats().dump(os);
    return os.str();
}

/** Run @p sim's two-phase experiment and return its stats dump. */
std::string
runAndDump(Simulator &sim)
{
    sim.run();
    return dumpStats(sim);
}

/** 64-bit FNV-1a, as the checkpoint format checksums a payload. */
std::uint64_t
fnv1a(const std::string &data, std::size_t at, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = at; i < at + n; ++i) {
        h ^= static_cast<std::uint8_t>(data[i]);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
le64(const std::string &data, std::size_t at)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(data[at + i]))
             << (8 * i);
    return v;
}

/**
 * Flip one byte of section @p tag's payload, @p offset bytes from its
 * start (from its end if negative), and re-checksum the section, so
 * only the image check can catch it.
 */
std::string
corruptSection(std::string bytes, const char *tag, long offset)
{
    std::size_t at = 12; // magic + version
    while (at + 12 <= bytes.size()) {
        const std::uint64_t len = le64(bytes, at + 4);
        const std::size_t payload = at + 12;
        if (bytes.compare(at, 4, tag) == 0) {
            const std::size_t flip =
                payload + static_cast<std::size_t>(
                              offset < 0 ? static_cast<long>(len) + offset
                                         : offset);
            EXPECT_LT(flip, payload + len) << tag;
            bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5a);
            const std::uint64_t sum = fnv1a(bytes, payload, len);
            for (unsigned i = 0; i < 8; ++i)
                bytes[payload + len + i] =
                    static_cast<char>((sum >> (8 * i)) & 0xff);
            return bytes;
        }
        at = payload + len + 8;
    }
    ADD_FAILURE() << "no section " << tag;
    return bytes;
}

} // namespace

TEST(WorkloadImage, SameKeyGivesThePointerEqualImage)
{
    SimConfig a = smallConfig();
    SimConfig b = smallConfig();
    // Machine knobs are not part of the key.
    b.cdp.depthThreshold = 5;
    b.mem.l2Bytes = 512 * 1024;
    Simulator sa(a);
    Simulator sb(b);
    EXPECT_EQ(&sa.workloadImage(), &sb.workloadImage());
    EXPECT_EQ(sharedWorkloadImage(a.workload, a.workloadSeed,
                                  a.physFrames)
                  .get(),
              &sa.workloadImage());
}

TEST(WorkloadImage, DifferentWorkloadSeedOrFramesGiveDistinctImages)
{
    const SimConfig base = smallConfig();
    SimConfig workload = base;
    workload.workload = "proE";
    SimConfig seed = base;
    seed.workloadSeed = base.workloadSeed + 1;
    SimConfig frames = base;
    frames.physFrames = base.physFrames / 2;

    Simulator s0(base);
    for (const SimConfig &other : {workload, seed, frames}) {
        Simulator s1(other);
        EXPECT_NE(&s0.workloadImage(), &s1.workloadImage())
            << other.workload << " seed " << other.workloadSeed
            << " frames " << other.physFrames;
    }
}

TEST(WorkloadImage, ReleasedWhenTheLastSimulatorDies)
{
    const SimConfig cfg = smallConfig("proE");
    const std::size_t before = registeredWorkloadImages();
    std::weak_ptr<const WorkloadImage> weak;
    {
        Simulator a(cfg);
        weak = sharedWorkloadImage(cfg.workload, cfg.workloadSeed,
                                   cfg.physFrames);
        EXPECT_EQ(registeredWorkloadImages(), before + 1);
        {
            Simulator b(cfg);
            EXPECT_EQ(&a.workloadImage(), &b.workloadImage());
        }
        EXPECT_FALSE(weak.expired()) << "a still holds the image";
        EXPECT_EQ(registeredWorkloadImages(), before + 1);
    }
    EXPECT_TRUE(weak.expired());
    EXPECT_EQ(registeredWorkloadImages(), before);
}

TEST(WorkloadImage, ConcurrentSharersMatchSerialPrivateBuilds)
{
    // 8 machines over 2 keys, differing in machine knobs only within
    // a key, constructed and run on 4 threads at once.
    std::vector<SimConfig> cfgs;
    for (unsigned i = 0; i < 8; ++i) {
        SimConfig c = smallConfig(i % 2 ? "proE" : "b2c");
        c.cdp.depthThreshold = 1 + i / 2;
        c.stride.enabled = i % 4 != 3;
        cfgs.push_back(c);
    }

    // Serial, private: each machine dies before the next is built.
    std::vector<std::string> serial;
    for (const SimConfig &c : cfgs) {
        Simulator sim(c);
        serial.push_back(runAndDump(sim));
    }

    constexpr unsigned threads = 4;
    std::vector<std::string> shared(cfgs.size());
    std::vector<const WorkloadImage *> images(cfgs.size());
    std::vector<std::exception_ptr> errors(threads);
    std::barrier built(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            std::vector<std::unique_ptr<Simulator>> mine;
            try {
                for (std::size_t i = t; i < cfgs.size(); i += threads) {
                    mine.push_back(std::make_unique<Simulator>(cfgs[i]));
                    images[i] = &mine.back()->workloadImage();
                }
            } catch (...) {
                errors[t] = std::current_exception();
            }
            // Every machine is alive before any runs: the image of a
            // key is the same object on every thread.
            built.arrive_and_wait();
            try {
                for (std::size_t k = 0; k < mine.size(); ++k)
                    shared[t + k * threads] = runAndDump(*mine[k]);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(images[i], images[i % 2]) << "config " << i;
        EXPECT_EQ(shared[i], serial[i]) << "config " << i;
    }
    EXPECT_NE(images[0], images[1]);
}

TEST(WorkloadImage, CheckpointDisagreeingWithTheImageFailsNamingTheSection)
{
    const SimConfig cfg = smallConfig("specjbb-vsnet");
    constexpr std::uint64_t warm = 20'000;
    constexpr std::uint64_t measure = 20'000;

    std::string expected;
    {
        Simulator ref(cfg);
        ref.warmup(warm);
        ref.quiesce();
        ref.measure(measure);
        expected = dumpStats(ref);
    }

    Simulator live(cfg);
    live.warmup(warm);
    live.quiesce();
    std::ostringstream os;
    live.saveCheckpoint(os);
    const std::string bytes = os.str();

    // HEAP offset 8: the bump pointer. STOR offset 8 + 4 + 64: a byte
    // inside the first frame (after the count and its page number).
    // WKLD ends with the globals-segment allocator (u64 base, u32 top,
    // u32 mapped end, 16 RNG bytes): 24 from the end is its bump
    // pointer.
    const std::pair<const char *, long> cases[] = {
        {"HEAP", 8}, {"STOR", 8 + 4 + 64}, {"WKLD", -24}};
    for (const auto &[tag, offset] : cases) {
        Simulator victim(cfg);
        ASSERT_EQ(&victim.workloadImage(), &live.workloadImage());
        std::istringstream is(corruptSection(bytes, tag, offset));
        try {
            victim.restoreCheckpoint(is);
            ADD_FAILURE() << tag << " mismatch not detected";
        } catch (const snap::SnapshotError &e) {
            const std::string err = e.what();
            EXPECT_NE(err.find(std::string("'") + tag + "'"),
                      std::string::npos)
                << err;
            EXPECT_NE(err.find("workload image"), std::string::npos)
                << err;
        }
    }

    // The untouched checkpoint still restores into a sharer...
    {
        Simulator fork(cfg);
        std::istringstream is(bytes);
        fork.restoreCheckpoint(is);
        fork.measure(measure);
        EXPECT_EQ(dumpStats(fork), expected);
    }
    // ...and the live machine is unaffected by the refused restores.
    live.measure(measure);
    EXPECT_EQ(dumpStats(live), expected);
}
