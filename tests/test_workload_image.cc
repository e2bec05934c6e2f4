/** @file
 * The shared workload image (DESIGN.md §11 "Shared workload image").
 *
 * Every live Simulator of one (workload, workload seed, physical
 * frames) reads one immutable image. These tests pin the sharing
 * contract: the same key gives the same image, any other key a
 * distinct one; the image dies with its last holder; machines sharing
 * an image on several threads produce exactly the stats of machines
 * with private images; a checkpoint that names another image is
 * refused without disturbing the machines that share this one; and
 * restores into sharers on several threads at once all match.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv1a.hh"
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
 * Recompute the checksum of section @p tag after an edit of its
 * payload, so only a semantic check can catch the edit.
 */
void
reseal(std::string &bytes, const char *tag)
{
    std::size_t at = 12; // magic + version
    while (at + 12 <= bytes.size()) {
        const std::uint64_t len = le64(bytes, at + 4);
        const std::size_t payload = at + 12;
        if (bytes.compare(at, 4, tag) == 0) {
            const std::uint64_t sum = fnv1a(bytes.data() + payload, len);
            for (unsigned i = 0; i < 8; ++i)
                bytes[payload + len + i] =
                    static_cast<char>((sum >> (8 * i)) & 0xff);
            return;
        }
        at = payload + len + 8;
    }
    ADD_FAILURE() << "no section " << tag;
}

/** Warm @p sim, quiesce it and return its checkpoint bytes. */
std::string
warmCheckpoint(Simulator &sim, std::uint64_t warm)
{
    sim.warmup(warm);
    sim.quiesce();
    std::ostringstream os;
    sim.saveCheckpoint(os);
    return os.str();
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
    const std::string bytes = warmCheckpoint(live, warm);

    // The guarded workload_image value is the image's content hash in
    // 16 hex digits, after the key and the value's u64 length. Change
    // its first digit and re-checksum CFG!: a checkpoint of another
    // image.
    std::string other = bytes;
    const std::size_t key = other.find("workload_image");
    ASSERT_NE(key, std::string::npos);
    const std::size_t digit = key + std::strlen("workload_image") + 8;
    other[digit] = other[digit] == '0' ? '1' : '0';
    reseal(other, "CFG!");
    {
        Simulator victim(cfg);
        ASSERT_EQ(&victim.workloadImage(), &live.workloadImage());
        std::istringstream is(other);
        try {
            victim.restoreCheckpoint(is);
            ADD_FAILURE() << "workload image mismatch not detected";
        } catch (const snap::SnapshotError &e) {
            const std::string err = e.what();
            EXPECT_NE(err.find("'CFG!'"), std::string::npos) << err;
            EXPECT_NE(err.find("workload_image"), std::string::npos)
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
    // ...and the live machine is unaffected by the refused restore.
    live.measure(measure);
    EXPECT_EQ(dumpStats(live), expected);
}

TEST(WorkloadImage, ConcurrentRestoresIntoSharersMatch)
{
    // 4 runner threads restore one checkpoint at once into machines
    // that share one image, each hashing it: all measure alike.
    const SimConfig cfg = smallConfig("proE");
    constexpr std::uint64_t warm = 20'000;
    constexpr std::uint64_t measure = 20'000;

    std::string bytes;
    std::string expected;
    {
        Simulator ref(cfg);
        bytes = warmCheckpoint(ref, warm);
        ref.measure(measure);
        expected = dumpStats(ref);
    }

    const auto image =
        sharedWorkloadImage(cfg.workload, cfg.workloadSeed, cfg.physFrames);
    constexpr unsigned threads = 4;
    std::vector<std::string> dumps(threads);
    std::vector<const WorkloadImage *> images(threads);
    std::vector<std::exception_ptr> errors(threads);
    std::barrier built(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            std::unique_ptr<Simulator> sim;
            try {
                sim = std::make_unique<Simulator>(cfg);
                images[t] = &sim->workloadImage();
            } catch (...) {
                errors[t] = std::current_exception();
            }
            built.arrive_and_wait();
            if (!sim)
                return;
            try {
                std::istringstream is(bytes);
                sim->restoreCheckpoint(is);
                sim->measure(measure);
                dumps[t] = dumpStats(*sim);
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

    for (unsigned t = 0; t < threads; ++t) {
        EXPECT_EQ(images[t], image.get()) << "thread " << t;
        EXPECT_EQ(dumps[t], expected) << "thread " << t;
    }
}
