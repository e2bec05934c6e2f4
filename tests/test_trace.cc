/** @file Unit tests for uop-trace capture and replay. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/trace.hh"
#include "workloads/builders.hh"
#include "workloads/generators.hh"

using namespace cdp;

namespace
{

/** Temp-file path helper; files are removed in TearDown. */
struct TraceFixture : ::testing::Test
{
    std::string path;

    void
    SetUp() override
    {
        path = ::testing::TempDir() + "cdp_trace_test_" +
               std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
               ".cdpt";
    }

    void TearDown() override { std::remove(path.c_str()); }
};

Uop
sampleUop(unsigned i)
{
    Uop u;
    u.type = static_cast<UopType>(i % 6);
    u.pc = 0x1000 + 4 * i;
    u.vaddr = 0x10000000 + 64 * i;
    u.src0 = static_cast<std::int8_t>(i % 32);
    u.src1 = (i % 3) ? noReg : static_cast<std::int8_t>(i % 7);
    u.dst = static_cast<std::int8_t>((i + 1) % 32);
    u.taken = (i % 2) != 0;
    u.pointerLoad = (i % 5) == 0;
    return u;
}

bool
sameUop(const Uop &a, const Uop &b)
{
    return a.type == b.type && a.pc == b.pc && a.vaddr == b.vaddr &&
           a.src0 == b.src0 && a.src1 == b.src1 && a.dst == b.dst &&
           a.taken == b.taken && a.pointerLoad == b.pointerLoad;
}

} // namespace

TEST_F(TraceFixture, RoundTripPreservesEveryField)
{
    {
        TraceWriter w(path, "unit-test");
        for (unsigned i = 0; i < 500; ++i)
            w.append(sampleUop(i));
        w.close();
    }
    TraceReader r(path);
    EXPECT_EQ(r.count(), 500u);
    EXPECT_EQ(r.workloadTag(), "unit-test");
    Uop u;
    for (unsigned i = 0; i < 500; ++i) {
        ASSERT_TRUE(r.next(u)) << i;
        EXPECT_TRUE(sameUop(u, sampleUop(i))) << "uop " << i;
    }
    EXPECT_FALSE(r.next(u));
}

TEST_F(TraceFixture, EmptyTraceReadsNothing)
{
    {
        TraceWriter w(path, "empty");
        w.close();
    }
    TraceReader r(path);
    EXPECT_EQ(r.count(), 0u);
    Uop u;
    EXPECT_FALSE(r.next(u));
}

TEST_F(TraceFixture, WriterCountTracksAppends)
{
    TraceWriter w(path, "t");
    for (unsigned i = 0; i < 7; ++i)
        w.append(sampleUop(i));
    EXPECT_EQ(w.count(), 7u);
    w.close();
}

TEST_F(TraceFixture, AppendAfterCloseThrows)
{
    TraceWriter w(path, "t");
    w.close();
    EXPECT_THROW(w.append(sampleUop(0)), std::logic_error);
}

TEST_F(TraceFixture, BadMagicRejected)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace file at all", f);
    std::fclose(f);
    EXPECT_THROW(TraceReader r(path), std::runtime_error);
}

TEST_F(TraceFixture, MissingFileRejected)
{
    EXPECT_THROW(TraceReader r("/nonexistent/dir/x.cdpt"),
                 std::runtime_error);
}

TEST_F(TraceFixture, TraceSourceLoopsForever)
{
    {
        TraceWriter w(path, "loop");
        for (unsigned i = 0; i < 10; ++i)
            w.append(sampleUop(i));
        w.close();
    }
    TraceSource src(path);
    for (unsigned lap = 0; lap < 3; ++lap) {
        for (unsigned i = 0; i < 10; ++i)
            EXPECT_TRUE(sameUop(src.next(), sampleUop(i)))
                << "lap " << lap << " uop " << i;
    }
    EXPECT_EQ(src.wraps(), 2u);
}

TEST_F(TraceFixture, EmptyTraceSourceRejected)
{
    {
        TraceWriter w(path, "empty");
        w.close();
    }
    EXPECT_THROW(TraceSource src(path), std::runtime_error);
}

TEST_F(TraceFixture, CapturedWorkloadReplaysIdentically)
{
    // Capture a real generator's stream, then replay it and compare.
    BackingStore store;
    FrameAllocator frames{0, 8192, true, 3};
    PageTable pt{store, frames};
    HeapAllocator heap{store, pt, frames};
    Rng rng{5};
    BuiltList list = buildLinkedList(heap, 64, 64, 8, 2, rng);
    BuiltList list_copy = list;

    WalkOptions w;
    ListTraversalGen gen(heap, list, 0x1000, 0, w, 42);
    std::vector<Uop> reference;
    {
        CapturingSource cap(gen, path, "list/seed42");
        for (int i = 0; i < 300; ++i)
            reference.push_back(cap.next());
        cap.finish();
        EXPECT_EQ(cap.captured(), 300u);
    }

    TraceSource replay(path);
    EXPECT_EQ(std::string(replay.name()), "trace:list/seed42");
    for (int i = 0; i < 300; ++i)
        EXPECT_TRUE(sameUop(replay.next(), reference[i])) << i;
    (void)list_copy;
}
