/**
 * @file
 * Unit and differential tests for the fixed-capacity containers of
 * src/common (AddrTable, Ring, FixedVec) and the recent-issue ring
 * built from them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/addr_table.hh"
#include "common/fixed_vec.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "prefetch/recent_issue.hh"
#include "snapshot/ckpt_io.hh"

using namespace cdp;

namespace
{

/** The table's live contents, key-sorted. */
std::vector<std::pair<Addr, unsigned>>
contents(const AddrTable<unsigned> &t)
{
    std::vector<std::pair<Addr, unsigned>> out;
    for (const auto &s : t)
        out.emplace_back(s.key, s.value);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<Addr, unsigned>>
contents(const std::unordered_map<Addr, unsigned> &m)
{
    std::vector<std::pair<Addr, unsigned>> out(m.begin(), m.end());
    std::sort(out.begin(), out.end());
    return out;
}

/** @p n distinct keys whose probe runs all start at slot @p home. */
std::vector<Addr>
keysHomedAt(const AddrTable<unsigned> &t, std::size_t home, unsigned n)
{
    std::vector<Addr> keys;
    for (Addr k = 0; keys.size() < n; k += lineBytes) {
        if (t.homeSlot(k) == home)
            keys.push_back(k);
    }
    return keys;
}

} // namespace

TEST(AddrTable, SizesSlotsToTwiceCapacity)
{
    EXPECT_EQ(AddrTable<unsigned>(0).slotCount(), 4u);
    EXPECT_EQ(AddrTable<unsigned>(1).slotCount(), 4u);
    EXPECT_EQ(AddrTable<unsigned>(88).slotCount(), 256u);
    EXPECT_EQ(AddrTable<unsigned>(4096).slotCount(), 8192u);
    EXPECT_EQ(AddrTable<unsigned>(88).capacity(), 88u);
}

TEST(AddrTable, KeyZeroIsAnOrdinaryKey)
{
    AddrTable<unsigned> t(4);
    EXPECT_EQ(t.find(0), nullptr);
    t.insert(0, 7);
    ASSERT_NE(t.find(0), nullptr);
    EXPECT_EQ(*t.find(0), 7u);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.erase(0));
    EXPECT_FALSE(t.contains(0));
    EXPECT_FALSE(t.erase(0));
    EXPECT_TRUE(t.empty());
}

TEST(AddrTable, FillToCapacityKeepsEveryKey)
{
    AddrTable<unsigned> t(100);
    for (unsigned i = 0; i < 100; ++i)
        t.insert(0x10000000 + i * lineBytes, i);
    EXPECT_EQ(t.size(), t.capacity());
    for (unsigned i = 0; i < 100; ++i) {
        ASSERT_NE(t.find(0x10000000 + i * lineBytes), nullptr);
        EXPECT_EQ(*t.find(0x10000000 + i * lineBytes), i);
    }
    EXPECT_FALSE(t.contains(0x10000000 + 100 * lineBytes));
}

TEST(AddrTable, BackwardShiftAcrossTheWrap)
{
    // Keys homed at the last slot wrap their probe run into slots
    // 0, 2 and 3 around a key that sits at its own home, slot 1.
    // Deleting the run's head must shift every wrapped member back
    // toward its home while leaving the slot-1 key where it is.
    AddrTable<unsigned> t(8); // 16 slots
    const std::vector<Addr> wrap =
        keysHomedAt(t, t.slotCount() - 1, 4);
    const Addr one = keysHomedAt(t, 1, 1)[0];
    t.insert(wrap[0], 0);
    t.insert(wrap[1], 1);
    t.insert(one, 99);
    t.insert(wrap[2], 2);
    t.insert(wrap[3], 3);
    EXPECT_TRUE(t.erase(wrap[0]));
    for (unsigned i = 1; i < wrap.size(); ++i) {
        ASSERT_NE(t.find(wrap[i]), nullptr) << i;
        EXPECT_EQ(*t.find(wrap[i]), i);
    }
    ASSERT_NE(t.find(one), nullptr);
    EXPECT_EQ(*t.find(one), 99u);
    EXPECT_TRUE(t.erase(wrap[2]));
    EXPECT_TRUE(t.erase(wrap[1]));
    EXPECT_TRUE(t.contains(wrap[3]));
    EXPECT_TRUE(t.contains(one));
    EXPECT_FALSE(t.contains(wrap[0]));
    EXPECT_EQ(t.size(), 2u);
}

TEST(AddrTable, InsertsPastCapacityWhileASlotIsFree)
{
    // The invariant checker's fault injection plants a leaked entry in
    // a full MSHR file; the table must hold it rather than loop.
    AddrTable<unsigned> t(1);
    t.insert(0x1000, 1);
    t.insert(0x2000, 2);
    t.insert(0x3000, 3);
    EXPECT_EQ(t.size(), 3u);
    EXPECT_TRUE(t.contains(0x2000));
    EXPECT_FALSE(t.contains(0x4000));
}

TEST(AddrTableProperty, MatchesUnorderedMapUnderRandomTraffic)
{
    for (const std::size_t cap : {1u, 3u, 16u, 88u, 300u}) {
        AddrTable<unsigned> t(cap);
        std::unordered_map<Addr, unsigned> ref;
        Rng rng(1000 + cap);
        // A key space a few times the capacity keeps both hits and
        // misses frequent; line-aligned keys plus a few raw ones
        // (including 0) cover the hash's constant low bits.
        const Addr span = static_cast<Addr>(cap * 3 + 4);
        for (int op = 0; op < 20000; ++op) {
            Addr key = static_cast<Addr>(rng.below(span)) * lineBytes;
            if (rng.chance(0.1))
                key = static_cast<Addr>(rng.below(8));
            const unsigned pick = static_cast<unsigned>(rng.below(4));
            const auto v = static_cast<unsigned>(op);
            if (pick == 0 && ref.size() < cap && !ref.count(key)) {
                t.insert(key, v);
                ref[key] = v;
            } else if (pick == 3 && ref.size() < cap) {
                EXPECT_EQ(t.insertIfAbsent(key, v),
                          ref.emplace(key, v).second);
            } else if (pick == 1) {
                EXPECT_EQ(t.erase(key), ref.erase(key) == 1);
            } else {
                const unsigned *got = t.find(key);
                const auto it = ref.find(key);
                ASSERT_EQ(got != nullptr, it != ref.end()) << key;
                if (got) {
                    EXPECT_EQ(*got, it->second);
                }
            }
            ASSERT_EQ(t.size(), ref.size());
        }
        EXPECT_EQ(contents(t), contents(ref)) << "capacity " << cap;
        t.clear();
        EXPECT_TRUE(t.empty());
        EXPECT_TRUE(contents(t).empty());
    }
}

TEST(Ring, FifoAtBothEnds)
{
    Ring<int> r(3);
    EXPECT_TRUE(r.empty());
    r.push_back(1);
    r.push_back(2);
    r.push_front(0);
    EXPECT_TRUE(r.full());
    EXPECT_EQ(r.front(), 0);
    EXPECT_EQ(r.back(), 2);
    r.pop_front();
    r.push_back(3);
    EXPECT_EQ(std::vector<int>(r.begin(), r.end()),
              (std::vector<int>{1, 2, 3}));
    r.pop_back();
    EXPECT_EQ(r.back(), 2);
    EXPECT_EQ(r.size(), 2u);
}

TEST(Ring, EraseKeepsOrderAcrossTheWrap)
{
    Ring<int> r(4);
    for (int i = 0; i < 4; ++i)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    r.push_back(4);
    r.push_back(5); // storage now wraps: 2 3 | 4 5
    r.erase(1);
    EXPECT_EQ(std::vector<int>(r.begin(), r.end()),
              (std::vector<int>{2, 4, 5}));
    r.erase(2);
    EXPECT_EQ(std::vector<int>(r.begin(), r.end()),
              (std::vector<int>{2, 4}));
}

TEST(RingProperty, MatchesVectorModelUnderRandomTraffic)
{
    Ring<unsigned> r(5);
    std::vector<unsigned> ref;
    Rng rng(77);
    for (unsigned op = 0; op < 5000; ++op) {
        switch (rng.below(5)) {
          case 0:
            if (ref.size() < 5) {
                r.push_back(op);
                ref.push_back(op);
            }
            break;
          case 1:
            if (ref.size() < 5) {
                r.push_front(op);
                ref.insert(ref.begin(), op);
            }
            break;
          case 2:
            if (!ref.empty()) {
                r.pop_front();
                ref.erase(ref.begin());
            }
            break;
          case 3:
            if (!ref.empty()) {
                r.pop_back();
                ref.pop_back();
            }
            break;
          default:
            if (!ref.empty()) {
                const auto i = static_cast<std::size_t>(
                    rng.below(ref.size()));
                r.erase(i);
                ref.erase(ref.begin() + static_cast<long>(i));
            }
        }
        ASSERT_EQ(std::vector<unsigned>(r.begin(), r.end()), ref);
    }
}

TEST(FixedVec, HoldsUpToItsBound)
{
    FixedVec<Addr, 2> v;
    EXPECT_TRUE(v.empty());
    v.push_back(0x40);
    v.push_back(0x80);
    EXPECT_EQ(v.size(), 2u);
    EXPECT_EQ(v[1], 0x80u);
    EXPECT_EQ(std::vector<Addr>(v.begin(), v.end()),
              (std::vector<Addr>{0x40, 0x80}));
}

TEST(RecentIssueRing, ForgetsOldestDistinctLine)
{
    RecentIssueRing ring(2);
    ring.remember(0x1000);
    ring.remember(0x1008); // same line: keeps its place
    ring.remember(0x2000);
    EXPECT_TRUE(ring.contains(0x1030));
    ring.remember(0x3000);
    EXPECT_FALSE(ring.contains(0x1000));
    EXPECT_TRUE(ring.contains(0x2000));
    EXPECT_TRUE(ring.contains(0x3000));
}

TEST(RecentIssueRing, CheckpointRoundTripsAndRejectsRepeats)
{
    RecentIssueRing ring(4);
    for (Addr a : {0x1000u, 0x2000u, 0x3000u, 0x4000u, 0x5000u})
        ring.remember(a);
    std::ostringstream os;
    snap::Writer w(os);
    w.beginSection("RING");
    ring.saveState(w);
    w.endSection();
    w.finish();

    RecentIssueRing back(4);
    std::istringstream is(os.str());
    snap::Reader r(is);
    r.enterSection("RING");
    back.loadState(r, "test");
    r.leaveSection();
    EXPECT_FALSE(back.contains(0x1000));
    for (Addr a : {0x2000u, 0x3000u, 0x4000u, 0x5000u})
        EXPECT_TRUE(back.contains(a));
    // FIFO order survives: the next eviction drops the oldest.
    back.remember(0x6000);
    EXPECT_FALSE(back.contains(0x2000));
    EXPECT_TRUE(back.contains(0x3000));

    std::ostringstream bad;
    snap::Writer bw(bad);
    bw.beginSection("RING");
    bw.u64(2);
    bw.u32(0x1000);
    bw.u32(0x1000);
    bw.endSection();
    bw.finish();
    std::istringstream bis(bad.str());
    snap::Reader br(bis);
    br.enterSection("RING");
    RecentIssueRing victim(4);
    EXPECT_THROW(victim.loadState(br, "test"), snap::SnapshotError);
}
