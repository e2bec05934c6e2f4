/**
 * @file
 * Byte-level pins for the workloads layer.
 *
 * For every workload of the suite (Table 2 plus the extras) at two
 * seeds, the test gets the workload image exactly as Simulator does
 * (the shared WorkloadImage) and pins two FNV-1a hashes:
 *  - the image: BackingStore::contentHash(), every materialized frame
 *    in physical-address order (each prefixed by its page number),
 *    then framesTouched(); a checkpoint names its image by it;
 *  - the first 200k uops of the stream, field by field.
 * Two sources made over the one image must both give the uop pin,
 * and the image is hashed after they ran: sources only read it.
 * Any change to a builder, the heap allocator or a generator that
 * moves one image byte or one uop field breaks a pin. The goldens
 * cover three workloads through the whole machine; these cover every
 * workload, without the timing model in between.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/fnv1a.hh"
#include "cpu/uop.hh"
#include "mem/backing_store.hh"
#include "sim/config.hh"
#include "workloads/suite.hh"
#include "workloads/workload_image.hh"

using namespace cdp;

namespace
{

constexpr std::uint64_t pinnedUops = 200'000;

struct Pin
{
    const char *workload;
    std::uint64_t seed;
    std::uint64_t image;
    std::uint64_t uops;
};

// Regenerate only for an intended change to the workloads, and say so
// in the change description: a failing run prints every actual pair.
const Pin pins[] = {
    {"b2b", 1, 0x732630c2f26a887cull, 0x596277c3a261e28aull},
    {"b2b", 7, 0x2510f87b2dde9ceeull, 0x0f8bb57feb3e8ed3ull},
    {"b2c", 1, 0xa6a4a88e6839f556ull, 0xc612cddec451b5fcull},
    {"b2c", 7, 0x3d4dd473c2c36071ull, 0xe695c501854924b5ull},
    {"quake", 1, 0x78a58b4fd71406d5ull, 0xb029ea944b561da3ull},
    {"quake", 7, 0xc58a0243618a4246ull, 0x5980c8cb864edf29ull},
    {"speech", 1, 0x068c6428a8f18653ull, 0x40d89c0d07f37b47ull},
    {"speech", 7, 0xd3ee136a5b3de9c2ull, 0x691c7ebc27516952ull},
    {"rc3", 1, 0xd94557a8a540cb4cull, 0x0a413a23c456cea8ull},
    {"rc3", 7, 0x21e56e04630deb18ull, 0x764599007d763697ull},
    {"creation", 1, 0x864b6710496fa891ull, 0x3d968ef7e63b6fecull},
    {"creation", 7, 0x79b58a8b47929331ull, 0xb1855f9c10819c0aull},
    {"tpcc-1", 1, 0x7c73971b310f0864ull, 0xb3bf9907397c68e6ull},
    {"tpcc-1", 7, 0x35a9c35fed954416ull, 0xa47c41b3a55425faull},
    {"tpcc-2", 1, 0x4c79f4218274ef24ull, 0xba15c298d5f93e05ull},
    {"tpcc-2", 7, 0x05b99cba52864b79ull, 0x3bad0c612cf18415ull},
    {"tpcc-3", 1, 0xba47a0a74deeb71dull, 0x2f6821429ae7b1b0ull},
    {"tpcc-3", 7, 0xe13ac7ab0589e6bbull, 0xeddb621c104c10a7ull},
    {"tpcc-4", 1, 0x9c7b7757cc70ec55ull, 0x44bf69c2be8b93d2ull},
    {"tpcc-4", 7, 0xd17779cbcbf0acdbull, 0xa475993bd2ffbaf1ull},
    {"verilog-func", 1, 0xebb1a61db662dc5eull, 0x780f505c0e713ea4ull},
    {"verilog-func", 7, 0x0ca8bc2aec090316ull, 0xbb5940e14ff15cf0ull},
    {"verilog-gate", 1, 0x5f55596516869c61ull, 0xb6e7514423c88093ull},
    {"verilog-gate", 7, 0x8b57446864088415ull, 0x4d4469414e9880b8ull},
    {"proE", 1, 0x567b8ee57fe5d25aull, 0x227f493e3a6402abull},
    {"proE", 7, 0x08b620fcfb359d39ull, 0x6e90c72ef575a717ull},
    {"slsb", 1, 0xdd7c9380bd79d190ull, 0x36e696044cb5e80dull},
    {"slsb", 7, 0x944716aafc5a8ccaull, 0x17ba21e9c646511full},
    {"specjbb-vsnet", 1, 0x556e55cf47265006ull, 0xafd2704f8617a65bull},
    {"specjbb-vsnet", 7, 0x8281e9dd7c6bf6ccull, 0x72c63e8ef96c97a0ull},
    {"xgraph", 1, 0x6e940f262957beaeull, 0x245c31c18871195aull},
    {"xgraph", 7, 0x1ce4c24146983a68ull, 0xbda7691386526646ull},
    {"xbtree", 1, 0x4b8024a59bb112d1ull, 0x5abe7778295059e1ull},
    {"xbtree", 7, 0xf2e972747fce5bf9ull, 0xf3ce2ed7875b7fcfull},
};

std::uint64_t
uopHash(UopSource &src)
{
    Fnv1a h;
    for (std::uint64_t i = 0; i < pinnedUops; ++i) {
        const Uop u = src.next();
        h.word(static_cast<std::uint8_t>(u.type), 1);
        h.word(u.pc);
        h.word(u.vaddr);
        h.word(static_cast<std::uint8_t>(u.src0), 1);
        h.word(static_cast<std::uint8_t>(u.src1), 1);
        h.word(static_cast<std::uint8_t>(u.dst), 1);
        h.word(u.taken, 1);
        h.word(u.pointerLoad, 1);
    }
    return h.value();
}

void
PrintTo(const Pin &pin, std::ostream *os)
{
    *os << pin.workload << " seed " << pin.seed;
}

class WorkloadPins : public ::testing::TestWithParam<Pin>
{
};

TEST_P(WorkloadPins, ImageAndUopStreamMatch)
{
    const Pin &pin = GetParam();
    const SimConfig cfg;
    const auto img =
        sharedWorkloadImage(pin.workload, pin.seed, cfg.physFrames);
    const std::unique_ptr<UopSource> first = img->makeSource();
    const std::unique_ptr<UopSource> second = img->makeSource();
    const std::uint64_t uops = uopHash(*first);
    EXPECT_EQ(uopHash(*second), uops) << "a second source over the image";
    const std::uint64_t image = img->backingStore().contentHash();
    char actual[160];
    std::snprintf(actual, sizeof actual,
                  "    {\"%s\", %llu, 0x%016llxull, 0x%016llxull},",
                  pin.workload,
                  static_cast<unsigned long long>(pin.seed),
                  static_cast<unsigned long long>(image),
                  static_cast<unsigned long long>(uops));
    EXPECT_EQ(image, pin.image) << "actual pin line:\n" << actual;
    EXPECT_EQ(uops, pin.uops) << "actual pin line:\n" << actual;
}

std::string
pinName(const ::testing::TestParamInfo<Pin> &info)
{
    std::string name = info.param.workload;
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadPins, ::testing::ValuesIn(pins),
                         pinName);

TEST(WorkloadPinTable, CoversEverySuiteWorkloadAtBothSeeds)
{
    std::vector<std::tuple<std::string, std::uint64_t>> want;
    for (const auto *list : {&table2Suite(), &extraWorkloads()}) {
        for (const auto &s : *list) {
            want.emplace_back(s.name, 1);
            want.emplace_back(s.name, 7);
        }
    }
    std::vector<std::tuple<std::string, std::uint64_t>> have;
    for (const Pin &p : pins)
        have.emplace_back(p.workload, p.seed);
    EXPECT_EQ(have, want);
}

} // namespace
