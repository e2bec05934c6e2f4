#include "snapshot/ckpt_io.hh"

#include <cstring>
#include <istream>
#include <ostream>

#include "common/fnv1a.hh"

namespace cdp
{
namespace snap
{

namespace
{

constexpr char magic[] = "CDPSNAP\n"; // 8 bytes, no terminator written
constexpr std::size_t magicLen = 8;
constexpr char endTag[] = "END!";
constexpr std::size_t tagLen = 4;

void
putLe32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putLe64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

} // namespace

Writer::Writer(std::ostream &os) : os(os)
{
    std::string header(magic, magicLen);
    putLe32(header, formatVersion);
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    if (!os)
        throw SnapshotError("checkpoint write failed (header)");
}

void
Writer::beginSection(const char *tag)
{
    if (finished)
        throw SnapshotError("checkpoint writer already finished");
    if (inSection)
        throw SnapshotError("checkpoint section '" + curTag +
                            "' still open");
    if (std::strlen(tag) != tagLen)
        throw SnapshotError(std::string("bad section tag '") + tag + "'");
    curTag.assign(tag, tagLen);
    buf.clear();
    inSection = true;
}

void
Writer::endSection()
{
    if (!inSection)
        throw SnapshotError("endSection with no open section");
    std::string frame = curTag;
    putLe64(frame, buf.size());
    frame += buf;
    putLe64(frame, fnv1a(buf.data(), buf.size()));
    os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    if (!os)
        throw SnapshotError("checkpoint write failed (section '" +
                            curTag + "')");
    inSection = false;
}

void
Writer::finish()
{
    beginSection(endTag);
    endSection();
    os.flush();
    if (!os)
        throw SnapshotError("checkpoint write failed (trailer)");
    finished = true;
}

void
Writer::raw(const void *p, std::size_t n)
{
    if (!inSection)
        throw SnapshotError("checkpoint value written outside a section");
    buf.append(static_cast<const char *>(p), n);
}

void
Writer::u8(std::uint8_t v)
{
    raw(&v, 1);
}

void
Writer::u32(std::uint32_t v)
{
    if (!inSection)
        throw SnapshotError("checkpoint value written outside a section");
    putLe32(buf, v);
}

void
Writer::u64(std::uint64_t v)
{
    if (!inSection)
        throw SnapshotError("checkpoint value written outside a section");
    putLe64(buf, v);
}

void
Writer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::boolean(bool v)
{
    u8(v ? 1 : 0);
}

void
Writer::str(const std::string &s)
{
    u64(s.size());
    raw(s.data(), s.size());
}

void
Writer::bytes(const std::uint8_t *p, std::size_t n)
{
    raw(p, n);
}

void
Writer::rng(const Rng &r)
{
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
    r.getState(s0, s1);
    u64(s0);
    u64(s1);
}

Reader::Reader(std::istream &is) : is(is)
{
    char header[magicLen + 4];
    is.read(header, sizeof(header));
    if (is.gcount() != static_cast<std::streamsize>(sizeof(header)))
        throw SnapshotError(
            "truncated checkpoint: stream ends inside the header "
            "(not a checkpoint file?)");
    if (std::memcmp(header, magic, magicLen) != 0)
        throw SnapshotError(
            "bad checkpoint magic: this is not a CDP checkpoint file");
    std::uint32_t version = 0;
    for (unsigned i = 0; i < 4; ++i)
        version |= static_cast<std::uint32_t>(
                       static_cast<std::uint8_t>(header[magicLen + i]))
                   << (8 * i);
    if (version != formatVersion)
        throw SnapshotError(
            "checkpoint format version skew: file has version " +
            std::to_string(version) + ", this binary reads version " +
            std::to_string(formatVersion) +
            " (re-create the checkpoint with a matching build)");
}

void
Reader::enterSection(const char *tag)
{
    if (inSection)
        throw SnapshotError("checkpoint section '" + curTag +
                            "' still open");
    char frameTag[tagLen];
    is.read(frameTag, tagLen);
    if (is.gcount() != static_cast<std::streamsize>(tagLen))
        throw SnapshotError(
            std::string("truncated checkpoint: stream ends where "
                        "section '") +
            tag + "' was expected");
    if (std::memcmp(frameTag, tag, tagLen) != 0)
        throw SnapshotError(
            std::string("checkpoint section mismatch: expected '") + tag +
            "', found '" + std::string(frameTag, tagLen) +
            "' (file written by an incompatible layout?)");
    char lenBytes[8];
    is.read(lenBytes, 8);
    if (is.gcount() != 8)
        throw SnapshotError(std::string("truncated checkpoint: section '") +
                            tag + "' header is cut off");
    std::uint64_t len = 0;
    for (unsigned i = 0; i < 8; ++i)
        len |= static_cast<std::uint64_t>(
                   static_cast<std::uint8_t>(lenBytes[i]))
               << (8 * i);
    payload.resize(len);
    if (len) {
        is.read(&payload[0], static_cast<std::streamsize>(len));
        if (is.gcount() != static_cast<std::streamsize>(len))
            throw SnapshotError(
                std::string("truncated checkpoint: section '") + tag +
                "' promises " + std::to_string(len) + " bytes, stream has " +
                std::to_string(is.gcount()));
    }
    char sumBytes[8];
    is.read(sumBytes, 8);
    if (is.gcount() != 8)
        throw SnapshotError(std::string("truncated checkpoint: section '") +
                            tag + "' checksum is cut off");
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < 8; ++i)
        sum |= static_cast<std::uint64_t>(
                   static_cast<std::uint8_t>(sumBytes[i]))
               << (8 * i);
    if (sum != fnv1a(payload.data(), payload.size()))
        throw SnapshotError(std::string("corrupted checkpoint: section '") +
                            tag + "' fails its checksum");
    curTag.assign(tag, tagLen);
    pos = 0;
    inSection = true;
}

void
Reader::leaveSection()
{
    if (!inSection)
        throw SnapshotError("leaveSection with no open section");
    if (pos != payload.size())
        fail("section payload has " +
             std::to_string(payload.size() - pos) +
             " unconsumed byte(s) — layout drift");
    inSection = false;
}

void
Reader::finish()
{
    enterSection(endTag);
    leaveSection();
}

void
Reader::need(std::size_t n)
{
    if (!inSection)
        throw SnapshotError("checkpoint value read outside a section");
    if (payload.size() - pos < n)
        fail("payload exhausted reading a " + std::to_string(n) +
             "-byte value");
}

std::uint8_t
Reader::u8()
{
    need(1);
    return static_cast<std::uint8_t>(payload[pos++]);
}

std::uint32_t
Reader::u32()
{
    need(4);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(payload[pos + i]))
             << (8 * i);
    pos += 4;
    return v;
}

std::uint64_t
Reader::u64()
{
    need(8);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(payload[pos + i]))
             << (8 * i);
    pos += 8;
    return v;
}

double
Reader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

bool
Reader::boolean()
{
    const std::uint8_t v = u8();
    if (v > 1)
        fail("boolean encoded as " + std::to_string(v));
    return v != 0;
}

std::string
Reader::str()
{
    const std::uint64_t n = u64();
    need(n);
    std::string s = payload.substr(pos, n);
    pos += n;
    return s;
}

void
Reader::bytes(std::uint8_t *p, std::size_t n)
{
    need(n);
    std::memcpy(p, payload.data() + pos, n);
    pos += n;
}

void
Reader::rng(Rng &r)
{
    const std::uint64_t s0 = u64();
    const std::uint64_t s1 = u64();
    r.setState(s0, s1);
}

void
Reader::expectU64(std::uint64_t expected, const char *what)
{
    const std::uint64_t found = u64();
    if (found != expected)
        fail(std::string(what) + " mismatch: checkpoint has " +
             std::to_string(found) + ", this simulator has " +
             std::to_string(expected));
}

void
Reader::expectStr(const std::string &expected, const char *what)
{
    const std::string found = str();
    if (found != expected)
        fail(std::string(what) + " mismatch: checkpoint has '" + found +
             "', this simulator has '" + expected + "'");
}

void
Reader::fail(const std::string &what) const
{
    throw SnapshotError("checkpoint section '" + curTag + "' (offset " +
                        std::to_string(pos) + "): " + what);
}

} // namespace snap
} // namespace cdp
