/**
 * @file
 * Binary checkpoint container format (DESIGN.md §11).
 *
 * A checkpoint is a magic header, a format version, and a sequence of
 * tagged sections:
 *
 *     "CDPSNAP\n"  u32 version
 *     [ 4-byte tag | u64 payload bytes | payload | u64 FNV-1a ]...
 *     [ "END!" trailer section with empty payload ]
 *
 * All integers are little-endian regardless of host byte order, and
 * every multi-byte value inside a payload goes through the typed
 * Writer helpers, so serializing the same machine state twice yields
 * byte-identical files. Component serializers iterate associative
 * containers in key-sorted order (enforced by cdplint's
 * unordered-output rule), which is what makes the format — and the
 * warm-fork sweeps built on it — deterministic.
 *
 * Robustness contract: a Reader fed a truncated, corrupted, or
 * version-skewed stream throws SnapshotError with a diagnostic that
 * names the failing section and payload offset. It never invokes
 * undefined behaviour and never returns partially restored state to
 * the caller (Simulator::restoreCheckpoint rethrows before any
 * component is left half-written — see DESIGN.md §11).
 */

#ifndef CDP_SNAPSHOT_CKPT_IO_HH
#define CDP_SNAPSHOT_CKPT_IO_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "common/rng.hh"

namespace cdp
{
namespace snap
{

/** Current checkpoint format version (bump on layout changes). */
constexpr std::uint32_t formatVersion = 2;

/**
 * Any failure to serialize or deserialize a checkpoint: truncation,
 * checksum mismatch, version skew, section-tag mismatch, config
 * guard violation, or a non-quiesced machine.
 */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Serializes one checkpoint to an ostream. Values are staged into an
 * in-memory section buffer; endSection() emits the framed, checksummed
 * section. All typed writes must happen between beginSection() and
 * endSection(); finish() writes the trailer and flushes.
 */
class Writer
{
  public:
    /** Write the container header to @p os (opened in binary mode). */
    explicit Writer(std::ostream &os);

    /** Open a section; @p tag must be exactly 4 characters. */
    void beginSection(const char *tag);

    /** Frame, checksum, and emit the open section. */
    void endSection();

    /** Emit the end-of-checkpoint trailer section. */
    void finish();

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** Doubles travel as their IEEE-754 bit pattern. */
    void f64(double v);
    void boolean(bool v);
    /** Length-prefixed byte string. */
    void str(const std::string &s);
    /** Raw bytes, caller knows the length (e.g. a memory frame). */
    void bytes(const std::uint8_t *p, std::size_t n);
    /** The two raw xorshift128+ state words of @p r. */
    void rng(const Rng &r);

    /**
     * The payload bytes @p write stages into one section, unframed:
     * what a component's saveState would put into a checkpoint.
     * @p size_hint is the expected size (reserved up front).
     */
    static std::string
    payloadOf(const std::function<void(Writer &)> &write,
              std::size_t size_hint = 0);

  private:
    void raw(const void *p, std::size_t n);

    std::ostream &os;
    std::string buf;
    std::string curTag;
    bool inSection = false;
    bool finished = false;
};

/**
 * Deserializes one checkpoint from an istream. enterSection() loads
 * and checksum-verifies a whole section payload; the typed reads then
 * consume it; leaveSection() requires the payload to be fully
 * consumed, so layout drift is caught at the section where it
 * happens.
 */
class Reader
{
  public:
    /** Validate the container header of @p is (binary mode). */
    explicit Reader(std::istream &is);

    /** Read and verify the next section's frame; must match @p tag. */
    void enterSection(const char *tag);

    /** Require the current section payload to be fully consumed. */
    void leaveSection();

    /** Require the end-of-checkpoint trailer. */
    void finish();

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    bool boolean();
    std::string str();
    void bytes(std::uint8_t *p, std::size_t n);
    void rng(Rng &r);

    /**
     * Read a u64 and require it to equal @p expected — the geometry /
     * shape guard used by every component deserializer. @p what names
     * the field in the diagnostic.
     */
    void expectU64(std::uint64_t expected, const char *what);

    /** String flavour of expectU64 (workload names etc.). */
    void expectStr(const std::string &expected, const char *what);

    /**
     * Require the next payload bytes to equal @p expected; a
     * mismatch names @p what and the first differing byte.
     */
    void expectBytes(const std::string &expected, const char *what);

    /**
     * Require the next payload bytes to be exactly what
     * @p obj.saveState writes. This is how a restore checks state it
     * shares and never loads: the workload image (DESIGN.md §11).
     */
    template <typename T>
    void
    expectSaved(const T &obj, const char *what)
    {
        expectBytes(Writer::payloadOf(
                        [&obj](Writer &w) { obj.saveState(w); },
                        payload.size() - pos),
                    what);
    }

    /**
     * Throw SnapshotError for a semantic problem found by a component
     * deserializer, prefixed with the current section and offset.
     */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    void need(std::size_t n);

    std::istream &is;
    std::string payload;
    std::size_t pos = 0;
    std::string curTag;
    bool inSection = false;
};

} // namespace snap
} // namespace cdp

#endif // CDP_SNAPSHOT_CKPT_IO_HH
