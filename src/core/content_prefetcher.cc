#include "core/content_prefetcher.hh"

#include <algorithm>
#include <stdexcept>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

std::string
CdpConfig::widthLabel() const
{
    std::string label = "p";
    label += std::to_string(prevLines);
    label += ".n";
    label += std::to_string(nextLines);
    return label;
}

ContentPrefetcher::ContentPrefetcher(const CdpConfig &cfg,
                                     StatGroup *stats,
                                     const std::string &name)
    : cfg(cfg), predictor(cfg.vam),
      scans(stats ? *stats : dummyGroup, name + ".scans",
            "cache lines scanned"),
      rescans(stats ? *stats : dummyGroup, name + ".rescans",
              "reinforcement-driven rescans"),
      candidates(stats ? *stats : dummyGroup, name + ".candidates",
                 "candidate virtual addresses found"),
      widthLines(stats ? *stats : dummyGroup, name + ".width_lines",
                 "next/prev-line companion prefetches emitted"),
      depthSuppressed(stats ? *stats : dummyGroup,
                      name + ".depth_suppressed",
                      "fills not scanned: depth at threshold")
{
    fitBuffer(cfg);
}

void
ContentPrefetcher::fitBuffer(const CdpConfig &c)
{
    const auto bound = [](unsigned lines, const char *key) {
        if (lines > maxWidthLines)
            throw std::invalid_argument(
                std::string(key) + " must be <= " +
                std::to_string(maxWidthLines) + ", got " +
                std::to_string(lines));
    };
    bound(c.nextLines, "cdp.next_lines");
    bound(c.prevLines, "cdp.prev_lines");
    // Every word of the line may be a candidate, each bringing its
    // width companions.
    emitted.reserve(maxScanWords * (1 + c.prevLines + c.nextLines));
}

void
ContentPrefetcher::reconfigure(const CdpConfig &new_cfg)
{
    fitBuffer(new_cfg);
    cfg = new_cfg;
    predictor = Vam(cfg.vam);
}

bool
ContentPrefetcher::shouldRescan(unsigned req_depth,
                                unsigned stored_depth) const
{
    if (!cfg.enabled || !cfg.reinforce)
        return false;
    return stored_depth > req_depth &&
           stored_depth - req_depth >= cfg.reinforceMinDelta;
}

const std::vector<CdpCandidate> &
ContentPrefetcher::scanFill(const std::uint8_t *line, Addr trigger_ea,
                            unsigned fill_depth, bool is_rescan)
{
    std::vector<CdpCandidate> &out = emitted;
    out.clear();
    if (!cfg.enabled)
        return out;
    if (!scansAtDepth(fill_depth)) {
        ++depthSuppressed;
        return out;
    }

    ++scans;
    if (is_rescan)
        ++rescans;

    const Addr trigger_line = lineAlign(trigger_ea);
    const unsigned child_depth = fill_depth + 1;
    const bool emit_width = !is_rescan || cfg.widthOnRescan;
    // Lines already requested by this scan: the line in hand plus
    // everything emitted so far. At the default widths a scan emits a
    // handful of lines, so a linear search of the buffer beats any
    // hash set.
    const auto fresh = [&](Addr l) {
        return l != trigger_line &&
               std::none_of(out.begin(), out.end(),
                            [l](const CdpCandidate &c) {
                                return c.lineVa == l;
                            });
    };

    unsigned hop = 0; // provenance hop index, scan-emission order
    for (Addr target : predictor.scanLine(line, trigger_ea)) {
        ++candidates;
        const Addr target_line = lineAlign(target);
        if (fresh(target_line)) {
            out.push_back({target, target_line, child_depth, false,
                           hop++});
        }
        if (!emit_width)
            continue;
        for (unsigned p = 1; p <= cfg.prevLines; ++p) {
            const Addr l = target_line - p * lineBytes;
            if (l < target_line && fresh(l)) {
                out.push_back({target, l, child_depth, true, hop++});
                ++widthLines;
            }
        }
        for (unsigned n = 1; n <= cfg.nextLines; ++n) {
            const Addr l = target_line + n * lineBytes;
            if (l > target_line && fresh(l)) {
                out.push_back({target, l, child_depth, true, hop++});
                ++widthLines;
            }
        }
    }
    return out;
}

bool
operator==(const VamConfig &a, const VamConfig &b)
{
    return a.compareBits == b.compareBits && a.filterBits == b.filterBits &&
           a.alignBits == b.alignBits && a.scanStep == b.scanStep;
}

bool
operator==(const CdpConfig &a, const CdpConfig &b)
{
    return a.enabled == b.enabled && a.vam == b.vam &&
           a.depthThreshold == b.depthThreshold &&
           a.nextLines == b.nextLines && a.prevLines == b.prevLines &&
           a.reinforce == b.reinforce &&
           a.reinforceMinDelta == b.reinforceMinDelta &&
           a.scanPageWalkFills == b.scanPageWalkFills &&
           a.scanWidthFills == b.scanWidthFills &&
           a.widthOnRescan == b.widthOnRescan;
}

namespace snap
{

void
saveCdpConfig(Writer &w, const CdpConfig &cfg)
{
    w.boolean(cfg.enabled);
    w.u64(cfg.vam.compareBits);
    w.u64(cfg.vam.filterBits);
    w.u64(cfg.vam.alignBits);
    w.u64(cfg.vam.scanStep);
    w.u64(cfg.depthThreshold);
    w.u64(cfg.nextLines);
    w.u64(cfg.prevLines);
    w.boolean(cfg.reinforce);
    w.u64(cfg.reinforceMinDelta);
    w.boolean(cfg.scanPageWalkFills);
    w.boolean(cfg.scanWidthFills);
    w.boolean(cfg.widthOnRescan);
}

CdpConfig
loadCdpConfig(Reader &r)
{
    CdpConfig cfg;
    cfg.enabled = r.boolean();
    cfg.vam.compareBits = static_cast<unsigned>(r.u64());
    cfg.vam.filterBits = static_cast<unsigned>(r.u64());
    cfg.vam.alignBits = static_cast<unsigned>(r.u64());
    cfg.vam.scanStep = static_cast<unsigned>(r.u64());
    cfg.depthThreshold = static_cast<unsigned>(r.u64());
    cfg.nextLines = static_cast<unsigned>(r.u64());
    cfg.prevLines = static_cast<unsigned>(r.u64());
    cfg.reinforce = r.boolean();
    cfg.reinforceMinDelta = static_cast<unsigned>(r.u64());
    cfg.scanPageWalkFills = r.boolean();
    cfg.scanWidthFills = r.boolean();
    cfg.widthOnRescan = r.boolean();
    return cfg;
}

} // namespace snap

void
ContentPrefetcher::saveState(snap::Writer &w) const
{
    snap::saveCdpConfig(w, cfg);
}

void
ContentPrefetcher::loadState(snap::Reader &r, bool apply_config)
{
    const CdpConfig saved = snap::loadCdpConfig(r);
    if (apply_config && saved != cfg)
        reconfigure(saved);
}

} // namespace cdp
