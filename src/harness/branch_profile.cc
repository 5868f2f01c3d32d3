#include "branch_profile.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace tlat::harness
{

double
BranchSite::historyEntropyBits() const
{
    if (executions == 0)
        return 0.0;
    // Visit-weighted binary entropy of the outcome per pattern,
    // accumulated in fixed pattern order (sum of patternVisits equals
    // executions: every record lands in exactly one pattern).
    double entropy = 0.0;
    for (std::size_t pattern = 0; pattern < kTaxonomyPatterns;
         ++pattern) {
        const std::uint64_t visits = patternVisits[pattern];
        if (visits == 0)
            continue;
        const double p = static_cast<double>(patternTaken[pattern]) /
                         static_cast<double>(visits);
        if (p <= 0.0 || p >= 1.0)
            continue; // deterministic pattern: zero entropy
        const double weight = static_cast<double>(visits) /
                              static_cast<double>(executions);
        entropy -= weight *
                   (p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
    }
    return entropy;
}

const char *
siteClassName(SiteClass cls)
{
    switch (cls) {
    case SiteClass::Stable:
        return "stable";
    case SiteClass::Transient:
        return "transient";
    case SiteClass::Systematic:
        return "systematic";
    case SiteClass::Chaotic:
        return "chaotic";
    }
    return "stable";
}

SiteClass
classifySite(const BranchSite &site,
             const TaxonomyThresholds &thresholds)
{
    if (site.executions < thresholds.executionFloor ||
        site.accuracy() * 100.0 >= thresholds.accuracyCeilingPercent)
        return SiteClass::Stable;
    if (site.historyEntropyBits() >= thresholds.chaoticEntropyBits)
        return SiteClass::Chaotic;
    return site.systematicMisses >= site.transientMisses
        ? SiteClass::Systematic
        : SiteClass::Transient;
}

void
BranchProfile::record(std::uint64_t pc, bool correct, bool taken)
{
    const std::size_t index = siteIndex(pc); // may grow sites_
    recordAt(sites_[index], correct, taken);
}

void
BranchProfile::recordBatch(const trace::PredecodedTrace &soa,
                           std::span<const std::uint8_t> correct)
{
    tlat_assert(correct.size() == soa.size(),
                "one correctness byte per conditional");
    const std::span<const std::uint64_t> pcs = soa.uniquePcs();
    std::vector<std::size_t> site_of_id(pcs.size());
    for (std::size_t id = 0; id < pcs.size(); ++id)
        site_of_id[id] = siteIndex(pcs[id]);
    const std::span<const trace::BranchId> ids = soa.branchIds();
    for (std::size_t i = 0; i < ids.size(); ++i)
        recordAt(sites_[site_of_id[ids[i]]], correct[i] != 0,
                 soa.taken(i));
}

std::size_t
BranchProfile::siteIndex(std::uint64_t pc)
{
    bool inserted = false;
    const trace::BranchId index = index_.findOrInsert(pc, inserted);
    if (inserted) {
        sites_.emplace_back();
        sites_.back().pc = pc;
    }
    return index;
}

void
BranchProfile::recordAt(BranchSite &site, bool correct, bool taken)
{
    ++site.executions;
    ++executions_;

    const std::size_t pattern = site.localHistory;
    ++site.patternVisits[pattern];
    if (taken)
        ++site.patternTaken[pattern];
    if (!correct) {
        ++site.mispredictions;
        ++mispredictions_;
        if (site.patternMisses[pattern] > 0)
            ++site.systematicMisses;
        else
            ++site.transientMisses;
        ++site.patternMisses[pattern];
    }
    if (taken)
        ++site.takenCount;
    if (site.havePrevOutcome && taken != site.prevOutcome)
        ++site.transitions;
    site.havePrevOutcome = true;
    site.prevOutcome = taken;
    site.localHistory = static_cast<std::uint8_t>(
        ((site.localHistory << 1) | (taken ? 1u : 0u)) &
        (kTaxonomyPatterns - 1));
}

bool
BranchProfile::siteOrder(const BranchSite &a, const BranchSite &b)
{
    if (a.mispredictions != b.mispredictions)
        return a.mispredictions > b.mispredictions;
    return a.pc < b.pc;
}

std::vector<BranchSite>
BranchProfile::allSites() const
{
    std::vector<BranchSite> sites = sites_;
    std::sort(sites.begin(), sites.end(), siteOrder);
    return sites;
}

std::vector<BranchSite>
BranchProfile::worstSites(std::size_t limit) const
{
    std::vector<BranchSite> sites = allSites();
    if (sites.size() > limit)
        sites.resize(limit);
    return sites;
}

BranchSite
BranchProfile::site(std::uint64_t pc) const
{
    const std::optional<trace::BranchId> index = index_.find(pc);
    return index ? sites_[*index] : BranchSite{};
}

namespace
{

/**
 * Chunks in flight between the caller and the metrics stage: the one
 * being filled plus up to three the stage has yet to finish. With two
 * (a double buffer, the stage at most one chunk behind) the caller
 * waited on the stage for ~12 ms of a ~75 ms `run --json` of AT(AHRT)
 * on a 2M-conditional file, on a host whose CPUs were ~25% stolen:
 * each late wake-up of the stage thread landed on the critical path.
 * Four slots cut that wait to ~1 ms.
 */
constexpr std::size_t kStageSlots = 4;

} // namespace

void
simulateCaptured(core::BranchPredictor &predictor,
                 trace::ChunkStream &stream,
                 const CapturedBatchSink &sink)
{
    // What the stage reads of one chunk: its own copy of the lanes and
    // the capture lane, with the future of the chunk's sink call.
    struct Captured
    {
        trace::PredecodedTrace lanes;
        std::vector<std::uint8_t> correct;
        std::future<void> done;
    };
    std::array<Captured, kStageSlots> ring;
    std::size_t next_slot = 0;
    // Stage thread only: set when a sink call throws, so that the
    // calls queued behind it are skipped.
    bool sink_failed = false;
    // Declared after the ring and the flag: if this frame unwinds, the
    // pool's destructor finishes the queued calls before they go away.
    util::ThreadPool stage(1);
    while (const trace::TraceChunk *chunk = stream.next()) {
        Captured &captured = ring[next_slot];
        next_slot = (next_slot + 1) % kStageSlots;
        // The slot's last reader is chunk k - kStageSlots; its future
        // also rethrows that call's exception, in chunk order.
        if (captured.done.valid())
            captured.done.get();
        const trace::PredecodedTrace &soa = chunk->view.soa();
        captured.correct.resize(soa.size());
        AccuracyCounter batch;
        batch.captureInto(captured.correct.data());
        predictor.simulateBatch(chunk->view, batch);
        tlat_assert(batch.captureCursor() ==
                        captured.correct.data() +
                            captured.correct.size(),
                    "simulateBatch must capture one byte per "
                    "conditional");
        // Copied on this thread: the stream may reuse the chunk's
        // lanes object once next() is called again.
        captured.lanes.assignLanes(soa);
        captured.done = stage.submit([&sink, &captured, &sink_failed] {
            if (sink_failed)
                return;
            try {
                sink(captured.lanes, captured.correct);
            } catch (...) {
                sink_failed = true;
                throw;
            }
        });
    }
    for (std::size_t i = 0; i < kStageSlots; ++i) { // oldest first
        Captured &pending = ring[(next_slot + i) % kStageSlots];
        if (pending.done.valid())
            pending.done.get();
    }
}

} // namespace tlat::harness
