#include "branch_profile.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

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

void
simulateCaptured(core::BranchPredictor &predictor,
                 trace::ChunkStream &stream,
                 const CapturedBatchSink &sink)
{
    std::vector<std::uint8_t> correct;
    while (const trace::TraceChunk *chunk = stream.next()) {
        const trace::PredecodedTrace &soa = chunk->view.soa();
        correct.resize(soa.size());
        AccuracyCounter batch;
        batch.captureInto(correct.data());
        predictor.simulateBatch(chunk->view, batch);
        tlat_assert(batch.captureCursor() ==
                        correct.data() + correct.size(),
                    "simulateBatch must capture one byte per "
                    "conditional");
        sink(soa, correct);
    }
}

} // namespace tlat::harness
