/**
 * @file
 * Per-static-branch accuracy profiling: which branches a predictor
 * misses, how often they execute and which way they lean. The
 * analysis tool behind the "where do the 3% of misses live?"
 * question, and the basis of the branch_autopsy example.
 *
 * Beyond raw tallies, each site carries a misprediction *taxonomy* in
 * the spirit of Lin & Tarsa's "Branch Prediction Is Not a Solved
 * Problem" (see PAPERS.md): misses are split into *transient* (the
 * first miss observed under a given short local-history pattern —
 * warmup, cold tables) and *systematic* (repeat misses under a
 * pattern the predictor has already been wrong about — structural
 * mismatch between branch behaviour and predictor), and the
 * conditional entropy of the outcome given the local history
 * separates history-predictable branches from data-dependent
 * (chaotic) ones. classifySite() turns those statistics into the
 * hard-to-predict (H2P) classification surfaced by `tlat profile
 * --json`.
 */

#ifndef TLAT_HARNESS_BRANCH_PROFILE_HH
#define TLAT_HARNESS_BRANCH_PROFILE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/branch_predictor.hh"
#include "trace/chunk_stream.hh"
#include "trace/predecode.hh"

namespace tlat::harness
{

/**
 * Local-history bits the per-site taxonomy conditions on. Four bits
 * is deliberately *shorter* than the predictors' history registers:
 * the taxonomy asks "is this branch predictable from a little local
 * context at all?", not "did this particular predictor capture it".
 */
inline constexpr unsigned kTaxonomyHistoryBits = 4;

/** Number of distinct local-history patterns the taxonomy tracks. */
inline constexpr std::size_t kTaxonomyPatterns =
    std::size_t{1} << kTaxonomyHistoryBits;

/** Accuracy tallies for one static conditional branch. */
struct BranchSite
{
    std::uint64_t pc = 0;
    std::uint64_t executions = 0;
    std::uint64_t mispredictions = 0;
    std::uint64_t takenCount = 0;

    // ---- misprediction taxonomy -----------------------------------
    /** Outcome changes between consecutive executions of this site. */
    std::uint64_t transitions = 0;
    /**
     * Misses under a local-history pattern that had already produced
     * a miss at this site — the predictor keeps being wrong in a
     * recurring context.
     */
    std::uint64_t systematicMisses = 0;
    /** First miss observed under each local-history pattern. */
    std::uint64_t transientMisses = 0;
    /** Executions observed under each local-history pattern. */
    std::array<std::uint64_t, kTaxonomyPatterns> patternVisits{};
    /** Taken outcomes observed under each local-history pattern. */
    std::array<std::uint64_t, kTaxonomyPatterns> patternTaken{};
    /** Misses observed under each local-history pattern. */
    std::array<std::uint64_t, kTaxonomyPatterns> patternMisses{};

    // ---- per-site tracking state (BranchProfile::record only) -----
    std::uint8_t localHistory = 0;
    bool havePrevOutcome = false;
    bool prevOutcome = false;

    double
    accuracy() const
    {
        return executions == 0
            ? 0.0
            : 1.0 - static_cast<double>(mispredictions) /
                        static_cast<double>(executions);
    }

    double
    takenRate() const
    {
        return executions == 0
            ? 0.0
            : static_cast<double>(takenCount) /
                  static_cast<double>(executions);
    }

    double
    transitionRate() const
    {
        return executions == 0
            ? 0.0
            : static_cast<double>(transitions) /
                  static_cast<double>(executions);
    }

    /**
     * Conditional entropy H(outcome | last kTaxonomyHistoryBits
     * outcomes) in bits: 0 for a branch whose outcome is a function
     * of its recent local history (periodic patterns), 1 for a fair
     * coin no history window explains. Pure function of the integer
     * pattern tallies, accumulated in fixed pattern order.
     */
    double historyEntropyBits() const;
};

/**
 * Classification of one site, Lin & Tarsa-style. Stable sites predict
 * fine (or execute too rarely to matter); everything else is a
 * hard-to-predict (H2P) branch, subdivided by *why* it is hard.
 */
enum class SiteClass : std::uint8_t
{
    /** Accurate enough, or below the execution floor. */
    Stable,
    /** Misses dominated by first-time pattern misses (warmup). */
    Transient,
    /** Repeat misses in recurring contexts (structural mismatch). */
    Systematic,
    /** High outcome entropy — data-dependent, near-random. */
    Chaotic,
};

/** Stable lower-case name of a SiteClass ("stable", "chaotic", ...). */
const char *siteClassName(SiteClass cls);

/** Thresholds of the H2P classification (all explicit, all stable). */
struct TaxonomyThresholds
{
    /** Sites executing fewer times than this are Stable (noise). */
    std::uint64_t executionFloor = 100;
    /** Sites at or above this accuracy are Stable. */
    double accuracyCeilingPercent = 99.0;
    /** Entropy at or above this marks a site Chaotic. */
    double chaoticEntropyBits = 0.9;
};

/**
 * Classifies one site against the thresholds. Deterministic: integer
 * tallies plus fixed-order floating point derived from them.
 */
SiteClass classifySite(const BranchSite &site,
                       const TaxonomyThresholds &thresholds);

/** Per-branch accuracy breakdown of one measured run. */
class BranchProfile
{
  public:
    /**
     * Records one executed conditional branch. Call in trace order:
     * the taxonomy tallies (local history, transitions) depend on the
     * per-site outcome sequence. The per-record reference that the
     * metrics identity tests hold recordBatch() to.
     */
    void record(std::uint64_t pc, bool correct, bool taken);

    /**
     * Records one simulated batch: conditional i of @p soa executed
     * with outcome soa.taken(i) and was predicted correctly iff
     * correct[i] != 0 (the AccuracyCounter capture lane). Each unique
     * pc of the batch is resolved to its site once, not per record.
     * Equivalent to record() over the batch in trace order.
     */
    void recordBatch(const trace::PredecodedTrace &soa,
                     std::span<const std::uint8_t> correct);

    /**
     * The heaviest-missing sites under the profile's canonical total
     * order: misprediction count descending, then pc ascending. The
     * pc tie-break makes the order — and therefore which of several
     * equally-missing sites survive the @p limit cut — a pure
     * function of the tallies, independent of insertion order. Ties
     * at the cutoff keep the lowest pcs. limit >= size returns every
     * site, sorted.
     */
    std::vector<BranchSite> worstSites(std::size_t limit = 10) const;

    /** Every site in the canonical order (worstSites without a cut). */
    std::vector<BranchSite> allSites() const;

    /** Site lookup; a zeroed site if the pc was never seen. */
    BranchSite site(std::uint64_t pc) const;

    std::uint64_t totalExecutions() const { return executions_; }
    std::uint64_t totalMispredictions() const
    {
        return mispredictions_;
    }

    /**
     * The canonical site order shared by worstSites() and the h2p
     * JSON section: misprediction count descending, pc ascending.
     */
    static bool siteOrder(const BranchSite &a, const BranchSite &b);

  private:
    /** Index of @p pc's site in sites_, created on first sight. */
    std::size_t siteIndex(std::uint64_t pc);
    void recordAt(BranchSite &site, bool correct, bool taken);

    /** pc -> index into sites_ (first-appearance order). */
    trace::BranchIdDictionary index_;
    std::vector<BranchSite> sites_;
    std::uint64_t executions_ = 0;
    std::uint64_t mispredictions_ = 0;
};

/** Receives one simulated batch: its lanes and correctness bytes. */
using CapturedBatchSink =
    std::function<void(const trace::PredecodedTrace &soa,
                       std::span<const std::uint8_t> correct)>;

/**
 * The fast measuring loop with per-branch visibility, in two stages.
 * The calling thread runs one simulateBatch() per chunk of @p stream
 * with AccuracyCounter's correctness capture attached. @p sink then
 * gets the chunk's lanes and one byte per conditional (1 = predicted
 * correctly) on a stage thread, one chunk behind or more: chunk k's
 * sink call overlaps chunk k+1's next() and simulate, and the caller
 * waits for the stage only when it lags three chunks behind.
 *
 * Contract of the sink:
 *  - calls come one at a time, in trace order, so state it carries
 *    across calls needs no lock; the caller may read that state once
 *    simulateCaptured returns or throws. No call follows one that
 *    threw;
 *  - it never touches the predictor or the stream, which the calling
 *    thread is using meanwhile;
 *  - @p soa is the stage's own copy of the chunk's ids, outcome words
 *    and unique pcs, never the stream's lanes object, which a decode
 *    worker may be reusing.
 *
 * An exception from the stream, the predictor or the sink reaches
 * the caller, after the stage has finished its call in flight.
 * Predictors whose fast path does not apply take the reference
 * fallback inside simulateBatch(), which fills the same lane, so this
 * is bit-identical to a per-record predict()/update() loop. The
 * predictor is not reset; check stream.error() after.
 */
void simulateCaptured(core::BranchPredictor &predictor,
                      trace::ChunkStream &stream,
                      const CapturedBatchSink &sink);

} // namespace tlat::harness

#endif // TLAT_HARNESS_BRANCH_PROFILE_HH
