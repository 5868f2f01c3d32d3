/**
 * @file
 * Run-level observability counters for a predictor.
 *
 * The paper's evaluation attributes mispredictions to *causes* — HRT
 * misses (Section 5.1.2), pattern interference from table aliasing,
 * warmup — rather than reporting a single accuracy number. RunMetrics
 * is the snapshot a predictor fills in after a measured run so the
 * harness and the CLI can report that attribution.
 *
 * Collection is pull-based: predictors keep their existing cheap
 * always-on counters and copy them into a RunMetrics when
 * BranchPredictor::collectMetrics() is called after the run. Nothing
 * on the predict/update hot path tests a "metrics enabled" flag, so
 * a run that never calls collectMetrics() pays nothing beyond the
 * counters the simulator always maintained.
 *
 * Determinism: every field is a pure function of the (scheme, trace)
 * pair — no timestamps, thread ids or allocation addresses — so
 * metrics collected under the parallel sweep engine are bit-identical
 * for every worker count.
 *
 * Attribution layering: RunMetrics holds the *predictor-internal*
 * causes (HRT misses, table state, speculation squashes). The
 * *per-static-branch* attribution — which sites miss, and the
 * systematic/transient/chaotic hard-to-predict taxonomy derived from
 * each site's local outcome history — lives one layer up in
 * harness::BranchProfile / harness::H2pReport (branch_profile.hh),
 * because it is a property of the (predictor, trace) interaction the
 * harness measures, not of predictor internals. Both surfaces share
 * the determinism contract above.
 */

#ifndef TLAT_CORE_RUN_METRICS_HH
#define TLAT_CORE_RUN_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tlat
{
class AccuracyCounter;
class JsonWriter;
} // namespace tlat

namespace tlat::core
{

/** Predictor-internal counters snapshotted after a measured run. */
struct RunMetrics
{
    // ---- Level 1: history register table --------------------------
    /** Lookups that found the branch resident. */
    std::uint64_t hrtHits = 0;
    /** Lookups that missed (first touch or capacity/conflict). */
    std::uint64_t hrtMisses = 0;
    /**
     * Misses that displaced a live entry (AHRT only): the victim's
     * history register is handed to a different static branch, the
     * paper's re-allocation interference.
     */
    std::uint64_t hrtEvictions = 0;
    /**
     * Accesses observing another branch's state in the same slot:
     * HHRT lookups whose slot was last touched by a different
     * address line (tag-less aliasing), plus AHRT re-allocations
     * observed through the inherited payload.
     */
    std::uint64_t hrtAliasedLookups = 0;

    // ---- Level 2: global pattern table ----------------------------
    /**
     * Occupancy histogram over automaton/counter states at snapshot
     * time: entry i counts pattern-table entries currently in state
     * i. Sums to the table size (2^k).
     */
    std::vector<std::uint64_t> ptStateHistogram;

    // ---- Speculative history update -------------------------------
    /** Mispredictions that squashed younger in-flight speculation. */
    std::uint64_t squashEvents = 0;
    /** Younger speculations discarded by those squashes. */
    std::uint64_t squashedSpeculations = 0;
    /**
     * Branch pcs still holding in-flight speculation state at
     * snapshot time. After a fully paired predict()/update() run this
     * must be 0 — the regression guard for the drained-deque leak.
     */
    std::uint64_t inFlightBranches = 0;

    // ---- Combining predictor chooser ------------------------------
    /**
     * True when the run's scheme was a combining (tournament)
     * predictor; the fields below are meaningful only then (the JSON
     * writer always emits the block so the v3 schema's key set stays
     * fixed, zeroed for non-combining schemes).
     */
    bool combPresent = false;
    /** Component scheme names, in chooser order (A wins at >= 2). */
    std::string combComponentA;
    std::string combComponentB;
    /** Updates where component A / B predicted correctly. */
    std::uint64_t combCorrectA = 0;
    std::uint64_t combCorrectB = 0;
    /** Updates where the two components disagreed. */
    std::uint64_t combDisagreements = 0;
    /** Disagreements the chooser resolved in favour of A / B. */
    std::uint64_t combOverridesA = 0;
    std::uint64_t combOverridesB = 0;
    /** Chooser updates that flipped an entry's selected component. */
    std::uint64_t combChooserFlips = 0;

    double
    hrtHitRatio() const
    {
        const std::uint64_t total = hrtHits + hrtMisses;
        return total == 0 ? 0.0
                          : static_cast<double>(hrtHits) /
                                static_cast<double>(total);
    }
};

/**
 * Writes the "accuracy" member (key and object) shared by the
 * tlat-run-metrics-v3 and tlat-serve-metrics-v1 documents.
 */
void writeAccuracyJson(JsonWriter &json, const AccuracyCounter &accuracy);

/**
 * Writes the "predictor" member (hrt, pattern_table, speculation and
 * combining blocks) shared by the same two documents. The combining
 * block is always written (zeroed for non-combining schemes) so the
 * key set is fixed.
 */
void writePredictorJson(JsonWriter &json, const RunMetrics &metrics);

} // namespace tlat::core

#endif // TLAT_CORE_RUN_METRICS_HH
