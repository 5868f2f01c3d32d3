/**
 * @file
 * Experiment driver: runs a predictor over a branch trace the way the
 * paper's branch prediction simulator does — for every conditional
 * branch, predict, verify against the recorded outcome, update.
 *
 * Schemes that need a profiling pass (Static Training, Profile) are
 * trained first on the supplied training trace: the test trace itself
 * for Same-data configurations, a different data set's trace for Diff.
 */

#ifndef TLAT_HARNESS_EXPERIMENT_HH
#define TLAT_HARNESS_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "branch_profile.hh"
#include "core/branch_predictor.hh"
#include "core/run_metrics.hh"
#include "core/scheme_config.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_buffer.hh"
#include "util/stats.hh"

namespace tlat::harness
{

/** Outcome of measuring one scheme on one benchmark trace. */
struct ExperimentResult
{
    std::string scheme;
    std::string benchmark;
    AccuracyCounter accuracy;
};

/**
 * Measures @p predictor on the conditional branches of @p test.
 * The predictor is *not* reset first (callers may pre-train).
 *
 * Routed through BranchPredictor::simulateBatch() over the trace's
 * predecoded view (SoA lanes + the prefiltered conditional span) —
 * predictors with a fused fast path run it here; the result is
 * defined to be bit-identical to measureReference().
 */
AccuracyCounter measure(core::BranchPredictor &predictor,
                        const trace::TraceBuffer &test);

/**
 * Measures @p predictor over a chunk stream: one simulateBatch() call
 * per chunk, predictor state carried across chunks. Bit-identical to
 * measure() over the equivalent whole buffer for every chunk size —
 * history, pattern tables and the capture feed all live in the
 * predictor, never in the stream. The caller owns error handling:
 * check stream.error() after the call (a failed stream simply ends
 * early).
 *
 * This is the O(chunk)-memory path: paired with MmapChunkStream it
 * simulates traces far larger than RAM. measure() itself routes
 * through a BufferChunkStream when TLAT_CHUNK_RECORDS is set, so the
 * whole sweep engine inherits chunked execution from one knob.
 */
AccuracyCounter measureStream(core::BranchPredictor &predictor,
                              trace::ChunkStream &stream);

/**
 * The reference measuring loop: per-record virtual
 * predict()/update() over the full trace — the only such loop left in
 * the harness. Kept as the semantic ground truth that the fuzz tests
 * and bench_throughput compare the fused path against; not used by
 * the figure benches or the CLI.
 */
AccuracyCounter measureReference(core::BranchPredictor &predictor,
                                 const trace::TraceBuffer &test);

/**
 * Full protocol: reset, train if the scheme requires it, measure.
 *
 * @param test The measured trace.
 * @param train Training trace for schemes that need one; when null,
 *        the test trace is used (the paper's Same-data protocol).
 */
ExperimentResult runExperiment(core::BranchPredictor &predictor,
                               const trace::TraceBuffer &test,
                               const trace::TraceBuffer *train =
                                   nullptr);

// ---- Observability layer ------------------------------------------
//
// The metrics path drives the same simulateBatch() fast path as
// measure(), with AccuracyCounter's per-branch correctness capture
// attached (simulateCaptured() in branch_profile.hh); the warmup
// curve, per-site profile and h2p taxonomy are derived from that lane
// plus the chunk's SoA ids and outcome bits. That derivation runs on
// a one-worker stage thread, one or more chunks behind the simulate,
// over its own copy of the lanes: it depends only on ids, outcomes and
// correctness in trace order, never on the predictor, so the overlap
// changes no byte of a report. Plain measure() attaches no capture
// and starts no stage, so metrics cost nothing when not asked for.
// Everything below is a pure function of (scheme, trace), so reports
// collected under the parallel sweep engine are bit-identical for
// every worker count.

/** One point of the warmup curve (window of conditional branches). */
struct WarmupPoint
{
    /** Conditional branches measured up to and including this window. */
    std::uint64_t branches = 0;
    /** Accuracy within this window alone, percent. */
    double windowAccuracyPercent = 0.0;
    /** Accuracy from the start of the run, percent. */
    double cumulativeAccuracyPercent = 0.0;
};

/** Knobs of the metrics-collecting measurement loop. */
struct MetricsOptions
{
    /** Conditional branches per warmup-curve window (>= 1). */
    std::uint64_t warmupWindow = 10000;
    /** Entries in the per-branch top-offender list. */
    std::size_t topOffenders = 10;
    /** Entries in the h2p section's per-site list. */
    std::size_t h2pSites = 10;
    /** H2P classification thresholds (see branch_profile.hh). */
    TaxonomyThresholds h2pThresholds;
};

/** One classified hard-to-predict site of the h2p section. */
struct H2pSite
{
    BranchSite site;
    SiteClass cls = SiteClass::Stable;
};

/**
 * Per-run hard-to-predict-branch taxonomy: every static site
 * classified against the thresholds, the H2P set (everything not
 * Stable) summarized, and the heaviest H2P sites listed in the
 * profile's canonical order (misprediction count descending, pc
 * ascending). Integer tallies plus floating point derived from them
 * in fixed order — byte-identical across sweep worker counts.
 */
struct H2pReport
{
    TaxonomyThresholds thresholds;
    /** All static conditional sites of the run. */
    std::uint64_t staticSites = 0;
    /** Sites classified as anything but Stable. */
    std::uint64_t h2pSiteCount = 0;
    /** Executions and misses concentrated in the H2P set. */
    std::uint64_t h2pExecutions = 0;
    std::uint64_t h2pMispredictions = 0;
    /** Run totals for reference (all sites, Stable included). */
    std::uint64_t totalExecutions = 0;
    std::uint64_t totalMispredictions = 0;
    /** Taxonomy split of every miss of the run. */
    std::uint64_t systematicMisses = 0;
    std::uint64_t transientMisses = 0;
    /** Heaviest H2P sites, canonical order, capped at h2pSites. */
    std::vector<H2pSite> sites;
};

/** Everything observed about one measured (scheme, benchmark) run. */
struct RunMetricsReport
{
    std::string scheme;
    std::string benchmark;
    AccuracyCounter accuracy;
    /** Predictor-internal counters (zeroed for stateless schemes). */
    core::RunMetrics predictor;
    MetricsOptions options;
    /** Accuracy over consecutive windows — the warmup transient. */
    std::vector<WarmupPoint> warmupCurve;
    /** Heaviest mispredicting static branches, worst first. */
    std::vector<BranchSite> topOffenders;
    /** Hard-to-predict-branch taxonomy of the run. */
    H2pReport h2p;
};

/**
 * Derives the h2p section from a collected profile: classifies every
 * site, totals the taxonomy and keeps the heaviest non-Stable sites.
 * Exposed so tests can build the section from hand-made profiles.
 */
H2pReport buildH2pReport(const BranchProfile &profile,
                         const MetricsOptions &options);

/**
 * Like measure(), but also collects the warmup curve, the per-branch
 * misprediction attribution and the predictor's internal counters.
 * Prediction/update behaviour is identical to measure() — the
 * accuracy field always matches a plain measure() run bit-for-bit.
 */
RunMetricsReport measureWithMetrics(core::BranchPredictor &predictor,
                                    const trace::TraceBuffer &test,
                                    const MetricsOptions &options =
                                        {});

/**
 * The metrics loop over a chunk stream: one captured simulateBatch()
 * per chunk, with window and profile state carried across chunks on
 * simulateCaptured()'s stage thread, so the report (accuracy, warmup
 * curve, offenders, h2p) is byte-identical for every chunk size and
 * to a per-record predict()/update() loop. A stream that fails ends
 * the report at the chunks delivered before it; check stream.error()
 * after the call. An exception from the stream reaches the caller.
 */
RunMetricsReport
measureStreamWithMetrics(core::BranchPredictor &predictor,
                         trace::ChunkStream &stream,
                         const MetricsOptions &options = {});

/**
 * Full protocol with metrics: reset, train if needed, measure with
 * collection. The metrics counterpart of runExperiment().
 */
RunMetricsReport runProfiledExperiment(core::BranchPredictor &predictor,
                                       const trace::TraceBuffer &test,
                                       const trace::TraceBuffer *train =
                                           nullptr,
                                       const MetricsOptions &options =
                                           {});

} // namespace tlat::harness

#endif // TLAT_HARNESS_EXPERIMENT_HH
