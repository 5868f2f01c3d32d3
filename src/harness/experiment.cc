#include "experiment.hh"

#include <algorithm>

namespace tlat::harness
{

AccuracyCounter
measure(core::BranchPredictor &predictor,
        const trace::TraceBuffer &test)
{
    // Routed through the chunk iterator: with TLAT_CHUNK_RECORDS
    // unset the stream degenerates to one whole-buffer chunk that
    // re-shares the trace's cached predecode artifact (compiled once
    // per trace and shared read-only by every cell that replays it),
    // so the legacy cost model is unchanged; when set, the whole
    // sweep engine runs chunked with bit-identical results.
    trace::BufferChunkStream stream(test,
                                    trace::defaultChunkRecords());
    return measureStream(predictor, stream);
}

AccuracyCounter
measureStream(core::BranchPredictor &predictor,
              trace::ChunkStream &stream)
{
    AccuracyCounter accuracy;
    while (const trace::TraceChunk *chunk = stream.next())
        predictor.simulateBatch(chunk->view, accuracy);
    return accuracy;
}

AccuracyCounter
measureReference(core::BranchPredictor &predictor,
                 const trace::TraceBuffer &test)
{
    AccuracyCounter accuracy;
    for (const trace::BranchRecord &record : test.conditionalView()) {
        const bool predicted = predictor.predict(record);
        accuracy.record(predicted == record.taken);
        predictor.update(record);
    }
    return accuracy;
}

ExperimentResult
runExperiment(core::BranchPredictor &predictor,
              const trace::TraceBuffer &test,
              const trace::TraceBuffer *train)
{
    predictor.reset();
    if (predictor.needsTraining())
        predictor.train(train ? *train : test);

    ExperimentResult result;
    result.scheme = predictor.name();
    result.benchmark = test.name();
    result.accuracy = measure(predictor, test);
    return result;
}

H2pReport
buildH2pReport(const BranchProfile &profile,
               const MetricsOptions &options)
{
    H2pReport report;
    report.thresholds = options.h2pThresholds;
    report.totalExecutions = profile.totalExecutions();
    report.totalMispredictions = profile.totalMispredictions();
    // allSites() is the canonical deterministic order; classifying in
    // that order makes the capped site list a pure function of the
    // tallies.
    for (const BranchSite &site : profile.allSites()) {
        ++report.staticSites;
        report.systematicMisses += site.systematicMisses;
        report.transientMisses += site.transientMisses;
        const SiteClass cls = classifySite(site, report.thresholds);
        if (cls == SiteClass::Stable)
            continue;
        ++report.h2pSiteCount;
        report.h2pExecutions += site.executions;
        report.h2pMispredictions += site.mispredictions;
        if (report.sites.size() < options.h2pSites)
            report.sites.push_back(H2pSite{site, cls});
    }
    return report;
}

RunMetricsReport
measureWithMetrics(core::BranchPredictor &predictor,
                   const trace::TraceBuffer &test,
                   const MetricsOptions &options)
{
    // One loop implementation for both faces: the whole-buffer call
    // is the stream loop over a degenerate single chunk (zero-copy),
    // so chunked and unchunked metrics cannot drift apart.
    trace::BufferChunkStream stream(test,
                                    trace::defaultChunkRecords());
    return measureStreamWithMetrics(predictor, stream, options);
}

RunMetricsReport
measureStreamWithMetrics(core::BranchPredictor &predictor,
                         trace::ChunkStream &stream,
                         const MetricsOptions &options)
{
    RunMetricsReport report;
    report.scheme = predictor.name();
    report.benchmark = stream.name();
    report.options = options;
    report.options.warmupWindow =
        std::max<std::uint64_t>(1, options.warmupWindow);

    BranchProfile profile;
    std::uint64_t window_branches = 0;
    std::uint64_t window_hits = 0;
    const auto closeWindow = [&]() {
        WarmupPoint point;
        point.branches = report.accuracy.total();
        point.windowAccuracyPercent =
            100.0 * static_cast<double>(window_hits) /
            static_cast<double>(window_branches);
        point.cumulativeAccuracyPercent =
            report.accuracy.accuracyPercent();
        report.warmupCurve.push_back(point);
        window_branches = 0;
        window_hits = 0;
    };

    // The predictor runs its fast batch path; everything derived —
    // accuracy, warmup windows, per-site profile, h2p — is read off
    // the capture lane, on simulateCaptured's stage thread one chunk
    // behind the simulate. Window and profile state live outside the
    // chunk loop, so chunk boundaries are invisible to every derived
    // metric: the lane is the concatenation of the chunks, which the
    // stream contract defines to equal the whole trace in order. Only
    // the stage touches that state until simulateCaptured returns.
    simulateCaptured(
        predictor, stream,
        [&profile, &report, &window_branches, &window_hits,
         &closeWindow](const trace::PredecodedTrace &soa,
                       std::span<const std::uint8_t> correct) {
            profile.recordBatch(soa, correct);
            for (const std::uint8_t hit : correct) {
                report.accuracy.record(hit != 0);
                ++window_branches;
                window_hits += hit;
                if (window_branches == report.options.warmupWindow)
                    closeWindow();
            }
        });
    if (window_branches > 0)
        closeWindow(); // final partial window

    predictor.collectMetrics(report.predictor);
    report.topOffenders = profile.worstSites(options.topOffenders);
    report.h2p = buildH2pReport(profile, report.options);
    return report;
}

RunMetricsReport
runProfiledExperiment(core::BranchPredictor &predictor,
                      const trace::TraceBuffer &test,
                      const trace::TraceBuffer *train,
                      const MetricsOptions &options)
{
    predictor.reset();
    if (predictor.needsTraining())
        predictor.train(train ? *train : test);
    return measureWithMetrics(predictor, test, options);
}

} // namespace tlat::harness
