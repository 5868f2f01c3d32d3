#include "metrics_json.hh"

#include <sstream>

#include "util/json_writer.hh"
#include "util/string_utils.hh"

namespace tlat::harness
{

void
writeRunMetricsJson(
    const RunMetricsReport &report, std::ostream &os,
    const std::vector<std::pair<std::string, std::string>> &context)
{
    JsonWriter json(os);
    json.beginObject();
    json.member("schema", kRunMetricsSchema);
    json.member("scheme", report.scheme);
    json.member("benchmark", report.benchmark);

    if (!context.empty()) {
        json.key("context").beginObject();
        for (const auto &[name, text] : context)
            json.member(name, text);
        json.endObject();
    }

    core::writeAccuracyJson(json, report.accuracy);
    core::writePredictorJson(json, report.predictor);

    json.key("warmup").beginObject();
    json.member("window", report.options.warmupWindow);
    json.key("points").beginArray();
    for (const WarmupPoint &point : report.warmupCurve) {
        json.beginObject();
        json.member("branches", point.branches);
        json.member("window_accuracy_percent",
                    point.windowAccuracyPercent);
        json.member("cumulative_accuracy_percent",
                    point.cumulativeAccuracyPercent);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    json.key("top_offenders").beginArray();
    for (const BranchSite &site : report.topOffenders) {
        json.beginObject();
        json.member("pc", format("0x%llx",
                                 static_cast<unsigned long long>(
                                     site.pc)));
        json.member("executions", site.executions);
        json.member("mispredictions", site.mispredictions);
        json.member("accuracy_percent", site.accuracy() * 100.0);
        json.member("taken_percent", site.takenRate() * 100.0);
        json.endObject();
    }
    json.endArray();

    const H2pReport &h2p = report.h2p;
    json.key("h2p").beginObject();
    json.member("history_bits",
                static_cast<std::uint64_t>(kTaxonomyHistoryBits));
    json.key("thresholds").beginObject();
    json.member("execution_floor", h2p.thresholds.executionFloor);
    json.member("accuracy_ceiling_percent",
                h2p.thresholds.accuracyCeilingPercent);
    json.member("chaotic_entropy_bits",
                h2p.thresholds.chaoticEntropyBits);
    json.endObject();
    json.member("static_sites", h2p.staticSites);
    json.member("h2p_sites", h2p.h2pSiteCount);
    json.member("h2p_executions", h2p.h2pExecutions);
    json.member("h2p_mispredictions", h2p.h2pMispredictions);
    json.member("total_executions", h2p.totalExecutions);
    json.member("total_mispredictions", h2p.totalMispredictions);
    json.member("systematic_misses", h2p.systematicMisses);
    json.member("transient_misses", h2p.transientMisses);
    json.key("sites").beginArray();
    for (const H2pSite &entry : h2p.sites) {
        const BranchSite &site = entry.site;
        json.beginObject();
        json.member("pc", format("0x%llx",
                                 static_cast<unsigned long long>(
                                     site.pc)));
        json.member("class", siteClassName(entry.cls));
        json.member("executions", site.executions);
        json.member("mispredictions", site.mispredictions);
        json.member("accuracy_percent", site.accuracy() * 100.0);
        json.member("taken_percent", site.takenRate() * 100.0);
        json.member("transition_percent",
                    site.transitionRate() * 100.0);
        json.member("history_entropy_bits",
                    site.historyEntropyBits());
        json.member("systematic_misses", site.systematicMisses);
        json.member("transient_misses", site.transientMisses);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.endObject();
}

std::string
runMetricsJsonString(const RunMetricsReport &report)
{
    std::ostringstream os;
    writeRunMetricsJson(report, os);
    return os.str();
}

} // namespace tlat::harness
