#include "run_metrics.hh"

#include "util/json_writer.hh"
#include "util/stats.hh"

namespace tlat::core
{

void
writeAccuracyJson(JsonWriter &json, const AccuracyCounter &accuracy)
{
    json.key("accuracy").beginObject();
    json.member("conditional_branches", accuracy.total());
    json.member("hits", accuracy.hits());
    json.member("misses", accuracy.misses());
    json.member("accuracy_percent", accuracy.accuracyPercent());
    json.member("miss_percent", accuracy.missPercent());
    json.endObject();
}

void
writePredictorJson(JsonWriter &json, const RunMetrics &metrics)
{
    json.key("predictor").beginObject();
    json.key("hrt").beginObject();
    json.member("hits", metrics.hrtHits);
    json.member("misses", metrics.hrtMisses);
    json.member("hit_ratio", metrics.hrtHitRatio());
    json.member("evictions", metrics.hrtEvictions);
    json.member("aliased_lookups", metrics.hrtAliasedLookups);
    json.endObject();
    json.key("pattern_table").beginObject();
    json.key("state_histogram").beginArray();
    for (const std::uint64_t count : metrics.ptStateHistogram)
        json.value(count);
    json.endArray();
    json.endObject();
    json.key("speculation").beginObject();
    json.member("squash_events", metrics.squashEvents);
    json.member("squashed_speculations", metrics.squashedSpeculations);
    json.member("in_flight_branches", metrics.inFlightBranches);
    json.endObject();
    json.key("combining").beginObject();
    json.member("present", metrics.combPresent);
    json.member("component_a", metrics.combComponentA);
    json.member("component_b", metrics.combComponentB);
    json.member("correct_a", metrics.combCorrectA);
    json.member("correct_b", metrics.combCorrectB);
    json.member("disagreements", metrics.combDisagreements);
    json.member("overrides_a", metrics.combOverridesA);
    json.member("overrides_b", metrics.combOverridesB);
    json.member("chooser_flips", metrics.combChooserFlips);
    json.endObject();
    json.endObject();
}

} // namespace tlat::core
