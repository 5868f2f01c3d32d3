#include "scheme_factory.hh"

#include "core/combining_predictor.hh"
#include "core/contracts.hh"
#include "core/two_level_predictor.hh"
#include "static_predictors.hh"
#include "util/logging.hh"

namespace tlat::predictors
{

using core::Scheme;
using core::SchemeConfig;

std::unique_ptr<core::BranchPredictor>
makePredictor(const SchemeConfig &config)
{
    switch (config.scheme) {
      case Scheme::TwoLevelAdaptive:
      case Scheme::StaticTraining:
      case Scheme::LeeSmithBtb:
      case Scheme::Gshare:
      case Scheme::Profile: {
        core::TwoLevelConfig engine;
        engine.hrtKind = config.hrtKind;
        engine.hrtEntries = config.hrtEntries;
        engine.associativity = config.associativity;
        engine.historyBits = config.historyBits;
        engine.automaton = config.automaton;
        engine.data = config.data;
        if (config.scheme == Scheme::StaticTraining) {
            // Preset bits are one-bit entries.
            engine.automaton = core::AutomatonKind::LastTime;
        } else if (config.scheme == Scheme::LeeSmithBtb) {
            engine.patternScope = core::PatternScope::InEntry;
        } else if (config.scheme == Scheme::Gshare) {
            // Global history has no HRT: give it the sizeless IHRT
            // geometry every global-history config carries, so its
            // checkpoint fingerprint is the equivalent GAg+xor's.
            engine.historyScope = core::HistoryScope::Global;
            engine.xorAddress = true;
            engine.hrtKind = core::TableKind::Ideal;
            engine.hrtEntries = 0;
        } else if (config.scheme == Scheme::Profile) {
            // One preset bit per branch, in its entry of a sizeless
            // IHRT (Section 5.3's per-branch profiling).
            engine.patternScope = core::PatternScope::InEntry;
            engine.automaton = core::AutomatonKind::LastTime;
            engine.hrtKind = core::TableKind::Ideal;
            engine.hrtEntries = 0;
        }
        return std::make_unique<core::TwoLevelPredictor>(engine);
      }
      case Scheme::AlwaysTaken:
        return std::make_unique<AlwaysTakenPredictor>();
      case Scheme::AlwaysNotTaken:
        return std::make_unique<AlwaysNotTakenPredictor>();
      case Scheme::Btfn:
        return std::make_unique<BtfnPredictor>();
      case Scheme::Combining: {
        core::CombiningOptions options;
        options.chooserBits = config.chooserBits;
        // name() renders the canonical parsed text, so a factory
        // round-trip (parse -> build -> name -> parse) is stable.
        return std::make_unique<core::CombiningPredictor>(
            makePredictor(config.components[0]),
            makePredictor(config.components[1]), options,
            config.text());
      }
    }
    tlat_panic("unhandled scheme kind");
}

std::unique_ptr<core::BranchPredictor>
makePredictor(const std::string &schemeName)
{
    const auto config = SchemeConfig::parse(schemeName);
    if (!config)
        tlat_fatal("unparsable scheme name '", schemeName, "'");
    return makePredictor(*config);
}

} // namespace tlat::predictors
