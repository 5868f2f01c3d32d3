#include "scheme_factory.hh"

#include "core/combining_predictor.hh"
#include "core/contracts.hh"
#include "core/two_level_predictor.hh"
#include "profile_predictor.hh"
#include "static_predictors.hh"
#include "static_training.hh"
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
      case Scheme::LeeSmithBtb:
      case Scheme::Gshare: {
        core::TwoLevelConfig engine;
        engine.hrtKind = config.hrtKind;
        engine.hrtEntries = config.hrtEntries;
        engine.associativity = config.associativity;
        engine.historyBits = config.historyBits;
        engine.automaton = config.automaton;
        if (config.scheme == Scheme::LeeSmithBtb) {
            engine.patternScope = core::PatternScope::InEntry;
        } else if (config.scheme == Scheme::Gshare) {
            engine.historyScope = core::HistoryScope::Global;
            engine.xorAddress = true;
        }
        return std::make_unique<core::TwoLevelPredictor>(engine);
      }
      case Scheme::StaticTraining: {
        StaticTrainingConfig st;
        st.hrtKind = config.hrtKind;
        st.hrtEntries = config.hrtEntries;
        st.associativity = config.associativity;
        st.historyBits = config.historyBits;
        st.data = config.data;
        return std::make_unique<StaticTrainingPredictor>(st);
      }
      case Scheme::AlwaysTaken:
        return std::make_unique<AlwaysTakenPredictor>();
      case Scheme::AlwaysNotTaken:
        return std::make_unique<AlwaysNotTakenPredictor>();
      case Scheme::Btfn:
        return std::make_unique<BtfnPredictor>();
      case Scheme::Profile:
        return std::make_unique<ProfilePredictor>();
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
