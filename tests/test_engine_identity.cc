/**
 * @file
 * Identity goldens for every two-level configuration: a 64-bit FNV-1a
 * digest of name(), of the RunMetrics JSON and of the checkpoint
 * bytes each predictor leaves after one fixed seeded trace.
 *
 * The rows cover every scheme SimulateBatchFuzz.EveryFactoryScheme
 * builds, the taxonomy scope matrix (with and without the xor index)
 * and the direct-construction AT modes the factory never emits:
 * cached prediction bit, speculative history, counter entries, the
 * initialization ablations and the mixed HHRT hash. These three
 * outputs are the external contracts of a predictor, so any change to
 * naming, metrics or checkpoint layout moves a digest here.
 *
 * The PAg points of the taxonomy are AT(IHRT) by construction; their
 * rows assert that all three digests equal the matching AT row's.
 */

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_level_predictor.hh"
#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
#include "predictors/scheme_factory.hh"
#include "util/random.hh"

namespace tlat
{
namespace
{

using core::AutomatonKind;
using core::HistoryScope;
using core::PatternScope;
using core::TableKind;
using core::TwoLevelConfig;
using trace::BranchClass;
using trace::BranchRecord;
using trace::TraceBuffer;

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** 48 biased or alternating sites plus non-conditional noise. */
TraceBuffer
makeTrace()
{
    Rng rng(0x1de7);
    TraceBuffer trace("identity");
    struct Site
    {
        std::uint64_t pc;
        std::uint32_t takenPermille;
        bool alternating;
        bool last;
    };
    std::vector<Site> sites;
    for (int i = 0; i < 48; ++i) {
        sites.push_back({0x1000 + 4 * rng.nextBelow(1 << 14),
                         static_cast<std::uint32_t>(rng.nextBelow(1001)),
                         rng.nextBelow(8) == 0, false});
    }
    for (int i = 0; i < 6000; ++i) {
        BranchRecord record;
        if (rng.nextBelow(8) == 0) {
            record.pc = 0x9000 + 4 * rng.nextBelow(1 << 10);
            record.target = record.pc + 64;
            record.cls = BranchClass::ImmediateUnconditional;
            record.taken = true;
            trace.append(record);
            continue;
        }
        Site &site = sites[rng.nextBelow(sites.size())];
        record.pc = site.pc;
        record.target = site.pc - 32;
        record.cls = BranchClass::Conditional;
        site.last = site.alternating
            ? !site.last
            : rng.nextBelow(1000) < site.takenPermille;
        record.taken = site.last;
        trace.append(record);
    }
    return trace;
}

struct Digests
{
    std::uint64_t name;
    std::uint64_t metrics;
    std::uint64_t checkpoint;

    bool operator==(const Digests &) const = default;
};

Digests
digest(core::BranchPredictor &predictor, const TraceBuffer &trace)
{
    predictor.reset();
    if (predictor.needsTraining())
        predictor.train(trace);
    harness::RunMetricsReport report;
    report.scheme = predictor.name();
    report.benchmark = trace.name();
    report.accuracy = harness::measure(predictor, trace);
    predictor.collectMetrics(report.predictor);
    std::ostringstream checkpoint;
    if (!predictor.saveCheckpoint(checkpoint))
        checkpoint.str("no-checkpoint");
    return {fnv1a(predictor.name()),
            fnv1a(harness::runMetricsJsonString(report)),
            fnv1a(checkpoint.str())};
}

using Factory = std::function<std::unique_ptr<core::BranchPredictor>()>;

struct Case
{
    std::string label;
    Factory make;
};

const char *
scopeLetters(HistoryScope history, PatternScope pattern)
{
    static const char *const kLetters[3][3] = {
        {"GAg", "GAs", "GAp"},
        {"PAg", "PAs", "PAp"},
        {"SAg", "SAs", "SAp"}};
    return kLetters[static_cast<int>(history)]
                   [static_cast<int>(pattern)];
}

/** A taxonomy point of the two-level design space. */
std::unique_ptr<core::BranchPredictor>
makeTaxonomy(HistoryScope history, PatternScope pattern, bool xor_index,
             AutomatonKind automaton)
{
    TwoLevelConfig config;
    config.historyScope = history;
    config.patternScope = pattern;
    // An IHRT has no size; the scheme parser leaves it 0.
    config.hrtKind = TableKind::Ideal;
    config.hrtEntries = 0;
    config.historyBits = 6;
    config.automaton = automaton;
    config.xorAddress = xor_index;
    return std::make_unique<core::TwoLevelPredictor>(config);
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    const auto scheme = [&cases](const std::string &name) {
        cases.push_back({name, [name] {
                             return predictors::makePredictor(name);
                         }});
    };
    const auto direct = [&cases](const std::string &label,
                                 const TwoLevelConfig &config) {
        cases.push_back({label, [config] {
                             return std::make_unique<
                                 core::TwoLevelPredictor>(config);
                         }});
    };

    // SimulateBatchFuzz.EveryFactoryScheme.
    for (const char *hrt : {"IHRT(,", "AHRT(64,", "HHRT(64,"}) {
        for (const char *atm : {"LT", "A1", "A2", "A3", "A4"}) {
            scheme(std::string("AT(") + hrt + "6SR),PT(2^6," + atm +
                   "),)");
        }
        scheme(std::string("ST(") + hrt + "6SR),PT(2^6,PB),Same)");
    }
    for (const char *hrt : {"IHRT(,", "AHRT(64,", "HHRT(64,"}) {
        for (const char *atm : {"LT", "A1", "A2", "A3", "A4"})
            scheme(std::string("LS(") + hrt + atm + "),,)");
    }
    for (const char *name :
         {"AlwaysTaken", "AlwaysNotTaken", "BTFN", "Profile",
          "GSH(6,A2)", "GSH(8,LT)",
          "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^8))",
          "CMB(GSH(6,A2),LS(IHRT(,LT),,),CT(2^6))",
          "CMB(AT(IHRT(,6SR),PT(2^6,A2),),BTFN,CT(2^8))"})
        scheme(name);

    // The taxonomy scope matrix, with the xor index where it is
    // defined (global history).
    for (const HistoryScope history :
         {HistoryScope::Global, HistoryScope::PerAddress,
          HistoryScope::PerSet}) {
        for (const PatternScope pattern :
             {PatternScope::Global, PatternScope::PerSet,
              PatternScope::PerAddress}) {
            for (const bool xor_index : {false, true}) {
                if (xor_index && history != HistoryScope::Global)
                    continue;
                for (const AutomatonKind automaton :
                     {AutomatonKind::LastTime, AutomatonKind::A1,
                      AutomatonKind::A2, AutomatonKind::A3,
                      AutomatonKind::A4}) {
                    cases.push_back(
                        {std::string(scopeLetters(history, pattern)) +
                             (xor_index ? "+xor/" : "/") +
                             core::automatonName(automaton),
                         [=] {
                             return makeTaxonomy(history, pattern,
                                                 xor_index, automaton);
                         }});
                }
            }
        }
    }

    // AT modes only direct construction reaches.
    for (const TableKind kind :
         {TableKind::Ideal, TableKind::Associative, TableKind::Hashed}) {
        TwoLevelConfig base;
        base.hrtKind = kind;
        base.hrtEntries = 64;
        base.historyBits = 6;
        const std::string hrt = core::tableKindName(kind);
        for (const bool cached : {false, true}) {
            for (const bool speculative : {false, true}) {
                for (const unsigned counter_bits : {0u, 3u, 5u}) {
                    TwoLevelConfig config = base;
                    config.cachedPredictionBit = cached;
                    config.speculativeHistoryUpdate = speculative;
                    config.counterBits = counter_bits;
                    direct(hrt + (cached ? "/cached" : "") +
                               (speculative ? "/spec" : "") + "/C" +
                               std::to_string(counter_bits),
                           config);
                }
            }
        }
        TwoLevelConfig zeros = base;
        zeros.initHistoryOnes = false;
        direct(hrt + "/history-zeros", zeros);
        TwoLevelConfig init = base;
        init.automatonInitState = 0;
        direct(hrt + "/automaton-init-0", init);
    }
    TwoLevelConfig mixed;
    mixed.hrtKind = TableKind::Hashed;
    mixed.hrtEntries = 64;
    mixed.historyBits = 6;
    mixed.hhrtHash = core::HashKind::Mixed;
    direct("HHRT/mixed-hash", mixed);
    return cases;
}

struct Golden
{
    const char *label;
    Digests digests;
};

/** PAg rows whose digests must equal the named AT(IHRT) row's. */
struct SameAs
{
    const char *label;
    const char *reference;
};

const std::vector<SameAs> kSameAs = {
    {"PAg/LT", "AT(IHRT(,6SR),PT(2^6,LT),)"},
    {"PAg/A1", "AT(IHRT(,6SR),PT(2^6,A1),)"},
    {"PAg/A2", "AT(IHRT(,6SR),PT(2^6,A2),)"},
    {"PAg/A3", "AT(IHRT(,6SR),PT(2^6,A3),)"},
    {"PAg/A4", "AT(IHRT(,6SR),PT(2^6,A4),)"},
};

// clang-format off
const std::vector<Golden> kGoldens = {
    {"AT(IHRT(,6SR),PT(2^6,LT),)", {0x937ad4e471be6199ull, 0xef1c93dd38739037ull, 0x826e17fde88ff8d0ull}},
    {"AT(IHRT(,6SR),PT(2^6,A1),)", {0x7375f201c347c547ull, 0x4ddff853882585f3ull, 0x27aaf625638052b6ull}},
    {"AT(IHRT(,6SR),PT(2^6,A2),)", {0x2e60b1e9180f7764ull, 0x36a786da439c523full, 0x9c580689ed510772ull}},
    {"AT(IHRT(,6SR),PT(2^6,A3),)", {0x928e79f02a5e75fdull, 0x9f35ee4b0a54c66aull, 0x24b79479e779ca6eull}},
    {"AT(IHRT(,6SR),PT(2^6,A4),)", {0xc4189a19e380d75aull, 0x8f619761a06835d3ull, 0x915fb0e6db630a86ull}},
    {"ST(IHRT(,6SR),PT(2^6,PB),Same)", {0x9055f69b222db983ull, 0x8a3a7b9c6b1d7d45ull, 0x4ccc9024d7c213cfull}},
    {"AT(AHRT(64,6SR),PT(2^6,LT),)", {0x3c906c576d3f0b33ull, 0xc39af4d266eff5b6ull, 0x6099c879db6036d0ull}},
    {"AT(AHRT(64,6SR),PT(2^6,A1),)", {0x895b68fd2b2f1cd9ull, 0x12868bc722c41d4aull, 0x652d85d94b160a7dull}},
    {"AT(AHRT(64,6SR),PT(2^6,A2),)", {0xc540c905d9b4d93aull, 0x1789ef970805629aull, 0xef382de94339abd2ull}},
    {"AT(AHRT(64,6SR),PT(2^6,A3),)", {0x53cd410e26036763ull, 0x04bb5ea3f5ea5eadull, 0x6f1507c005b0dc69ull}},
    {"AT(AHRT(64,6SR),PT(2^6,A4),)", {0xdacbe0d29a44fd44ull, 0xf976068ae5a6f53dull, 0x195e372c869c533dull}},
    {"ST(AHRT(64,6SR),PT(2^6,PB),Same)", {0x2f1be6bb41bf7169ull, 0xe72b26abb9bdb048ull, 0x4ccc9024d7c213cfull}},
    {"AT(HHRT(64,6SR),PT(2^6,LT),)", {0xeb407895f07c3d54ull, 0x0f5edf5ceaac850aull, 0xc9fd4570f4277634ull}},
    {"AT(HHRT(64,6SR),PT(2^6,A1),)", {0x170345af3b0609feull, 0xf6ebaadc4c44b1baull, 0x01d52758bc80b8a4ull}},
    {"AT(HHRT(64,6SR),PT(2^6,A2),)", {0x65b5a5a6db00537dull, 0x3b23069197f7419full, 0x95f41f80a286f220ull}},
    {"AT(HHRT(64,6SR),PT(2^6,A3),)", {0x0187dd9fc8b154e4ull, 0x3ab380f0b484a299ull, 0x83c2ec12109570a3ull}},
    {"AT(HHRT(64,6SR),PT(2^6,A4),)", {0x25cc3dd8e0714303ull, 0xfd933553aad4efa8ull, 0xea75c96e583aefb4ull}},
    {"ST(HHRT(64,6SR),PT(2^6,PB),Same)", {0x202daaea7202c036ull, 0x84a1ab7484603ac5ull, 0x4ccc9024d7c213cfull}},
    {"LS(IHRT(,LT),,)", {0xb10c728d8ecad3b5ull, 0xab1af2db21bf6926ull, 0xeb563564904b44a6ull}},
    {"LS(IHRT(,A1),,)", {0x5c4bce742de8faf7ull, 0x524673354bc9e30cull, 0x7c7798b264c51b75ull}},
    {"LS(IHRT(,A2),,)", {0x2c2a6976c0d1ff0aull, 0x5b52ab9bcf591b1full, 0x14699f171987534full}},
    {"LS(IHRT(,A3),,)", {0xb3984e906a764fe9ull, 0xb85824f61c2f8c37ull, 0xf622d4926b24fd57ull}},
    {"LS(IHRT(,A4),,)", {0x10bd04b1ef5f88a4ull, 0x67e86af0b97ba82eull, 0x49db32a7ec415cc3ull}},
    {"LS(AHRT(64,LT),,)", {0xf68b818671e1c8ebull, 0xe2ba83f2f4531672ull, 0xf799c8822077bd5dull}},
    {"LS(AHRT(64,A1),,)", {0xa6badcd3aa3d29edull, 0x96d60d9dc7b44970ull, 0x37c497ae9a65eff8ull}},
    {"LS(AHRT(64,A2),,)", {0xf4cf43f9469fff14ull, 0x40e9fcd2df3d85a2ull, 0x9bc6a26c57e0dae2ull}},
    {"LS(AHRT(64,A3),,)", {0x7af3499852d050abull, 0x27b66a7729e557b9ull, 0xcb629efac95a7becull}},
    {"LS(AHRT(64,A4),,)", {0x0e0e2ad3a4c8cf7aull, 0x3e5a205a8a87032full, 0xf74991db3d11d2d9ull}},
    {"LS(HHRT(64,LT),,)", {0x3853f30c075c79caull, 0x7e31206fde5c8183ull, 0xe1c15026b4fe74d9ull}},
    {"LS(HHRT(64,A1),,)", {0xb2e6501c9097eee0ull, 0xf101d0c4889fde53ull, 0xf66d23c636e7c591ull}},
    {"LS(HHRT(64,A2),,)", {0x92cba55277c77469ull, 0x8aca7ffa877d639eull, 0x0f5c63b10e797921ull}},
    {"LS(HHRT(64,A3),,)", {0x0b5dc038ce23238aull, 0xf1af35ba511c10d4ull, 0x4aecc5218d19bb1cull}},
    {"LS(HHRT(64,A4),,)", {0x4c8ee111cf99b17bull, 0x5624d3f93bd6b41aull, 0x2465cb22b6ecd407ull}},
    {"AlwaysTaken", {0x444b7516617f9f2bull, 0x9e37599e073c0274ull, 0x1dc034a1e202bcb7ull}},
    {"AlwaysNotTaken", {0x63e4867781ec3178ull, 0xd186a7ee2ed6f4c5ull, 0xf8ffdda3deff5e73ull}},
    {"BTFN", {0x1ef6d2a74d4731a3ull, 0xa59082bce0f1cd04ull, 0xb14459aed3984e55ull}},
    {"Profile", {0xb061ff5a347a296eull, 0xb9fd472132246c50ull, 0x4ccc9024d7c213cfull}},
    {"GSH(6,A2)", {0x83f12cc3223d7b51ull, 0xd2beaa92e3d3852dull, 0xe975b356024965bdull}},
    {"GSH(8,LT)", {0xa688414e27421c46ull, 0xf2768c7ec78d25acull, 0x5c903293ee70404eull}},
    {"CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^8))", {0x50191d8b841cf464ull, 0xfdec2805cfc7d2deull, 0x6aad6d31033b14adull}},
    {"CMB(GSH(6,A2),LS(IHRT(,LT),,),CT(2^6))", {0xa1fd4a21780cd7a8ull, 0xee84c1d1b0553b22ull, 0x949a4cea3afc5760ull}},
    {"CMB(AT(IHRT(,6SR),PT(2^6,A2),),BTFN,CT(2^8))", {0x21873cecba1379a5ull, 0xd73ba165298be56dull, 0x987c7d37f2a81dddull}},
    {"GAg/LT", {0x3d4e3f1907ff7453ull, 0x98f12d79d0bda442ull, 0x0fbd70e40dd885deull}},
    {"GAg/A1", {0x69ee181921a54685ull, 0xd6be52fb907bf9f8ull, 0xe1b2290202fc59e3ull}},
    {"GAg/A2", {0x69eab01921a25ff6ull, 0x23744239f58da5ceull, 0x9c70ee7c2d5f57a6ull}},
    {"GAg/A3", {0x69e70c19219f1373ull, 0x589347b36a74b016ull, 0x3500f666a098e037ull}},
    {"GAg/A4", {0x69ff141921b3b2ecull, 0x079b5cbf1d89fca9ull, 0x128a58905a17ce41ull}},
    {"GAg+xor/LT", {0x22fc6dc2ead94ba4ull, 0x42b4adedad4594f9ull, 0xc1a6a36bbde6e51full}},
    {"GAg+xor/A1", {0x83edb4c3223a7992ull, 0x119012794736bd71ull, 0x5599388c72a4f58cull}},
    {"GAg+xor/A2", {0x83f12cc3223d7b51ull, 0xd2beaa92e3d3852dull, 0xe975b356024965bdull}},
    {"GAg+xor/A3", {0x83f450c3223fee54ull, 0xaaadcc3e08833db5ull, 0x8fa7e674626022baull}},
    {"GAg+xor/A4", {0x83dcc8c3222c285bull, 0xdbe28b46b336fc62ull, 0xb4895be01ed8c6adull}},
    {"GAs/LT", {0x8ea91679ac839c7full, 0xd64719dd6b15f784ull, 0xb1691b535a21b842ull}},
    {"GAs/A1", {0x00e6a779edaf37d1ull, 0x10f1f4efe7d7fb42ull, 0x694d4d0a55a9f86aull}},
    {"GAs/A2", {0x00e32f79edac3612ull, 0xdfb893090ceb16ffull, 0xee51fd2da4769023ull}},
    {"GAs/A3", {0x00dfcb79eda9564full, 0xafdc53ba946e89a6ull, 0xd5cbce45cf4d31c1ull}},
    {"GAs/A4", {0x00dc2379eda60300ull, 0x0ef6f083249c540full, 0x1a66381748f3a795ull}},
    {"GAs+xor/LT", {0x6f0ce9ff1af88271ull, 0xb95ed9a20ad0be9cull, 0x6b4be8fd8f876c6cull}},
    {"GAs+xor/A1", {0xcec7d8806a1f087full, 0x6867a113259e4d81ull, 0x293d5c08682105a6ull}},
    {"GAs+xor/A2", {0xb7b7cf3f624b78b0ull, 0xb476a66762649eaaull, 0x9c4cd8e9104efb4dull}},
    {"GAs+xor/A3", {0x9f9b98cac2209041ull, 0xd842313dc1d4450aull, 0xe8de3f2f1d611457ull}},
    {"GAs+xor/A4", {0x3204c85e4dd86cdaull, 0x2910475de01b8d47ull, 0x653d1ca350eb4e78ull}},
    {"GAp/LT", {0xcaa857ba1c8cda2aull, 0x9539d4d4d32cdf74ull, 0xc88837c1c6945e6eull}},
    {"GAp/A1", {0x28332eba510a20c8ull, 0xc3b67ae40166d4a1ull, 0xb7dda20fe189b674ull}},
    {"GAp/A2", {0x28292eba5101cc43ull, 0x4a43c832e70fab2cull, 0x93acf60738bdcf3eull}},
    {"GAp/A3", {0x282c92ba5104ac06ull, 0xb1470de73e372f18ull, 0xbcb9cc652f8ab864ull}},
    {"GAp/A4", {0x283d92ba51131f39ull, 0x78d26e02f347a9b4ull, 0xa9783f990c9ac4c7ull}},
    {"GAp+xor/LT", {0xf28817cf88e4ae98ull, 0xed6a54b2ea3bf76aull, 0x5bd37ac53e764a6full}},
    {"GAp+xor/A1", {0x545684488e27a252ull, 0xd8ae6f9d0306f70bull, 0xf95784ef3909345full}},
    {"GAp+xor/A2", {0x7973d24f9cb7b85dull, 0x8b33d610c1c198daull, 0x2ad80fdf6c11a4d7ull}},
    {"GAp+xor/A3", {0xb14a983c15f3ae6cull, 0x0aa9104f3fb116d2ull, 0x557c58c884172275ull}},
    {"GAp+xor/A4", {0xda67cd091ffafb17ull, 0x36f3f38b23b729e6ull, 0xc93e56a5bf3a6c42ull}},
    {"PAs/LT", {0xeddc88aaf939b116ull, 0xc4296b1b7a51f640ull, 0xcd40dc07d79494a1ull}},
    {"PAs/A1", {0x7b9f57aab80eb8e4ull, 0x3225bf2ad0530ed7ull, 0x7906267482658c07ull}},
    {"PAs/A2", {0x7b9557aab806645full, 0x94004174033d6e8aull, 0x31554c106312dc44ull}},
    {"PAs/A3", {0x7b987baab808d762ull, 0xaa025457921f2383ull, 0x3a9f0c50f1a28ac9ull}},
    {"PAs/A4", {0x7b8e5baab8004c7dull, 0x354ee8a48abeb02cull, 0xcf97724b3cb4caa5ull}},
    {"PAp/LT", {0x6b0daedd73bd079bull, 0x4536ec6c5ef8a605ull, 0x02cec09cdf17f5b3ull}},
    {"PAp/A1", {0x0a1c57dd3c5bbe7dull, 0xa915072906f15632ull, 0x607484282e1ed1f4ull}},
    {"PAp/A2", {0x0a18efdd3c58d7eeull, 0xd47076f22174ccb7ull, 0x45a2fceb0a8eb51cull}},
    {"PAp/A3", {0x0a15cbdd3c5664ebull, 0xe4bbbecee2506a24ull, 0xb411de872e0dadbbull}},
    {"PAp/A4", {0x0a2d53dd3c6a2ae4ull, 0x45dd981bbf943f0aull, 0x0630e6bc19d0c551ull}},
    {"SAg/LT", {0x11e5dec8da5f7597ull, 0x73761da620488838ull, 0x1cfdcdd081dcb330ull}},
    {"SAg/A1", {0xf6925fc8ca842bf9ull, 0x6edfad905badd5c0ull, 0x2d28630c800c8508ull}},
    {"SAg/A2", {0xf68f07c8ca81609aull, 0x02f80a00ed9b6bfbull, 0x1d4895b0f4a2d581ull}},
    {"SAg/A3", {0xf68b63c8ca7e1417ull, 0x1f3f846b848ce1eeull, 0x55e3cf876fc84c79ull}},
    {"SAg/A4", {0xf687fbc8ca7b2d88ull, 0x536ee7fa0b66ae00ull, 0x87ec5a1780f49a24ull}},
    {"SAs/LT", {0x143148757035cfebull, 0xd35068f4b953b020ull, 0x1152f8d860664f58ull}},
    {"SAs/A1", {0xb419b175398dbdcdull, 0x6e2b522108bc5040ull, 0xa086d5d6ba608cb9ull}},
    {"SAs/A2", {0xb4160975398a6a7eull, 0xf3cc19516fd73b76ull, 0x8a8698b20143a9bfull}},
    {"SAs/A3", {0xb412a57539878abbull, 0xf208bef52bffd128ull, 0x22b8282b128cc659ull}},
    {"SAs/A4", {0xb42aad75399c2a34ull, 0x4261354bfcf0dbb1ull, 0x02f018f81a2c1725ull}},
    {"SAp/LT", {0x1ae2158c613f9626ull, 0x2e0a7ee25e088fb1ull, 0x8aad925aabf2bd60ull}},
    {"SAp/A1", {0xa97ea48c20cdd4f4ull, 0x03ebc1be83a7d896ull, 0x266820891ed48477ull}},
    {"SAp/A2", {0xa974248c20c4a6efull, 0x09b2dc904c4f2656ull, 0xc1739f491d1f2102ull}},
    {"SAp/A3", {0xa977888c20c786b2ull, 0x8c2a3703d022a42bull, 0x1dc9ee3e423fd138ull}},
    {"SAp/A4", {0xa96da88c20bf688dull, 0x9fad0a4cd5aa13e4ull, 0xa3e397ef101555e7ull}},
    {"IHRT/C0", {0x2e60b1e9180f7764ull, 0x36a786da439c523full, 0xb62e3410e659d7f4ull}},
    {"IHRT/C3", {0x96e336ddc83d76abull, 0xab19079177e054f7ull, 0x64040f2ddd350817ull}},
    {"IHRT/C5", {0xd7393eabc328b5e5ull, 0xe8fafe03aeb1396dull, 0xaf9c817e7f3c1501ull}},
    {"IHRT/spec/C0", {0x2e60b1e9180f7764ull, 0x6863306333230d9aull, 0x137728291dc81bd1ull}},
    {"IHRT/spec/C3", {0x96e336ddc83d76abull, 0xe87f6e31423cd458ull, 0xec4161eed592ded4ull}},
    {"IHRT/spec/C5", {0xd7393eabc328b5e5ull, 0x20eb1c52dd95e105ull, 0x2e92c6dff04438eeull}},
    {"IHRT/cached/C0", {0x2e60b1e9180f7764ull, 0x36a786da439c523full, 0xc786253c01f9e4f5ull}},
    {"IHRT/cached/C3", {0x96e336ddc83d76abull, 0x4858b26edb064c63ull, 0x8ad1f9e6ad6c0731ull}},
    {"IHRT/cached/C5", {0xd7393eabc328b5e5ull, 0x293dbe34d99b485full, 0x6a828e1bc444f024ull}},
    {"IHRT/cached/spec/C0", {0x2e60b1e9180f7764ull, 0x6863306333230d9aull, 0x6eb98e296ba815dcull}},
    {"IHRT/cached/spec/C3", {0x96e336ddc83d76abull, 0x2643bfff85a98edeull, 0x7f6594592994e6f1ull}},
    {"IHRT/cached/spec/C5", {0xd7393eabc328b5e5ull, 0x3e4a4743036db53aull, 0x1b03479cd1db9364ull}},
    {"IHRT/history-zeros", {0x2e60b1e9180f7764ull, 0xf2b60199073a56beull, 0xb62e3410e659d7f4ull}},
    {"IHRT/automaton-init-0", {0x2e60b1e9180f7764ull, 0xf6d4005543e8950aull, 0xd7f6028ce0970cbcull}},
    {"AHRT/C0", {0xc540c905d9b4d93aull, 0x1789ef970805629aull, 0xef382de94339abd2ull}},
    {"AHRT/C3", {0x63fde52bebdca7b5ull, 0xf14f6a2ca6acd743ull, 0x707470d372fc6362ull}},
    {"AHRT/C5", {0xf86f1d5cb63819fbull, 0x7be5db0f24f7dc46ull, 0x9f670d9527fcf780ull}},
    {"AHRT/spec/C0", {0xc540c905d9b4d93aull, 0x8bec2b1eb63ac2ccull, 0xef77a0e05a592b82ull}},
    {"AHRT/spec/C3", {0x63fde52bebdca7b5ull, 0x6d0107127e47f1a5ull, 0x8882b1657b23ba0dull}},
    {"AHRT/spec/C5", {0xf86f1d5cb63819fbull, 0xcde2a59d10b596b7ull, 0xa6cc51045d193fe0ull}},
    {"AHRT/cached/C0", {0xc540c905d9b4d93aull, 0x843bc5526b383829ull, 0x2a5683b4347c4a95ull}},
    {"AHRT/cached/C3", {0x63fde52bebdca7b5ull, 0xf650038bb29623eeull, 0xae97410999f21f7cull}},
    {"AHRT/cached/C5", {0xf86f1d5cb63819fbull, 0x531e3820e55a7bc9ull, 0x3752e36aa749a9daull}},
    {"AHRT/cached/spec/C0", {0xc540c905d9b4d93aull, 0xe65a8efdbb692d9full, 0x49a06d4aa358c6f3ull}},
    {"AHRT/cached/spec/C3", {0x63fde52bebdca7b5ull, 0xcc11996ada33473dull, 0x2b449b57a2815fdcull}},
    {"AHRT/cached/spec/C5", {0xf86f1d5cb63819fbull, 0xeb9415fd675cb665ull, 0x011d8c77927be8adull}},
    {"AHRT/history-zeros", {0xc540c905d9b4d93aull, 0x247f7bf878c944f8ull, 0x1e0ba96b0e0d1d3full}},
    {"AHRT/automaton-init-0", {0xc540c905d9b4d93aull, 0x9464e78ae1105ca1ull, 0x12fcbbc88b8e209eull}},
    {"HHRT/C0", {0x65b5a5a6db00537dull, 0x3b23069197f7419full, 0x95f41f80a286f220ull}},
    {"HHRT/C3", {0x0efec62b5b2d5396ull, 0x45a9638a38a15a2bull, 0xcaae3fb66141472full}},
    {"HHRT/C5", {0xd98bde3c5618d298ull, 0x043a3cc708cf1cbcull, 0xbe7f3625c011f101ull}},
    {"HHRT/spec/C0", {0x65b5a5a6db00537dull, 0x786f7b4eab3e3eb2ull, 0xcc19bf9c1f59d6a3ull}},
    {"HHRT/spec/C3", {0x0efec62b5b2d5396ull, 0x52c10d3016974869ull, 0xff2a38bea391e492ull}},
    {"HHRT/spec/C5", {0xd98bde3c5618d298ull, 0xd2fd568b02d10474ull, 0x74a345d9985157fcull}},
    {"HHRT/cached/C0", {0x65b5a5a6db00537dull, 0x8e9a4a2f95f074a5ull, 0x4bd6f7f6bb5f03d5ull}},
    {"HHRT/cached/C3", {0x0efec62b5b2d5396ull, 0x6b59042bf03ad861ull, 0xe44526d26a8da72dull}},
    {"HHRT/cached/C5", {0xd98bde3c5618d298ull, 0xd2f7db3573474db3ull, 0xdbd6062f59b54622ull}},
    {"HHRT/cached/spec/C0", {0x65b5a5a6db00537dull, 0x1e2235dc0fe7efbaull, 0xc2acc72ae302e081ull}},
    {"HHRT/cached/spec/C3", {0x0efec62b5b2d5396ull, 0x576349823ad12ab0ull, 0x21907b845e20f97bull}},
    {"HHRT/cached/spec/C5", {0xd98bde3c5618d298ull, 0x289597b83308d773ull, 0xfcad64158d89ddfbull}},
    {"HHRT/history-zeros", {0x65b5a5a6db00537dull, 0xf93ad7e3e19f2b1eull, 0x04a5d361bb91ea68ull}},
    {"HHRT/automaton-init-0", {0x65b5a5a6db00537dull, 0xd5f34980b8aea8afull, 0xfbe7276f7748f5a0ull}},
    {"HHRT/mixed-hash", {0x65b5a5a6db00537dull, 0xada19b0002e7c650ull, 0x04e44c108d59e929ull}},
};
// clang-format on

TEST(EngineIdentity, DigestsMatchGoldens)
{
    const TraceBuffer trace = makeTrace();
    std::vector<std::pair<std::string, Digests>> actual;
    for (const Case &input : allCases()) {
        const auto predictor = input.make();
        actual.emplace_back(input.label, digest(*predictor, trace));
    }
    const auto find = [&actual](const std::string &label) {
        for (const auto &[name, digests] : actual) {
            if (name == label)
                return digests;
        }
        ADD_FAILURE() << "no case " << label;
        return Digests{};
    };

    std::size_t checked = 0;
    for (const Golden &golden : kGoldens) {
        const Digests got = find(golden.label);
        EXPECT_EQ(got.name, golden.digests.name) << golden.label;
        EXPECT_EQ(got.metrics, golden.digests.metrics) << golden.label;
        EXPECT_EQ(got.checkpoint, golden.digests.checkpoint)
            << golden.label;
        ++checked;
    }
    for (const SameAs &same : kSameAs) {
        EXPECT_EQ(find(same.label), find(same.reference)) << same.label;
        ++checked;
    }
    EXPECT_EQ(checked, actual.size());
    if (::testing::Test::HasFailure()) {
        for (const auto &[label, digests] : actual) {
            std::printf("    {\"%s\", {0x%016llxull, 0x%016llxull, "
                        "0x%016llxull}},\n",
                        label.c_str(),
                        static_cast<unsigned long long>(digests.name),
                        static_cast<unsigned long long>(digests.metrics),
                        static_cast<unsigned long long>(
                            digests.checkpoint));
        }
    }
}

} // namespace
} // namespace tlat
