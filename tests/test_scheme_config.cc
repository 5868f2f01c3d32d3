/**
 * @file
 * Unit tests for the Table 2 scheme-name grammar.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme_config.hh"
#include "predictors/scheme_factory.hh"
#include "util/bitops.hh"
#include "util/random.hh"

namespace tlat::core
{
namespace
{

SchemeConfig
mustParse(const std::string &name)
{
    const auto config = SchemeConfig::parse(name);
    EXPECT_TRUE(config.has_value()) << name;
    return config.value_or(SchemeConfig{});
}

TEST(SchemeConfig, ParsesFlagshipAtConfiguration)
{
    const SchemeConfig config =
        mustParse("AT(AHRT(512,12SR),PT(2^12,A2),)");
    EXPECT_EQ(config.scheme, Scheme::TwoLevelAdaptive);
    EXPECT_EQ(config.hrtKind, TableKind::Associative);
    EXPECT_EQ(config.hrtEntries, 512u);
    EXPECT_EQ(config.historyBits, 12u);
    EXPECT_EQ(config.automaton, AutomatonKind::A2);
    EXPECT_EQ(config.data, DataMode::None);
}

TEST(SchemeConfig, ParsesIdealHrt)
{
    const SchemeConfig config =
        mustParse("AT(IHRT(,12SR),PT(2^12,A2),)");
    EXPECT_EQ(config.hrtKind, TableKind::Ideal);
    EXPECT_EQ(config.hrtEntries, 0u);
}

TEST(SchemeConfig, ParsesEveryTable2AtRow)
{
    // The eleven AT rows of Table 2.
    const char *rows[] = {
        "AT(AHRT(256,12SR),PT(2^12,A2),)",
        "AT(AHRT(512,12SR),PT(2^12,A2),)",
        "AT(AHRT(512,12SR),PT(2^12,A3),)",
        "AT(AHRT(512,12SR),PT(2^12,A4),)",
        "AT(AHRT(512,12SR),PT(2^12,LT),)",
        "AT(AHRT(512,10SR),PT(2^10,A2),)",
        "AT(AHRT(512,8SR),PT(2^8,A2),)",
        "AT(AHRT(512,6SR),PT(2^6,A2),)",
        "AT(HHRT(256,12SR),PT(2^12,A2),)",
        "AT(HHRT(512,12SR),PT(2^12,A2),)",
        "AT(IHRT(,12SR),PT(2^12,A2),)",
    };
    for (const char *row : rows) {
        const SchemeConfig config = mustParse(row);
        EXPECT_EQ(config.scheme, Scheme::TwoLevelAdaptive);
        // Round trip through text().
        EXPECT_EQ(config.text(), row);
    }
}

TEST(SchemeConfig, ParsesStaticTrainingRows)
{
    const SchemeConfig same =
        mustParse("ST(AHRT(512,12SR),PT(2^12,PB),Same)");
    EXPECT_EQ(same.scheme, Scheme::StaticTraining);
    EXPECT_EQ(same.data, DataMode::Same);
    const SchemeConfig diff =
        mustParse("ST(IHRT(,12SR),PT(2^12,PB),Diff)");
    EXPECT_EQ(diff.data, DataMode::Diff);
    EXPECT_EQ(diff.hrtKind, TableKind::Ideal);
    EXPECT_EQ(same.text(), "ST(AHRT(512,12SR),PT(2^12,PB),Same)");
}

TEST(SchemeConfig, ParsesLeeSmithRows)
{
    const char *rows[] = {
        "LS(AHRT(512,A2),,)", "LS(AHRT(512,LT),,)",
        "LS(HHRT(512,A2),,)", "LS(HHRT(512,LT),,)",
        "LS(IHRT(,A2),,)",    "LS(IHRT(,LT),,)",
    };
    for (const char *row : rows) {
        const SchemeConfig config = mustParse(row);
        EXPECT_EQ(config.scheme, Scheme::LeeSmithBtb);
        EXPECT_EQ(config.text(), row);
    }
    EXPECT_EQ(mustParse("LS(AHRT(512,A2),,)").automaton,
              AutomatonKind::A2);
    EXPECT_EQ(mustParse("LS(AHRT(512,LT),,)").automaton,
              AutomatonKind::LastTime);
}

TEST(SchemeConfig, ParsesStaticSchemes)
{
    EXPECT_EQ(mustParse("AlwaysTaken").scheme, Scheme::AlwaysTaken);
    EXPECT_EQ(mustParse("AlwaysNotTaken").scheme,
              Scheme::AlwaysNotTaken);
    EXPECT_EQ(mustParse("BTFN").scheme, Scheme::Btfn);
    EXPECT_EQ(mustParse("Profile").scheme, Scheme::Profile);
    EXPECT_EQ(mustParse("Profile").data, DataMode::Same);
}

TEST(SchemeConfig, ParsesGshareRows)
{
    const SchemeConfig config = mustParse("GSH(12,A2)");
    EXPECT_EQ(config.scheme, Scheme::Gshare);
    EXPECT_EQ(config.historyBits, 12u);
    EXPECT_EQ(config.automaton, AutomatonKind::A2);
    EXPECT_EQ(config.text(), "GSH(12,A2)");
    EXPECT_EQ(mustParse("GSH(8,LT)").automaton,
              AutomatonKind::LastTime);
    EXPECT_EQ(mustParse("GSH(2^4,A2)").historyBits, 16u);
}

TEST(SchemeConfig, ParsesCombiningRows)
{
    const SchemeConfig config = mustParse(
        "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),LS(AHRT(512,A2),,),"
        "CT(2^12))");
    EXPECT_EQ(config.scheme, Scheme::Combining);
    EXPECT_EQ(config.chooserBits, 12u);
    ASSERT_EQ(config.components.size(), 2u);
    EXPECT_EQ(config.components[0].scheme, Scheme::TwoLevelAdaptive);
    EXPECT_EQ(config.components[1].scheme, Scheme::LeeSmithBtb);
    // Round trip: text() renders exactly the canonical spelling.
    EXPECT_EQ(config.text(),
              "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),"
              "LS(AHRT(512,A2),,),CT(2^12))");

    // Components recurse through the full grammar: gshare and the
    // static schemes are valid component spellings.
    const SchemeConfig nested =
        mustParse("CMB(GSH(10,A2),BTFN,CT(2^8))");
    EXPECT_EQ(nested.components[0].scheme, Scheme::Gshare);
    EXPECT_EQ(nested.components[1].scheme, Scheme::Btfn);
    EXPECT_EQ(nested.chooserBits, 8u);
    EXPECT_EQ(nested.text(), "CMB(GSH(10,A2),BTFN,CT(2^8))");
}

TEST(SchemeConfig, RejectsMalformedGshareAndCombining)
{
    const char *bad[] = {
        "gshare",                         // bare word is not a scheme
        "GSH",                            // no clauses
        "GSH(12)",                        // missing automaton
        "GSH(12,A2,A2)",                  // too many clauses
        "GSH(0,A2)",                      // history bits out of range
        "GSH(25,A2)",                     // history bits out of range
        "GSH(12,PB)",                     // PB is ST-only
        "CMB(BTFN,CT(2^12))",             // missing a component
        "CMB(BTFN,AlwaysTaken,CT(12))",   // chooser not a power of two
        "CMB(BTFN,AlwaysTaken,CT(2^0))",  // chooser too small
        "CMB(BTFN,AlwaysTaken,CT(2^25))", // chooser too large
        "CMB(BTFN,AlwaysTaken,PT(2^12))", // wrong chooser keyword
        "CMB(BTFN,AlwaysTaken,CT(2^12),)",// trailing clause
        "CMB(BTFN,NotAScheme,CT(2^12))",  // bad component
    };
    for (const char *name : bad) {
        EXPECT_FALSE(SchemeConfig::parse(name).has_value()) << name;
    }
}

TEST(SchemeConfig, AcceptsWhitespace)
{
    EXPECT_TRUE(SchemeConfig::parse(
                    "  AT(AHRT(512,12SR),PT(2^12,A2),)  ")
                    .has_value());
}

TEST(SchemeConfig, RejectsMalformedNames)
{
    const char *bad[] = {
        "",
        "XX(AHRT(512,12SR),PT(2^12,A2),)",
        "AT(AHRT(512,12SR),PT(2^12,A2))",       // missing clause
        "AT(AHRT(512,12SR),PT(2^12,A2),Same)",  // AT takes no data
        "AT(AHRT(0,12SR),PT(2^12,A2),)",        // zero entries
        "AT(AHRT(512,12),PT(2^12,A2),)",        // not a SR spec
        "AT(AHRT(512,12SR),PT(2^10,A2),)",      // PT size mismatch
        "AT(AHRT(512,12SR),PT(2^12,A9),)",      // unknown automaton
        "AT(QHRT(512,12SR),PT(2^12,A2),)",      // unknown table
        "AT(IHRT(512,12SR),PT(2^12,A2),)",      // IHRT with a size
        "ST(AHRT(512,12SR),PT(2^12,PB),)",      // ST needs Same/Diff
        "ST(AHRT(512,12SR),PT(2^12,A2),Same)",  // ST needs PB
        "LS(AHRT(512,A2),PT(2^12,A2),)",        // LS has no PT
        "LS(AHRT(512,12SR),,)",                 // LS entry is automaton
        "AT(AHRT(3,12SR),PT(2^12,A2),)",        // 3 % 4 ways != 0
        "AT(AHRT(2,12SR),PT(2^12,A2),)",        // fewer than 4 ways
        "AT(AHRT(24,12SR),PT(2^12,A2),)",       // 6 sets
        "AT(HHRT(3,12SR),PT(2^12,A2),)",        // HHRT not 2^n
        "LS(AHRT(3,A2),,)",
        "ST(AHRT(6,12SR),PT(2^12,PB),Same)",
        "AT(AHRT(4096000000,12SR),PT(2^12,A2),)",
        "AT(AHRT(2^25,12SR),PT(2^12,A2),)",     // over 2^24 entries
        "LS(HHRT(2^40,A2),,)",
        "AlwaysSometimes",
    };
    for (const char *name : bad) {
        EXPECT_FALSE(SchemeConfig::parse(name).has_value()) << name;
    }
}

TEST(SchemeConfig, HistoryBitsBoundaries)
{
    EXPECT_TRUE(SchemeConfig::parse("AT(AHRT(512,1SR),PT(2^1,A2),)")
                    .has_value());
    EXPECT_FALSE(SchemeConfig::parse("AT(AHRT(512,0SR),PT(2^0,A2),)")
                     .has_value());
    EXPECT_FALSE(
        SchemeConfig::parse("AT(AHRT(512,25SR),PT(2^25,A2),)")
            .has_value());
}

TEST(SchemeConfig, TableSizeBoundaries)
{
    EXPECT_TRUE(SchemeConfig::parse("AT(AHRT(4,12SR),PT(2^12,A2),)")
                    .has_value());
    EXPECT_TRUE(SchemeConfig::parse("LS(HHRT(1,A2),,)").has_value());
    EXPECT_TRUE(SchemeConfig::parse("AT(AHRT(2^24,12SR),PT(2^12,A2),)")
                    .has_value());
    EXPECT_TRUE(SchemeConfig::parse("AT(HHRT(2^24,12SR),PT(2^12,A2),)")
                    .has_value());
    EXPECT_FALSE(SchemeConfig::parse("AT(HHRT(2^25,12SR),PT(2^12,A2),)")
                     .has_value());
}

/** Every table clause the property test spells, valid or not. */
std::vector<std::string>
tableClauses(const std::string &content)
{
    std::vector<std::string> clauses = {"IHRT(," + content + ")"};
    for (const char *kind : {"AHRT", "HHRT"}) {
        for (const char *size :
             {"0", "1", "2", "3", "4", "6", "8", "12", "16", "24", "64",
              "96", "2^8", "384", "512", "1000", "1024", "2^12",
              "4096000000"}) {
            clauses.push_back(std::string(kind) + "(" + size + "," +
                              content + ")");
        }
    }
    return clauses;
}

/**
 * The geometry rule, restated independently of the parser: an AHRT
 * needs a power-of-two number of 4-way sets, an HHRT a power-of-two
 * entry count.
 */
bool
geometryHolds(const SchemeConfig &config)
{
    const std::size_t entries = config.hrtEntries;
    switch (config.hrtKind) {
      case TableKind::Ideal:
        return true;
      case TableKind::Hashed:
        return isPowerOfTwo(entries);
      case TableKind::Associative:
        return entries % 4 == 0 && isPowerOfTwo(entries / 4);
    }
    return false;
}

/** Checks one spelling; returns whether the parser accepted it. */
bool
checkSpelling(const std::string &name)
{
    const auto config = SchemeConfig::parse(name);
    if (!config)
        return false;
    EXPECT_TRUE(geometryHolds(*config)) << name;
    EXPECT_EQ(SchemeConfig::parse(config->text()), config) << name;

    // Must construct without tripping a constructor assertion.
    const auto predictor = predictors::makePredictor(*config);
    EXPECT_NE(predictor, nullptr) << name;
    // Every predictor's name() is a scheme name that parses back.
    if (predictor) {
        EXPECT_EQ(SchemeConfig::parse(predictor->name()), config)
            << name << " -> " << predictor->name();
    }
    return true;
}

TEST(SchemeConfigProperty, EveryAcceptedSpellingConstructsAndRoundTrips)
{
    std::vector<std::string> names = {"AlwaysTaken", "AlwaysNotTaken",
                                      "BTFN", "Profile"};
    for (const unsigned bits : {1u, 6u, 12u}) {
        const std::string sr = std::to_string(bits) + "SR";
        const std::string pt = "PT(2^" + std::to_string(bits);
        for (const std::string &table : tableClauses(sr)) {
            for (const char *automaton : {"LT", "A2", "A4"})
                names.push_back("AT(" + table + "," + pt + "," +
                                automaton + "),)");
            names.push_back("ST(" + table + "," + pt + ",PB),Same)");
            names.push_back("ST(" + table + "," + pt + ",PB),Diff)");
        }
        names.push_back("GSH(" + std::to_string(bits) + ",A3)");
    }
    for (const char *automaton : {"LT", "A1", "A2", "A3", "A4"}) {
        for (const std::string &table : tableClauses(automaton))
            names.push_back("LS(" + table + ",,)");
    }
    // Combining: any two accepted components, one rejected one.
    names.push_back("CMB(AT(AHRT(64,6SR),PT(2^6,A2),),"
                    "LS(HHRT(256,A2),,),CT(2^8))");
    names.push_back("CMB(GSH(8,A2),CMB(BTFN,LS(AHRT(16,LT),,),CT(2^2)),"
                    "CT(2^4))");
    names.push_back("CMB(AT(AHRT(12,6SR),PT(2^6,A2),),BTFN,CT(2^8))");

    std::size_t accepted = 0;
    for (const std::string &name : names) {
        if (checkSpelling(name))
            ++accepted;
    }
    // 4 static + per bits (3 AT + 2 ST) x (1 IHRT + 8 AHRT + 10 HHRT)
    // + 3 GSH + 5 LS automata x 19 tables + 2 CMB.
    EXPECT_EQ(accepted, 4u + 3 * 5 * 19 + 3 + 5 * 19 + 2);
}

TEST(SchemeConfig, TextForStaticSchemes)
{
    SchemeConfig config;
    config.scheme = Scheme::Btfn;
    EXPECT_EQ(config.text(), "BTFN");
    config.scheme = Scheme::AlwaysTaken;
    EXPECT_EQ(config.text(), "AlwaysTaken");
}

// Grammar-aware mutation fuzz: mutants of accepted spellings either
// parse, build and round-trip, or are rejected. Fixed seed and budget.

/** "Head(a,b)" -> Head ( a , b ): words and the three delimiters. */
std::vector<std::string>
tokenize(const std::string &name)
{
    std::vector<std::string> tokens;
    std::string word;
    for (const char c : name) {
        if (c != '(' && c != ')' && c != ',') {
            word += c;
            continue;
        }
        if (!word.empty())
            tokens.push_back(word);
        word.clear();
        tokens.push_back(std::string(1, c));
    }
    if (!word.empty())
        tokens.push_back(word);
    return tokens;
}

template <std::size_t N>
const char *
pick(Rng &rng, const char *const (&items)[N])
{
    return items[rng.nextBelow(N)];
}

constexpr const char *kHeads[] = {"AT",   "ST",   "LS",   "GSH", "CMB",
                                  "IHRT", "AHRT", "HHRT", "PT",  "CT"};
constexpr const char *kContents[] = {
    "LT",   "A1",   "A2",   "A3",   "A4",   "PB",   "0SR", "1SR",
    "6SR",  "12SR", "16SR", "24SR", "25SR", "Same", "Diff"};
constexpr const char *kSizes[] = {
    "0",   "1",    "3",    "6",    "12",   "64",       "100",
    "512", "2^6",  "2^8",  "2^12", "2^16", "16777216", "16777217",
    "2^24", "2^25", "4096000000"};
constexpr const char *kDelimiters[] = {"(", ")", ","};

bool
isDelimiter(const std::string &token)
{
    return token == "(" || token == ")" || token == ",";
}

/** One grammar-level edit of @p tokens; never a no-op pick. */
void
mutate(Rng &rng, std::vector<std::string> &tokens)
{
    std::vector<std::size_t> heads;
    std::vector<std::size_t> words;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (isDelimiter(tokens[i]))
            continue;
        const bool head = i + 1 < tokens.size() && tokens[i + 1] == "(";
        (head ? heads : words).push_back(i);
    }
    const auto any = [&rng](const std::vector<std::size_t> &from) {
        return from[rng.nextBelow(from.size())];
    };
    const auto at = static_cast<std::ptrdiff_t>(
        rng.nextBelow(tokens.size() + 1));
    // Swaps keep the shape, so cases 0 and 1 get half the draws.
    const std::uint64_t draw = rng.nextBelow(8);
    switch (draw < 4 ? draw % 2 : draw - 2) {
      case 0: // swap a head (scheme, table, PT or CT)
        if (!heads.empty()) {
            tokens[any(heads)] = pick(rng, kHeads);
            break;
        }
        [[fallthrough]];
      case 1: // swap an entry content or a size for one of its kind
        if (!words.empty()) {
            std::string &word = tokens[any(words)];
            const bool size = word[0] >= '0' && word[0] <= '9' &&
                              word.find("SR") == std::string::npos;
            word = size ? pick(rng, kSizes) : pick(rng, kContents);
            break;
        }
        [[fallthrough]];
      case 2: // fill an empty slot or add a stray word
        tokens.insert(tokens.begin() + at, rng.nextBool()
                                               ? pick(rng, kContents)
                                               : pick(rng, kSizes));
        break;
      case 3: // drop a token, delimiters included, but not the last
        if (tokens.size() > 1) {
            tokens.erase(tokens.begin() +
                         static_cast<std::ptrdiff_t>(
                             rng.nextBelow(tokens.size())));
            break;
        }
        [[fallthrough]];
      default: // add a comma or parenthesis
        tokens.insert(tokens.begin() + at, pick(rng, kDelimiters));
        break;
    }
}

/** Whether building @p config stays within a few MiB (2^16 bound). */
bool
smallEnough(const SchemeConfig &config)
{
    if (config.scheme == Scheme::Combining) {
        return config.chooserBits <= 16 &&
               smallEnough(config.components[0]) &&
               smallEnough(config.components[1]);
    }
    return config.hrtEntries <= (1u << 16) && config.historyBits <= 16;
}

/** Static Training nodes of @p config, components included. */
std::size_t
staticTrainingNodes(const SchemeConfig &config)
{
    std::size_t count = config.scheme == Scheme::StaticTraining;
    for (const SchemeConfig &component : config.components)
        count += staticTrainingNodes(component);
    return count;
}

TEST(SchemeConfigFuzz, PresetBitsParseOnlyInsideStaticTraining)
{
    for (const char *automaton : {"LT", "A1", "A2", "A3", "A4"}) {
        const std::string a = automaton;
        EXPECT_FALSE(SchemeConfig::parse("ST(AHRT(64,6SR),PT(2^6," + a +
                                         "),Same)"))
            << a;
        EXPECT_FALSE(SchemeConfig::parse("ST(IHRT(,6SR),PT(2^6," + a +
                                         "),Diff)"))
            << a;
    }
    for (const char *name :
         {"AT(AHRT(64,6SR),PT(2^6,PB),)", "AT(IHRT(,6SR),PT(2^6,PB),)",
          "LS(AHRT(64,PB),,)", "GSH(6,PB)", "ST(AHRT(64,PB),,Same)",
          "CMB(GSH(6,PB),BTFN,CT(2^6))"})
        EXPECT_FALSE(SchemeConfig::parse(name)) << name;
}

TEST(SchemeConfigFuzz, GrammarMutantsBuildAndRoundTripOrAreRejected)
{
    constexpr std::uint64_t kSeed = 0x5c4e3e;
    constexpr int kMutants = 10000;
    const std::vector<std::string> seeds = {
        "AT(AHRT(512,12SR),PT(2^12,A2),)",
        "AT(IHRT(,6SR),PT(2^6,LT),)",
        "AT(HHRT(256,8SR),PT(2^8,A4),)",
        "ST(AHRT(512,12SR),PT(2^12,PB),Same)",
        "ST(IHRT(,6SR),PT(2^6,PB),Diff)",
        "ST(HHRT(64,6SR),PT(2^6,PB),Same)",
        "LS(AHRT(512,A2),,)",
        "LS(IHRT(,LT),,)",
        "LS(HHRT(64,A3),,)",
        "GSH(12,A2)",
        "GSH(6,A1)",
        "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^8))",
        "CMB(GSH(6,A2),ST(IHRT(,6SR),PT(2^6,PB),Same),CT(2^6))",
        "AlwaysTaken",
        "AlwaysNotTaken",
        "BTFN",
        "Profile",
    };
    Rng rng(kSeed);
    int accepted = 0;
    int built = 0;
    for (int i = 0; i < kMutants; ++i) {
        std::string name = seeds[rng.nextBelow(seeds.size())];
        if (rng.nextBelow(6) == 0) {
            name = "CMB(" + name + "," + seeds[rng.nextBelow(seeds.size())] +
                   ",CT(" + pick(rng, kSizes) + "))";
        }
        std::vector<std::string> tokens = tokenize(name);
        for (std::uint64_t edits = 1 + rng.nextBelow(3); edits > 0;
             --edits)
            mutate(rng, tokens);
        name.clear();
        for (const std::string &token : tokens)
            name += token;

        const auto config = SchemeConfig::parse(name);
        if (!config)
            continue;
        ++accepted;
        EXPECT_EQ(SchemeConfig::parse(config->text()), config) << name;
        // PB is the pattern content of ST and of nothing else.
        std::size_t preset_bits = 0;
        for (const std::string &token : tokens)
            preset_bits += token == "PB";
        EXPECT_EQ(preset_bits, staticTrainingNodes(*config)) << name;
        if (!smallEnough(*config))
            continue;
        const auto predictor = predictors::makePredictor(*config);
        ASSERT_NE(predictor, nullptr) << name;
        EXPECT_EQ(SchemeConfig::parse(predictor->name()), config)
            << name << " -> " << predictor->name();
        ++built;
    }
    // Both outcomes must be well represented for the fuzz to mean
    // anything (this seed accepts about one mutant in thirty).
    EXPECT_GT(accepted, kMutants / 50);
    EXPECT_LT(accepted, kMutants / 2);
    EXPECT_GT(built, kMutants / 100);
}

} // namespace
} // namespace tlat::core
