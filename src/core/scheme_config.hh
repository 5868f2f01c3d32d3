/**
 * @file
 * The scheme naming convention of paper Table 2:
 *
 *   Scheme(History(Size,Entry_Content), Pattern(Size,Entry_Content), Data)
 *
 * Examples (all from Table 2):
 *   AT(AHRT(512,12SR),PT(2^12,A2),)
 *   AT(IHRT(,12SR),PT(2^12,A2),)
 *   ST(HHRT(512,12SR),PT(2^12,PB),Diff)
 *   LS(AHRT(512,A2),,)
 *
 * plus the static schemes, which the paper names in prose:
 *   AlwaysTaken, AlwaysNotTaken, BTFN, Profile
 *
 * and two post-paper extensions in the same spirit:
 *   GSH(12,A2)            gshare: one global 12-bit history XORed
 *                         with the branch address into one PT
 *   CMB(A,B,CT(2^12))     tournament of any two schemes A and B,
 *                         arbitrated by 2^12 2-bit chooser counters
 *
 * CMB components are themselves full scheme names, e.g.
 *   CMB(AT(AHRT(512,12SR),PT(2^12,A2),),LS(AHRT(512,A2),,),CT(2^12))
 *
 * SchemeConfig is the parsed form; makePredictor() (in
 * predictors/scheme_factory.hh) turns one into a live predictor.
 */

#ifndef TLAT_CORE_SCHEME_CONFIG_HH
#define TLAT_CORE_SCHEME_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "automaton.hh"
#include "history_table.hh"

namespace tlat::core
{

/** Prediction scheme families. */
enum class Scheme : std::uint8_t
{
    TwoLevelAdaptive, ///< AT — the paper's contribution
    StaticTraining,   ///< ST — Lee & Smith, preset pattern bits
    LeeSmithBtb,      ///< LS — per-address automaton, no pattern level
    AlwaysTaken,
    AlwaysNotTaken,
    Btfn,             ///< backward taken / forward not taken
    Profile,          ///< per-branch majority from a profiling run
    Gshare,           ///< GSH — global history XOR address, one PT
    Combining         ///< CMB — tournament of two components
};

/** How training data relates to testing data (ST only). */
enum class DataMode : std::uint8_t
{
    None, ///< scheme needs no training data
    Same, ///< trained and tested on the same data set
    Diff  ///< trained on the training set, tested on the testing set
};

/** A parsed Table 2 scheme name. */
struct SchemeConfig
{
    Scheme scheme = Scheme::TwoLevelAdaptive;

    // History table part (AT, ST, LS).
    TableKind hrtKind = TableKind::Associative;
    std::size_t hrtEntries = 512; ///< ignored for IHRT
    unsigned associativity = 4;

    /** History register length (AT, ST). */
    unsigned historyBits = 12;

    /** PT automaton (AT) or HRT entry automaton (LS). */
    AutomatonKind automaton = AutomatonKind::A2;

    /** Training/testing data relationship (ST; Profile implies Same). */
    DataMode data = DataMode::None;

    /**
     * Component schemes (CMB only, exactly two, recursive — a
     * component may itself be a CMB). Empty for every other scheme.
     */
    std::vector<SchemeConfig> components;

    /** log2 of the chooser table size (CMB only). */
    unsigned chooserBits = 12;

    /** Canonical Table 2 rendering. */
    std::string text() const;

    /**
     * Parses a scheme name; nullopt on malformed input. Every config
     * it returns constructs: an AHRT's entries split into a
     * power-of-two number of `associativity`-way sets, an HHRT's
     * entry count is a power of two, and either holds at most 2^24
     * entries.
     */
    static std::optional<SchemeConfig> parse(const std::string &name);

    bool operator==(const SchemeConfig &other) const = default;
};

} // namespace tlat::core

#endif // TLAT_CORE_SCHEME_CONFIG_HH
