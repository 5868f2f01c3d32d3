/**
 * @file
 * Generalized two-level adaptive prediction — the design space the
 * paper's scheme sits in.
 *
 * The MICRO-24 predictor keeps *per-address* history registers and a
 * *global* pattern table; in the taxonomy of the authors' follow-up
 * work ("Alternative Implementations of Two-Level Adaptive Branch
 * Prediction", ISCA 1992) that is "PAg". This class implements the
 * full first-level x second-level scope matrix:
 *
 *   history scope:  Global (one register)   -> GA.
 *                   PerAddress (paper)      -> PA.
 *                   PerSet (address-hashed) -> SA.
 *   pattern scope:  global (paper)          -> ..g
 *                   per-set                 -> ..s
 *                   per-address             -> ..p
 *
 * plus an optional XOR of branch-address bits into the pattern-table
 * index for global-history configurations (the later "gshare"
 * refinement), exposed because it is the one-line change the
 * two-level structure made famous.
 *
 * All variants use ideal (unbounded) per-address structures; the
 * implementation-cost questions (AHRT/HHRT) are studied on the
 * flagship PAg scheme in TwoLevelPredictor. PAg here and
 * TwoLevelPredictor with an IHRT make identical predictions — a
 * property the tests pin down.
 */

#ifndef TLAT_CORE_GENERALIZED_TWO_LEVEL_HH
#define TLAT_CORE_GENERALIZED_TWO_LEVEL_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "branch_predictor.hh"
#include "lane_prober.hh"
#include "pattern_table.hh"

namespace tlat::core
{

/** First-level (history register) scope. */
enum class HistoryScope : std::uint8_t
{
    Global,     ///< one register shared by all branches (G..)
    PerAddress, ///< one register per static branch (P.., the paper)
    PerSet      ///< one register per address set (S..)
};

/** Second-level (pattern table) scope. */
enum class PatternScope : std::uint8_t
{
    Global,     ///< one table (..g, the paper)
    PerSet,     ///< one table per address set (..s)
    PerAddress  ///< one table per static branch (..p)
};

/** Configuration of a generalized two-level predictor. */
struct GeneralizedConfig
{
    HistoryScope historyScope = HistoryScope::PerAddress;
    PatternScope patternScope = PatternScope::Global;
    unsigned historyBits = 12;
    AutomatonKind automaton = AutomatonKind::A2;
    /** Address bits selecting the set for PerSet scopes. */
    unsigned setBits = 4;
    /** XOR address bits into the pattern index (gshare flavour). */
    bool xorAddress = false;
    /** Low branch-address bits dropped before any indexing. */
    unsigned addrShift = 2;
};

/** The GAg/GAs/.../PAp family. */
class GeneralizedTwoLevelPredictor : public BranchPredictor
{
  public:
    explicit GeneralizedTwoLevelPredictor(
        const GeneralizedConfig &config);

    /**
     * Taxonomy name, e.g. "PAg(12,A2)" or "SAg(12,A2)+xor"; gshare
     * (GAg with the xor index) is its scheme name, "GSH(12,A2)".
     */
    std::string name() const override;

    bool predict(const trace::BranchRecord &record) override;
    void update(const trace::BranchRecord &record) override;
    void reset() override;

    /**
     * Fused fast path: each *unique* branch's (history register,
     * pattern table, xor term) scope is resolved once per batch into
     * a dense id-indexed cache, instead of once in predict() and
     * again in update() per dynamic branch (the per-address scopes
     * pay an unordered_map probe each time), with the automaton
     * dispatched per batch so lambda/delta inline and outcomes
     * streamed from the packed bitvector. Bit-identical to the
     * reference loop, which it runs instead for an automaton with no
     * fused policy.
     */
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

    const GeneralizedConfig &config() const { return config_; }

    /**
     * Checkpointing in the core/checkpoint.hh framing: the history
     * registers and pattern tables of whatever scopes the config
     * uses, with the demand-grown per-address maps serialized as
     * pc-sorted ordered projections (determinism contract). Loads
     * are atomic: parsed into temporaries, committed only after the
     * whole stream — end sentinel included — validated.
     */
    bool saveCheckpoint(std::ostream &os) const override;
    bool loadCheckpoint(std::istream &is) override;

    /** Number of distinct pattern tables instantiated so far. */
    std::size_t patternTableCount() const;

    /** Number of distinct history registers instantiated so far. */
    std::size_t historyRegisterCount() const;

  private:
    std::uint32_t &historyFor(std::uint64_t pc);
    PatternTable &tableFor(std::uint64_t pc);
    /** Address bits XORed into the pattern index (0 without xor). */
    std::uint32_t xorTermFor(std::uint64_t pc) const;
    /** The (history register, pattern table, xor term) of @p pc. */
    BranchScope scopeFor(std::uint64_t pc);

    /** scopeFor() in the lookupDirect(pc) shape the prober resolves. */
    struct ScopeTable
    {
        GeneralizedTwoLevelPredictor *self;

        BranchScope
        lookupDirect(std::uint64_t pc) const
        {
            return self->scopeFor(pc);
        }
    };

    /**
     * The one fused loop body, monomorphized over the lane source
     * (core/lane_prober.hh, probing a ScopeTable) and the automaton
     * policy.
     */
    template <typename Source, AutomatonPolicy Ops>
    void fusedBatch(Source &source, const Ops &ops,
                    AccuracyCounter &accuracy);

    GeneralizedConfig config_;
    std::uint32_t history_mask_;
    std::uint32_t set_mask_;

    // First level.
    std::uint32_t global_history_;
    std::vector<std::uint32_t> set_histories_;
    std::unordered_map<std::uint64_t, std::uint32_t>
        address_histories_;

    // Second level. Tables are created on demand for the per-address
    // scope; the global/per-set tables are eager.
    std::vector<PatternTable> fixed_tables_;
    std::unordered_map<std::uint64_t, PatternTable> address_tables_;
};

} // namespace tlat::core

#endif // TLAT_CORE_GENERALIZED_TWO_LEVEL_HH
