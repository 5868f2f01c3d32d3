/**
 * @file
 * Lee & Smith's Branch Target Buffer designs [Lee & Smith 1984],
 * written "LS(HRT(size,Atm),,)" in the paper's Table 2.
 *
 * Each table entry holds one automaton (typically the A2 saturating
 * counter, or Last-Time) driven directly by the branch's own outcomes
 * — there is no pattern level, which is exactly what Two-Level
 * Adaptive Training adds. The same three storage flavours as the AT
 * history register table are evaluated: ideal, set-associative and
 * hashed.
 */

#ifndef TLAT_PREDICTORS_LEE_SMITH_BTB_HH
#define TLAT_PREDICTORS_LEE_SMITH_BTB_HH

#include <memory>

#include "core/automaton.hh"
#include "core/branch_predictor.hh"
#include "core/history_table.hh"

namespace tlat::predictors
{

/** Configuration of a Lee-Smith BTB design. */
struct LeeSmithConfig
{
    core::TableKind tableKind = core::TableKind::Associative;
    std::size_t entries = 512;
    unsigned associativity = 4;
    core::AutomatonKind automaton = core::AutomatonKind::A2;
    unsigned addrShift = 2;
};

/** Per-address automaton predictor (no pattern history level). */
class LeeSmithPredictor : public core::BranchPredictor
{
  public:
    explicit LeeSmithPredictor(const LeeSmithConfig &config);

    std::string name() const override;
    bool predict(const trace::BranchRecord &record) override;
    void update(const trace::BranchRecord &record) override;
    void reset() override;

    /**
     * Fused fast path: one table probe per branch, with the table
     * flavour and the automaton dispatched per batch so the probe and
     * lambda/delta inline. Probes go through the per-geometry index
     * lanes (direct pointer lane for the ideal table, precomputed
     * set/tag or hashed slot otherwise) and outcomes stream from the
     * packed bitvector. Bit-identical to the predict()/update() loop;
     * runs that loop instead on mid-pair memo state or an automaton
     * with no fused policy.
     */
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

    /** The BTB table counters map onto the level-1 metric fields. */
    void
    collectMetrics(core::RunMetrics &metrics) const override
    {
        const core::TableStats &stats = table_->stats();
        metrics.hrtHits = stats.hits;
        metrics.hrtMisses = stats.misses;
        metrics.hrtEvictions = stats.evictions;
        metrics.hrtAliasedLookups = stats.aliasedLookups;
    }

    const core::TableStats &tableStats() const
    {
        return table_->stats();
    }

    const LeeSmithConfig &config() const { return config_; }

    /**
     * Checkpointing in the core/checkpoint.hh framing: table entries
     * (automaton states), replacement state and statistics. Loads
     * are atomic — parsed into a fresh table, committed by swap only
     * after the whole stream (end sentinel included) validated.
     */
    bool saveCheckpoint(std::ostream &os) const override;
    bool loadCheckpoint(std::istream &is) override;

  private:
    core::Automaton &lookup(std::uint64_t pc);

    /** Fresh table of the configured flavour (ctor + atomic load). */
    std::unique_ptr<core::HistoryTable<core::Automaton>>
    makeTable() const;

    /**
     * The one fused loop body (lambda, then delta, on the branch's
     * own automaton), monomorphized over the lane source's prober
     * (core/lane_prober.hh) and the automaton policy.
     */
    template <typename Source, core::AutomatonPolicy Ops>
    void fusedBatch(Source &source, const Ops &ops,
                    AccuracyCounter &accuracy);

    LeeSmithConfig config_;
    std::unique_ptr<core::HistoryTable<core::Automaton>> table_;

    std::uint64_t last_pc_ = ~std::uint64_t{0};
    core::Automaton *last_entry_ = nullptr;
};

} // namespace tlat::predictors

#endif // TLAT_PREDICTORS_LEE_SMITH_BTB_HH
