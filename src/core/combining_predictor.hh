/**
 * @file
 * Tournament / combining predictor (McFarling-style, the
 * bpred_combining shape from SimpleScalar): two arbitrary component
 * predictors run side by side, both always predicting and always
 * updating with the real outcome, while a per-branch table of 2-bit
 * chooser counters decides whose prediction is used. The chooser
 * trains only when the components disagree, toward whichever one was
 * correct — so a branch that one component handles systematically
 * better (the paper's two-level schemes on pattern-driven sites,
 * cheap bimodal tables on Systematic/Chaotic H2P sites) migrates to
 * that component without hurting the other's training.
 */

#ifndef TLAT_CORE_COMBINING_PREDICTOR_HH
#define TLAT_CORE_COMBINING_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "branch_predictor.hh"

namespace tlat::core
{

/** Chooser-table geometry and initial bias. */
struct CombiningOptions
{
    /** log2 of the chooser table size (counters = 2^chooserBits). */
    unsigned chooserBits = 12;
    /** Low PC bits dropped before indexing (instruction alignment). */
    unsigned addrShift = 2;
    /**
     * Initial 2-bit counter value for every chooser entry; >= 2
     * selects component A. The default 2 starts weakly preferring
     * the first (two-level) component, matching bpred_combining.
     */
    std::uint8_t initialState = 2;
};

/**
 * Combining predictor over two components. Owns the components
 * (built by the scheme factory, so core stays independent of the
 * predictors layer) and a 2^chooserBits table of 2-bit counters
 * indexed by (pc >> addrShift).
 */
class CombiningPredictor : public BranchPredictor
{
  public:
    /**
     * @param display_name rendered by name(); pass the scheme
     * config's canonical text, or empty to synthesize one from the
     * component names.
     */
    CombiningPredictor(std::unique_ptr<BranchPredictor> a,
                       std::unique_ptr<BranchPredictor> b,
                       const CombiningOptions &options = {},
                       std::string display_name = {});

    std::string name() const override;
    bool predict(const trace::BranchRecord &record) override;
    void update(const trace::BranchRecord &record) override;
    void reset() override;

    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

    bool needsTraining() const override;
    void train(const trace::TraceBuffer &trace) override;
    void collectMetrics(RunMetrics &metrics) const override;

    bool saveCheckpoint(std::ostream &os) const override;
    bool loadCheckpoint(std::istream &is) override;

    const BranchPredictor &componentA() const { return *a_; }
    const BranchPredictor &componentB() const { return *b_; }

    /** Chooser counter currently governing @p pc (0..3). */
    std::uint8_t chooserState(std::uint64_t pc) const;

    /** Updates where component A / B predicted correctly. */
    std::uint64_t correctA() const { return tallies_.correctA; }
    std::uint64_t correctB() const { return tallies_.correctB; }
    /** Updates where the components disagreed. */
    std::uint64_t disagreements() const
    {
        return tallies_.disagreements;
    }
    /** Disagreements resolved in favour of A / B by the chooser. */
    std::uint64_t overridesA() const { return tallies_.overridesA; }
    std::uint64_t overridesB() const { return tallies_.overridesB; }
    /** Chooser updates that flipped an entry's selected component. */
    std::uint64_t chooserFlips() const { return tallies_.chooserFlips; }

  private:
    /** The chooser's counters, in checkpoint order. */
    struct ChooserTallies
    {
        std::uint64_t correctA = 0;
        std::uint64_t correctB = 0;
        std::uint64_t disagreements = 0;
        std::uint64_t overridesA = 0;
        std::uint64_t overridesB = 0;
        std::uint64_t chooserFlips = 0;
    };

    std::size_t slotOf(std::uint64_t pc) const;
    /**
     * The single chooser training rule, shared verbatim by the
     * reference update() and the fused batch path so their counter
     * streams stay bit-identical: count per-component correctness
     * into @p tallies, and on disagreement train @p counter toward
     * the correct component, tallying which side it had selected.
     * The batch path passes local tallies, written back once per
     * batch, so the counter stores cannot alias them.
     */
    static void trainChooser(std::uint8_t &counter, bool correct_a,
                             bool correct_b, ChooserTallies &tallies);

    std::unique_ptr<BranchPredictor> a_;
    std::unique_ptr<BranchPredictor> b_;
    CombiningOptions options_;
    std::string display_name_;
    std::vector<std::uint8_t> chooser_;

    // predict()/update() pairing memo for the reference path.
    bool has_memo_ = false;
    std::uint64_t memo_pc_ = 0;
    bool memo_a_ = false;
    bool memo_b_ = false;

    ChooserTallies tallies_;
};

} // namespace tlat::core

#endif // TLAT_CORE_COMBINING_PREDICTOR_HH
