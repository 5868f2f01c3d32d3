/**
 * @file
 * The Two-Level Adaptive Training branch predictor (the paper's
 * contribution, Section 2).
 *
 * Level 1: a per-address history register table (HRT) of k-bit shift
 * registers recording each branch's last k outcomes. Level 2: a
 * global pattern table of automata recording how branches behaved the
 * last times each history pattern occurred.
 *
 *   prediction  z_c     = lambda(S_c)            (eq. 1)
 *   transition  S_{c+1} = delta(S_c, R_{i,c})    (eq. 2)
 *
 * where S_c is the state of the pattern table entry indexed by the
 * branch's current history register contents.
 *
 * Options:
 *  - HRT implementation: IHRT / AHRT / HHRT (Section 3.1).
 *  - History length k and automaton kind (Sections 5.1.1, 5.1.3).
 *  - cachedPredictionBit: the Section 3.2 latency optimization — the
 *    next prediction is computed at update time and stored alongside
 *    the history register, so a prediction needs one table access
 *    instead of two. Note this is *not* semantically identical to the
 *    two-lookup scheme: another branch may update the shared pattern
 *    table entry between caching and use (quantified by
 *    bench_ablation_latency).
 *  - initialization ablations (Section 4.2 defaults: history registers
 *    start all-ones, automata start taken-biased).
 */

#ifndef TLAT_CORE_TWO_LEVEL_PREDICTOR_HH
#define TLAT_CORE_TWO_LEVEL_PREDICTOR_HH

#include <deque>
#include <memory>
#include <unordered_map>

#include "branch_predictor.hh"
#include "history_table.hh"
#include "pattern_table.hh"

namespace tlat::core
{

/** Configuration of a Two-Level Adaptive Training predictor. */
struct TwoLevelConfig
{
    /** HRT flavour. */
    TableKind hrtKind = TableKind::Associative;
    /** Total HRT entries (ignored for the ideal table). */
    std::size_t hrtEntries = 512;
    /** AHRT associativity (paper: always 4). */
    unsigned associativity = 4;
    /** History register length k. */
    unsigned historyBits = 12;
    /** Pattern-history automaton. */
    AutomatonKind automaton = AutomatonKind::A2;
    /**
     * Extension: when non-zero, pattern entries are n-bit saturating
     * counters instead of Figure 2 automata (2 reproduces A2 exactly;
     * see bench_ablation_counter_width). Overrides `automaton`.
     */
    unsigned counterBits = 0;
    /** Section 3.2 one-lookup optimization. */
    bool cachedPredictionBit = false;
    /**
     * Speculative history update: shift the *predicted* outcome into
     * the history register at prediction time and repair the register
     * (and squash younger in-flight speculations of the same branch)
     * if the prediction turns out wrong. With immediate updates this
     * is behaviourally identical to the paper's model; it pays off
     * when updates are delayed (deep pipelines — see
     * bench_ablation_delayed_update). Requires the predict()/update()
     * pairing discipline of the harness.
     */
    bool speculativeHistoryUpdate = false;
    /** HHRT index hash (ablation; paper-era default is low bits). */
    HashKind hhrtHash = HashKind::LowBits;
    /** Initialize history registers to all ones (paper default). */
    bool initHistoryOnes = true;
    /** Automaton initial state; -1 = the paper's taken-biased value. */
    std::int32_t automatonInitState = -1;
    /** Low branch-address bits dropped before HRT indexing. */
    unsigned addrShift = 2;
};

/** The Two-Level Adaptive Training predictor ("AT" in Table 2). */
class TwoLevelPredictor : public BranchPredictor
{
  public:
    explicit TwoLevelPredictor(const TwoLevelConfig &config);

    std::string name() const override;
    bool predict(const trace::BranchRecord &record) override;
    void update(const trace::BranchRecord &record) override;
    void reset() override;
    void collectMetrics(RunMetrics &metrics) const override;

    /**
     * Fused fast path: one HRT probe per branch (the Section 3.2
     * stored next-prediction bit makes the second probe of the
     * predict()/update() pair unnecessary), with the HRT flavour and
     * the automaton dispatched once per batch so lambda/delta and the
     * probe inline. The dense branch-id lane turns the IHRT probe
     * into a direct vector index (one hash per unique PC per batch
     * instead of one per branch), the AHRT reads its set/tag pair and
     * the HHRT its slot index from per-geometry lanes computed once
     * per (trace, geometry), and outcomes stream from the packed
     * bitvector. An eligible IHRT batch takes the vectorized
     * trySimdBatch() instead. Bit-identical to the predict()/update()
     * loop — same tables, same statistics, same checkpoint bytes
     * (tests/test_simulate_batch_fuzz holds it to that). Runs the
     * reference loop instead when predict/update state is mid-pair
     * (in-flight speculation or a live lookup memo) or the automaton
     * has no fused policy.
     */
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

    /** HRT access statistics (hit ratio drives Figure 6's ordering). */
    const TableStats &hrtStats() const { return hrt_->stats(); }

    /**
     * Branch pcs currently holding in-flight speculation state. With
     * paired predict()/update() calls this returns to 0 after every
     * resolved branch — drained pcs are erased, not kept as empty
     * deques (regression guard for the unbounded-growth bug).
     */
    std::size_t inFlightBranches() const { return in_flight_.size(); }

    /** Mispredictions that squashed younger speculation. */
    std::uint64_t squashEvents() const { return squash_events_; }

    /** Younger in-flight speculations discarded by squashes. */
    std::uint64_t
    squashedSpeculations() const
    {
        return squashed_speculations_;
    }

    /** The global pattern table (tests and inspection). */
    const PatternTable &patternTable() const { return pattern_table_; }

    const TwoLevelConfig &config() const { return config_; }

    /**
     * Checkpointing: writes the predictor's full state (pattern
     * table, HRT contents, replacement state, statistics) in the
     * core/checkpoint.hh framing.
     *
     * Checkpoints are taken at branch boundaries; with
     * speculativeHistoryUpdate enabled there must be no in-flight
     * speculation (returns false otherwise). loadCheckpoint()
     * validates that the target predictor has the identical
     * configuration, parses the entire stream — end sentinel and
     * fully-consumed check included — into temporaries, and only
     * then commits: on any failure the predictor is untouched.
     */
    bool saveCheckpoint(std::ostream &os) const override;
    bool loadCheckpoint(std::istream &is) override;

  private:
    /** One HRT entry: the history register plus the cached
     *  prediction bit of Section 3.2. */
    struct HrtEntry
    {
        std::uint32_t history = 0;
        bool cachedPrediction = true;
    };

    HrtEntry &lookup(std::uint64_t pc);

    /**
     * Builds a fresh HRT of the configured flavour seeded with the
     * construction-time initial entry — shared by the constructor
     * and the atomic loadCheckpoint() temp-and-swap.
     */
    std::unique_ptr<HistoryTable<HrtEntry>> makeHrt() const;

    /**
     * The one fused loop body: eqs. 1-2 with the Section 3.2 cached
     * bit and the speculative history update folded in,
     * monomorphized over the lane source's prober
     * (core/lane_prober.hh) and the automaton policy.
     */
    template <typename Source, AutomatonPolicy Ops>
    void fusedBatch(Source &source, const Ops &ops,
                    AccuracyCounter &accuracy);

    /**
     * Vectorized twin of fusedBatch's steady state over the IHRT
     * lane source (util/simd.hh). Key observation: with no
     * speculation and no cached-bit, the history registers evolve
     * independently of the predictions, so every record's PT index
     * is precomputable into a dense lane before any automaton state
     * is touched; the remaining per-record program (gather state,
     * compare lambda to the packed outcome bit, store delta) is then
     * a pure array kernel that fusedPass() runs 8-wide, with
     * intra-block PT read-modify-write hazards detected per block and
     * run scalar. Bit-identical to the lane-source path: same
     * accuracy, capture bytes, HRT statistics (one real probe per
     * unique pc in id order — the reference loop's first-touch order
     * — plus bulk repeat-hit accounting) and checkpoint bytes.
     * Returns false when ineligible (non-IHRT callers must not call;
     * speculative/cached modes, >4-bit counters, automata with no
     * policy, or scalar-only hosts), in which case the caller falls
     * through to the lane-source path.
     */
    bool trySimdBatch(const trace::PredecodedView &view,
                      AccuracyCounter &accuracy);

    TwoLevelConfig config_;
    std::uint32_t history_mask_;
    PatternTable pattern_table_;
    /** Construction-time HRT entry seed (pure function of config). */
    HrtEntry initial_entry_;
    std::unique_ptr<HistoryTable<HrtEntry>> hrt_;

    /** In-flight speculation record (speculativeHistoryUpdate). */
    struct Speculation
    {
        std::uint32_t pattern;
        bool predicted;
    };

    std::unordered_map<std::uint64_t, std::deque<Speculation>>
        in_flight_;
    std::uint64_t squash_events_ = 0;
    std::uint64_t squashed_speculations_ = 0;

    // predict() immediately followed by update() on the same branch is
    // the common case; reuse the looked-up entry to model one logical
    // HRT access per branch.
    std::uint64_t last_pc_ = ~std::uint64_t{0};
    HrtEntry *last_entry_ = nullptr;
};

} // namespace tlat::core

#endif // TLAT_CORE_TWO_LEVEL_PREDICTOR_HH
