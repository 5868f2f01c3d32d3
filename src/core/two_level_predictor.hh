/**
 * @file
 * The two-level adaptive branch prediction engine: the paper's
 * Two-Level Adaptive Training predictor (Section 2) and the schemes
 * that are special cases of it.
 *
 * Level 1: a history register table (HRT) of k-bit shift registers
 * recording branches' last k outcomes. Level 2: a pattern table of
 * automata recording how branches behaved the last times each
 * history pattern occurred.
 *
 *   prediction  z_c     = lambda(S_c)            (eq. 1)
 *   transition  S_{c+1} = delta(S_c, R_{i,c})    (eq. 2)
 *
 * where S_c is the state of the pattern table entry indexed by the
 * branch's current history register contents.
 *
 * Two parameters place the two levels (the first-/second-level
 * taxonomy of the authors' ISCA 1992 follow-up):
 *
 *   historyScope:  PerAddress (paper)  -> P..  one register per
 *                                          branch, in an HRT of
 *                                          hrtKind (IHRT/AHRT/HHRT,
 *                                          Section 3.1)
 *                  Global              -> G..  one shared register
 *                  PerSet              -> S..  one register per
 *                                          address set
 *   patternScope:  Global (paper)      -> ..g  one table
 *                  PerSet              -> ..s  one table per set
 *                  PerAddress          -> ..p  one table per branch
 *                  InEntry             -> the automaton lives in the
 *                                          HRT entry itself and there
 *                                          is no history: Lee and
 *                                          Smith's BTB designs
 *
 * plus xorAddress, which XORs branch-address bits into the pattern
 * index of a global-history configuration (gshare).
 *
 * The configurations fall into three families, each with its own
 * scheme name, metrics and checkpoint layout:
 *  - AT: per-address history, global pattern table, no xor — the
 *    paper's scheme, "AT(AHRT(512,12SR),PT(2^12,A2),)". PAg is AT
 *    with an IHRT.
 *  - LS: in-entry automata, "LS(AHRT(512,A2),,)".
 *  - taxonomy: every other scope pair, "GAs(12,A2)", and gshare,
 *    "GSH(12,A2)". Per-address history here uses an IHRT.
 *
 * AT-only options:
 *  - counterBits: n-bit saturating counter entries (extension).
 *  - cachedPredictionBit: the Section 3.2 latency optimization — the
 *    next prediction is computed at update time and stored alongside
 *    the history register, so a prediction needs one table access
 *    instead of two. Note this is *not* semantically identical to the
 *    two-lookup scheme: another branch may update the shared pattern
 *    table entry between caching and use (quantified by
 *    bench_ablation_latency).
 *  - speculativeHistoryUpdate, hhrtHash and the initialization
 *    ablations (Section 4.2 defaults: history registers start
 *    all-ones, automata start taken-biased).
 * The constructor rejects them, and any other combination no scheme
 * uses, outside their family.
 */

#ifndef TLAT_CORE_TWO_LEVEL_PREDICTOR_HH
#define TLAT_CORE_TWO_LEVEL_PREDICTOR_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "branch_predictor.hh"
#include "history_table.hh"
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

/** Second-level (pattern state) placement. */
enum class PatternScope : std::uint8_t
{
    Global,     ///< one table (..g, the paper)
    PerSet,     ///< one table per address set (..s)
    PerAddress, ///< one table per static branch (..p)
    InEntry     ///< the automaton is in the HRT entry (Lee-Smith)
};

/** Configuration of a two-level predictor. */
struct TwoLevelConfig
{
    HistoryScope historyScope = HistoryScope::PerAddress;
    PatternScope patternScope = PatternScope::Global;
    /** HRT flavour of per-address history. */
    TableKind hrtKind = TableKind::Associative;
    /** Total HRT entries (ignored for the ideal table). */
    std::size_t hrtEntries = 512;
    /** AHRT associativity (paper: always 4). */
    unsigned associativity = 4;
    /** History register length k (unused for InEntry). */
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
    /** Address bits selecting the set for PerSet scopes. */
    unsigned setBits = 4;
    /** XOR address bits into the pattern index (gshare flavour). */
    bool xorAddress = false;
    /** Low branch-address bits dropped before any indexing. */
    unsigned addrShift = 2;
};

/** The two-level engine ("AT", "LS" and the taxonomy schemes). */
class TwoLevelPredictor : public BranchPredictor
{
  public:
    explicit TwoLevelPredictor(const TwoLevelConfig &config);

    /** The family's scheme name (see the file comment). */
    std::string name() const override;
    bool predict(const trace::BranchRecord &record) override;
    void update(const trace::BranchRecord &record) override;
    void reset() override;

    /**
     * AT: HRT statistics, pattern-table histogram and speculation
     * counters. LS: the table statistics. Taxonomy: nothing.
     */
    void collectMetrics(RunMetrics &metrics) const override;

    /**
     * Fused fast path: one HRT probe per branch (the Section 3.2
     * stored next-prediction bit makes the second probe of the
     * predict()/update() pair unnecessary), with the first-level
     * store, the pattern placement and the automaton dispatched once
     * per batch so the probe, the pattern index and lambda/delta
     * inline. The dense branch-id lane turns the IHRT probe into a
     * direct vector index (one hash per unique PC per batch instead
     * of one per branch), the AHRT reads its set/tag pair and the
     * HHRT its slot index from per-geometry lanes computed once per
     * (trace, geometry), global and per-set registers and per-set and
     * per-address pattern tables are resolved once per unique PC, and
     * outcomes stream from the packed bitvector. An eligible AT(IHRT) batch takes the vectorized
     * trySimdBatch() instead. Bit-identical to the predict()/update()
     * loop — same tables, same statistics, same checkpoint bytes
     * (tests/test_simulate_batch_fuzz holds it to that). Runs the
     * reference loop instead when predict/update state is mid-pair
     * (in-flight speculation or a live lookup memo) or the automaton
     * has no fused policy.
     */
    void simulateBatch(const trace::PredecodedView &view,
                       AccuracyCounter &accuracy) override;

    /** HRT access statistics (hit ratio drives Figure 6's ordering);
     *  per-address history only. */
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

    /** The global pattern table (AT and ..g; tests and inspection). */
    const PatternTable &patternTable() const { return tables_.front(); }

    const TwoLevelConfig &config() const { return config_; }

    /**
     * Checkpointing in the core/checkpoint.hh framing, one layout per
     * family. AT: pattern table, then HRT contents, replacement
     * state and statistics. LS: the table with each entry's automaton
     * state. Taxonomy: the history registers and pattern tables of
     * whatever scopes the config uses, per-address state as pc-sorted
     * projections (determinism contract).
     *
     * Checkpoints are taken at branch boundaries; with
     * speculativeHistoryUpdate enabled there must be no in-flight
     * speculation (returns false otherwise). loadCheckpoint()
     * validates that the target predictor has the identical
     * configuration, parses the entire stream — end sentinel and
     * fully-consumed check included, every history register and
     * automaton state range-checked — into temporaries, and only
     * then commits: on any failure the predictor is untouched.
     */
    bool saveCheckpoint(std::ostream &os) const override;
    bool loadCheckpoint(std::istream &is) override;

  private:
    /** Which external contracts (name, metrics, checkpoint) apply. */
    enum class Family : std::uint8_t
    {
        At,
        LeeSmith,
        Taxonomy
    };

    /** One HRT entry: the history register, the cached prediction
     *  bit of Section 3.2, and the in-entry automaton state. */
    struct HrtEntry
    {
        std::uint32_t history = 0;
        bool cachedPrediction = true;
        std::uint8_t state = 0;
    };

    using PatternTables = std::unordered_map<std::uint64_t, PatternTable>;

    HrtEntry &lookup(std::uint64_t pc);

    /**
     * A fresh HRT of hrtKind for per-address history, or null for
     * global and per-set history. Shared by the constructor and the
     * atomic loadCheckpoint() temp-and-swap.
     */
    std::unique_ptr<HistoryTable<HrtEntry>> makeHrt() const;

    /** The pattern table @p pc indexes (not InEntry). */
    PatternTable &
    tableFor(std::uint64_t pc)
    {
        if (config_.patternScope == PatternScope::PerAddress)
            return addressTable(pc);
        return tables_[(pc >> config_.addrShift) & table_mask_];
    }

    /** The per-address pattern table of @p pc, created on demand. */
    PatternTable &addressTable(std::uint64_t pc);
    /** Address bits XORed into the pattern index (0 without xor). */
    std::uint32_t xorTermFor(std::uint64_t pc) const;

    /** Calls @p f with the first-level lane prober of this config. */
    template <typename F>
    void visitProber(const trace::PredecodedTrace &soa, F &&f);
    /** Calls @p f with the pattern placement of this config. */
    template <typename F>
    void visitPlacement(const trace::PredecodedTrace &soa, F &&f);

    /**
     * The one fused loop body: eqs. 1-2 with the Section 3.2 cached
     * bit and the speculative history update folded in,
     * monomorphized over the lane source (core/lane_prober.hh: the
     * HRT prober and the pattern placement) and the automaton policy.
     */
    template <typename Source, AutomatonPolicy Ops>
    void fusedBatch(Source &source, const Ops &ops,
                    AccuracyCounter &accuracy);

    /**
     * Vectorized twin of fusedBatch's steady state for AT over an
     * IHRT (util/simd.hh). Key observation: with no speculation and
     * no cached-bit, the history registers evolve independently of
     * the predictions, so every record's PT index is precomputable
     * into a dense lane before any automaton state is touched; the
     * remaining per-record program (gather state, compare lambda to
     * the packed outcome bit, store delta) is then a pure array
     * kernel that fusedPass() runs 8-wide, with intra-block PT
     * read-modify-write hazards detected per block and run scalar.
     * Bit-identical to the lane-source path: same accuracy, capture
     * bytes, HRT statistics (one real probe per unique pc in id
     * order — the reference loop's first-touch order — plus bulk
     * repeat-hit accounting) and checkpoint bytes. Returns false
     * when ineligible (speculative/cached modes, >4-bit counters,
     * automata with no policy, or scalar-only hosts), in which case
     * the caller falls through to the lane-source path.
     */
    bool trySimdBatch(const trace::PredecodedView &view,
                      AccuracyCounter &accuracy);

    /** The family's checkpoint version and config fingerprint. */
    std::uint32_t checkpointVersion() const;
    std::uint64_t configFingerprint() const;
    /** The taxonomy payload (the other families' are inline). */
    void saveScopes(std::ostream &os) const;
    bool loadScopes(std::istream &is, std::vector<HrtEntry> &registers,
                    HistoryTable<HrtEntry> *hrt,
                    std::vector<PatternTable> &tables,
                    PatternTables &address_tables) const;

    TwoLevelConfig config_;
    /** The automaton's spec (in-entry lambda/delta). */
    const AutomatonSpec *spec_;
    Family family_;
    std::uint32_t history_mask_;
    /** Selects among tables_ by the low address bits: 0 for one. */
    std::uint32_t table_mask_ = 0;
    /** Global or per-set pattern tables (empty for InEntry). */
    std::vector<PatternTable> tables_;
    /** Per-address pattern tables, created on demand. */
    PatternTables address_tables_;
    /** Construction-time HRT entry seed (pure function of config). */
    HrtEntry initial_entry_;
    /** Per-address history (null otherwise). */
    std::unique_ptr<HistoryTable<HrtEntry>> hrt_;
    /** Global (one) or 2^setBits per-set history registers, indexed
     *  by the low address bits; empty for per-address history. */
    std::vector<HrtEntry> registers_;

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
