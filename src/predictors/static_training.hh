/**
 * @file
 * Lee & Smith's Static Training scheme [Lee & Smith 1984], written
 * "ST(HRT(size,kSR),PT(2^k,PB),Same|Diff)" in the paper's Table 2.
 *
 * Like Two-Level Adaptive Training, the scheme keeps a k-bit history
 * register per branch and a 2^k-entry pattern table — but the pattern
 * table holds *preset prediction bits* computed from a profiling run
 * rather than live automata. Given a history pattern, the prediction
 * is fixed for the whole execution; this is exactly the property the
 * paper attacks: "the same statistics may not be applicable to
 * different data sets" (the Diff configurations of Figure 8).
 *
 * Profiling is software (paper Section 5.2), so training tracks every
 * static branch ideally; the configured HRT implementation applies to
 * the measured run only. Patterns never observed in training predict
 * taken, consistent with the ~60% overall taken rate.
 *
 * Checkpoints (core/checkpoint.hh framing, version 1, fingerprint
 * salt 0x57a7) hold the profiling tallies of every pattern and then
 * the HRT with each entry's history register.
 */

#ifndef TLAT_PREDICTORS_STATIC_TRAINING_HH
#define TLAT_PREDICTORS_STATIC_TRAINING_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/branch_predictor.hh"
#include "core/history_table.hh"
#include "core/scheme_config.hh"

namespace tlat::predictors
{

/** Configuration of a Static Training predictor. */
struct StaticTrainingConfig
{
    core::TableKind hrtKind = core::TableKind::Associative;
    std::size_t hrtEntries = 512;
    unsigned associativity = 4;
    unsigned historyBits = 12;
    /** Same/Diff label for the scheme name (the harness picks the
     *  actual training trace). */
    core::DataMode data = core::DataMode::Same;
    unsigned addrShift = 2;
};

/** Preset-pattern-bit predictor trained by profiling. */
class StaticTrainingPredictor : public core::BranchPredictor
{
  public:
    explicit StaticTrainingPredictor(
        const StaticTrainingConfig &config);

    std::string name() const override;
    bool needsTraining() const override { return true; }
    void train(const trace::TraceBuffer &trace) override;

    bool predict(const trace::BranchRecord &record) override;
    void update(const trace::BranchRecord &record) override;
    void reset() override;

    bool saveCheckpoint(std::ostream &os) const override;
    bool loadCheckpoint(std::istream &is) override;

    /** Preset bit for a pattern (tests; true = predict taken). */
    bool presetBit(std::uint32_t pattern) const;

    const StaticTrainingConfig &config() const { return config_; }

  private:
    struct StEntry
    {
        std::uint32_t history = 0;
    };

    StEntry &lookup(std::uint64_t pc);
    /** A fresh run-time HRT of the configured geometry. */
    std::unique_ptr<core::HistoryTable<StEntry>> makeHrt() const;
    std::uint64_t configFingerprint() const;

    StaticTrainingConfig config_;
    std::uint32_t history_mask_;

    /** Profiling tallies, indexed by pattern. */
    struct PatternCounts
    {
        std::uint64_t taken = 0;
        std::uint64_t notTaken = 0;
    };

    std::vector<PatternCounts> counts_;

    /** Run-time history registers. */
    std::unique_ptr<core::HistoryTable<StEntry>> hrt_;

    std::uint64_t last_pc_ = ~std::uint64_t{0};
    StEntry *last_entry_ = nullptr;
};

} // namespace tlat::predictors

#endif // TLAT_PREDICTORS_STATIC_TRAINING_HH
