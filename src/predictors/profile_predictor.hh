/**
 * @file
 * The simple profiling scheme of the paper's Section 5.3: a profiling
 * run counts, per static branch, how often it was taken and not
 * taken; the more frequent direction is encoded as a static
 * prediction bit. The run-time prediction is that bit; branches never
 * seen in profiling fall back to predict-taken (the majority
 * direction overall).
 *
 * The paper profiles and measures on the same data set, so the
 * reported accuracy is exactly sum(max(taken, not_taken)) / total.
 */

#ifndef TLAT_PREDICTORS_PROFILE_PREDICTOR_HH
#define TLAT_PREDICTORS_PROFILE_PREDICTOR_HH

#include <cstdint>
#include <unordered_map>

#include "core/branch_predictor.hh"

namespace tlat::predictors
{

/** Per-branch majority-direction profiling predictor. */
class ProfilePredictor : public core::BranchPredictor
{
  public:
    std::string name() const override { return "Profile"; }
    bool needsTraining() const override { return true; }

    void
    train(const trace::TraceBuffer &trace) override
    {
        for (const trace::BranchRecord &record :
             trace.conditionalView()) {
            Counts &counts = counts_[record.pc];
            if (record.taken)
                ++counts.taken;
            else
                ++counts.notTaken;
        }
    }

    bool
    predict(const trace::BranchRecord &record) override
    {
        const auto it = counts_.find(record.pc);
        if (it == counts_.end())
            return true; // unseen branch: majority prior is taken
        return it->second.taken >= it->second.notTaken;
    }

    void update(const trace::BranchRecord &) override {}

    void reset() override { counts_.clear(); }

    /** Number of static branches profiled. */
    std::size_t profiledBranches() const { return counts_.size(); }

  private:
    struct Counts
    {
        std::uint64_t taken = 0;
        std::uint64_t notTaken = 0;
    };

    std::unordered_map<std::uint64_t, Counts> counts_;
};

} // namespace tlat::predictors

#endif // TLAT_PREDICTORS_PROFILE_PREDICTOR_HH
