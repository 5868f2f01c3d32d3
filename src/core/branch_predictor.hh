/**
 * @file
 * The predictor interface shared by the Two-Level Adaptive Training
 * predictor and every comparison scheme in the study.
 *
 * Contract: for each conditional branch in trace order the harness
 * calls predict() and then update() with the same record. predict()
 * must not read record.taken — it is present because the record type
 * is shared with the trace layer. Schemes that require a profiling
 * pass (Static Training, the profiling scheme) return true from
 * needsTraining() and receive the training trace via train() before
 * the measured run.
 */

#ifndef TLAT_CORE_BRANCH_PREDICTOR_HH
#define TLAT_CORE_BRANCH_PREDICTOR_HH

#include <iosfwd>
#include <span>
#include <string>

#include "run_metrics.hh"
#include "trace/trace_buffer.hh"
#include "util/stats.hh"

namespace tlat::core
{

/** Abstract direction predictor for conditional branches. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Scheme name in the paper's Table 2 notation where possible. */
    virtual std::string name() const = 0;

    /** Predicts the direction of the branch about to execute. */
    virtual bool predict(const trace::BranchRecord &record) = 0;

    /** Informs the predictor of the resolved outcome. */
    virtual void update(const trace::BranchRecord &record) = 0;

    /**
     * Batch simulation over a predecoded trace
     * (trace::TraceBuffer::predecodedView()): the SoA lanes plus the
     * AoS conditional span they mirror. This is the one batch entry
     * point the harness, the chunk streams and serve drive, measuring
     * the whole view in one virtual call and tallying into
     * @p accuracy.
     *
     * The contract is strict bit-equivalence: for any record
     * sequence, simulateBatch must leave the predictor in exactly the
     * state — accuracy counts, internal tables, statistics counters,
     * checkpoint bytes, collectMetrics() output — that the reference
     * loop below would. The default *is* that reference loop over
     * view.records(); predictors with a fused fast path
     * (TwoLevelPredictor, GeneralizedTwoLevel, LeeSmith, Combining)
     * override it, fall back to the reference loop whenever the fused
     * path is unsafe, and are held to the contract by the randomized
     * equivalence suite (tests/test_simulate_batch_fuzz).
     */
    virtual void
    simulateBatch(const trace::PredecodedView &view,
                  AccuracyCounter &accuracy)
    {
        simulateBatch(view.records(), accuracy);
    }

    /**
     * The reference loop: predict(), record, update() per conditional
     * record of @p records, skipping non-conditionals exactly like
     * the harness loop always did. Not virtual — it is the semantic
     * ground truth the fused view overrides fall back to and are
     * measured against, never a fast path of its own.
     */
    void
    simulateBatch(std::span<const trace::BranchRecord> records,
                  AccuracyCounter &accuracy)
    {
        for (const trace::BranchRecord &record : records) {
            if (record.cls != trace::BranchClass::Conditional)
                continue;
            const bool predicted = predict(record);
            accuracy.record(predicted == record.taken);
            update(record);
        }
    }

    /** Restores the initial state (fresh tables). */
    virtual void reset() = 0;

    /** True if the scheme needs a profiling pass before measuring. */
    virtual bool needsTraining() const { return false; }

    /**
     * Profiling pass over a training trace. Only called when
     * needsTraining() is true, and always before the measured run.
     */
    virtual void train(const trace::TraceBuffer &trace)
    {
        (void)trace;
    }

    /**
     * Snapshots the predictor's internal observability counters into
     * @p metrics (run_metrics.hh). Called by the harness *after* a
     * measured run — never on the predict/update hot path, so schemes
     * pay nothing when the caller does not ask. The default leaves
     * the metrics zeroed for schemes with no internal tables.
     */
    virtual void collectMetrics(RunMetrics &metrics) const
    {
        (void)metrics;
    }

    /**
     * Serializes the complete dynamic state to @p os so a fresh
     * predictor of the same configuration can resume bit-identically
     * via loadCheckpoint(). Returns false when the scheme does not
     * support checkpoints (the default) or cannot checkpoint right
     * now (e.g. speculation in flight). The framing contract is in
     * core/checkpoint.hh: magic + version + config fingerprint, the
     * payload, then an end sentinel; loads are atomic (the predictor
     * is untouched unless the whole stream parses, matches the
     * configuration, and is fully consumed).
     */
    virtual bool saveCheckpoint(std::ostream &os) const
    {
        (void)os;
        return false;
    }

    /** Restores state written by saveCheckpoint(); see above. */
    virtual bool loadCheckpoint(std::istream &is)
    {
        (void)is;
        return false;
    }
};

} // namespace tlat::core

#endif // TLAT_CORE_BRANCH_PREDICTOR_HH
