#include "combining_predictor.hh"

#include <sstream>
#include <utility>

#include "checkpoint.hh"
#include "trace/predecode.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace tlat::core
{
namespace
{

constexpr std::uint32_t kCheckpointVersion = 1;
// Per-class fingerprint salt: a combining checkpoint can never be
// mistaken for (or fed to) one of its components.
constexpr std::uint64_t kFingerprintSalt = 0xc0b1;

} // namespace

CombiningPredictor::CombiningPredictor(
    std::unique_ptr<BranchPredictor> a,
    std::unique_ptr<BranchPredictor> b,
    const CombiningOptions &options, std::string display_name)
    : a_(std::move(a)), b_(std::move(b)), options_(options),
      display_name_(std::move(display_name))
{
    tlat_assert(a_ && b_, "combining needs two components");
    tlat_assert(options_.chooserBits >= 1 &&
                    options_.chooserBits <= 24,
                "chooser table size out of range");
    tlat_assert(options_.initialState <= 3,
                "chooser counters are 2-bit");
    chooser_.assign(std::size_t{1} << options_.chooserBits,
                    options_.initialState);
}

std::string
CombiningPredictor::name() const
{
    if (!display_name_.empty())
        return display_name_;
    return "CMB(" + a_->name() + "," + b_->name() + ",CT(2^" +
           std::to_string(options_.chooserBits) + "))";
}

std::size_t
CombiningPredictor::slotOf(std::uint64_t pc) const
{
    return static_cast<std::size_t>(
        (pc >> options_.addrShift) & (chooser_.size() - 1));
}

std::uint8_t
CombiningPredictor::chooserState(std::uint64_t pc) const
{
    return chooser_[slotOf(pc)];
}

bool
CombiningPredictor::predict(const trace::BranchRecord &record)
{
    memo_a_ = a_->predict(record);
    memo_b_ = b_->predict(record);
    memo_pc_ = record.pc;
    has_memo_ = true;
    return chooser_[slotOf(record.pc)] >= 2 ? memo_a_ : memo_b_;
}

void
CombiningPredictor::update(const trace::BranchRecord &record)
{
    if (!has_memo_ || memo_pc_ != record.pc) {
        // Unpaired update: give the components the predict() they
        // would have seen so their own memo pairing stays intact.
        memo_a_ = a_->predict(record);
        memo_b_ = b_->predict(record);
    }
    has_memo_ = false;
    trainChooser(chooser_[slotOf(record.pc)], memo_a_ == record.taken,
                 memo_b_ == record.taken, tallies_);
    // Both components always train on the real outcome, whichever
    // one the chooser used — the independence the fused path relies
    // on, and what keeps the losing component warm enough to win
    // back branches it handles better.
    a_->update(record);
    b_->update(record);
}

void
CombiningPredictor::trainChooser(std::uint8_t &counter, bool correct_a,
                                 bool correct_b, ChooserTallies &tallies)
{
    if (correct_a)
        ++tallies.correctA;
    if (correct_b)
        ++tallies.correctB;
    if (correct_a == correct_b)
        return;
    ++tallies.disagreements;
    const bool selected_a = counter >= 2;
    if (selected_a)
        ++tallies.overridesA;
    else
        ++tallies.overridesB;
    const std::uint8_t next =
        correct_a ? (counter < 3 ? counter + 1 : counter)
                  : (counter > 0 ? counter - 1 : counter);
    if ((next >= 2) != selected_a)
        ++tallies.chooserFlips;
    counter = next;
}

void
CombiningPredictor::simulateBatch(const trace::PredecodedView &view,
                                  AccuracyCounter &accuracy)
{
    if (has_memo_) {
        // Mid predict/update pair: only the reference loop resolves
        // the outstanding memo correctly.
        BranchPredictor::simulateBatch(view.records(), accuracy);
        return;
    }
    // The components update with real outcomes regardless of the
    // chooser, so their evolution over the batch is independent of
    // it: run each component's own fused path once, capturing its
    // per-record correctness bits, then replay the two bit streams
    // through the chooser in trace order.
    const trace::PredecodedTrace &soa = view.soa();
    const std::span<const trace::BranchId> ids = soa.branchIds();
    // Chooser-slot lane: one index computation per unique PC instead
    // of one per branch, mirroring the component lane probers.
    const std::span<const std::uint64_t> pcs = soa.uniquePcs();
    std::vector<std::uint32_t> slot_of_id(pcs.size());
    for (std::size_t id = 0; id < pcs.size(); ++id)
        slot_of_id[id] =
            static_cast<std::uint32_t>(slotOf(pcs[id]));
    std::vector<std::uint8_t> a_bits(ids.size());
    std::vector<std::uint8_t> b_bits(ids.size());
    AccuracyCounter a_accuracy;
    a_accuracy.captureInto(a_bits.data());
    a_->simulateBatch(view, a_accuracy);
    AccuracyCounter b_accuracy;
    b_accuracy.captureInto(b_bits.data());
    b_->simulateBatch(view, b_accuracy);
    std::uint8_t *const chooser = chooser_.data();
    ChooserTallies tallies = tallies_;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const bool correct_a = a_bits[i] != 0;
        const bool correct_b = b_bits[i] != 0;
        std::uint8_t &counter = chooser[slot_of_id[ids[i]]];
        accuracy.record(counter >= 2 ? correct_a : correct_b);
        trainChooser(counter, correct_a, correct_b, tallies);
    }
    tallies_ = tallies;
}

void
CombiningPredictor::reset()
{
    a_->reset();
    b_->reset();
    chooser_.assign(chooser_.size(), options_.initialState);
    has_memo_ = false;
    tallies_ = {};
}

bool
CombiningPredictor::needsTraining() const
{
    return a_->needsTraining() || b_->needsTraining();
}

void
CombiningPredictor::train(const trace::TraceBuffer &trace)
{
    if (a_->needsTraining())
        a_->train(trace);
    if (b_->needsTraining())
        b_->train(trace);
}

void
CombiningPredictor::collectMetrics(RunMetrics &metrics) const
{
    // Component A (the "primary", by convention the two-level
    // scheme) supplies the table-level counters; the combining block
    // is additive on top.
    a_->collectMetrics(metrics);
    metrics.combPresent = true;
    metrics.combComponentA = a_->name();
    metrics.combComponentB = b_->name();
    metrics.combCorrectA = tallies_.correctA;
    metrics.combCorrectB = tallies_.correctB;
    metrics.combDisagreements = tallies_.disagreements;
    metrics.combOverridesA = tallies_.overridesA;
    metrics.combOverridesB = tallies_.overridesB;
    metrics.combChooserFlips = tallies_.chooserFlips;
}

namespace
{

std::uint64_t
combiningFingerprint(const CombiningOptions &options,
                     const std::string &name_a,
                     const std::string &name_b)
{
    std::uint64_t hash = mix64(kFingerprintSalt);
    hash = mix64(hash ^ options.chooserBits);
    hash = mix64(hash ^ options.addrShift);
    hash = mix64(hash ^ options.initialState);
    hash = ckpt::mixString(hash, name_a);
    hash = ckpt::mixString(hash, name_b);
    return hash;
}

} // namespace

bool
CombiningPredictor::saveCheckpoint(std::ostream &os) const
{
    if (has_memo_)
        return false; // unresolved predict() outstanding
    std::ostringstream a_blob;
    std::ostringstream b_blob;
    if (!a_->saveCheckpoint(a_blob) || !b_->saveCheckpoint(b_blob))
        return false;
    ckpt::writeHeader(os, kCheckpointVersion,
                      combiningFingerprint(options_, a_->name(),
                                           b_->name()));
    ckpt::writeBlob(os, a_blob.str());
    ckpt::writeBlob(os, b_blob.str());
    os.write(reinterpret_cast<const char *>(chooser_.data()),
             static_cast<std::streamsize>(chooser_.size()));
    ckpt::putScalar(os, tallies_.correctA);
    ckpt::putScalar(os, tallies_.correctB);
    ckpt::putScalar(os, tallies_.disagreements);
    ckpt::putScalar(os, tallies_.overridesA);
    ckpt::putScalar(os, tallies_.overridesB);
    ckpt::putScalar(os, tallies_.chooserFlips);
    ckpt::writeEnd(os);
    return static_cast<bool>(os);
}

bool
CombiningPredictor::loadCheckpoint(std::istream &is)
{
    if (!ckpt::readHeader(is, kCheckpointVersion,
                          combiningFingerprint(options_, a_->name(),
                                               b_->name())))
        return false;
    std::string a_bytes;
    std::string b_bytes;
    if (!ckpt::readBlob(is, a_bytes) || !ckpt::readBlob(is, b_bytes))
        return false;
    std::vector<std::uint8_t> chooser(chooser_.size());
    is.read(reinterpret_cast<char *>(chooser.data()),
            static_cast<std::streamsize>(chooser.size()));
    if (!is)
        return false;
    for (const std::uint8_t counter : chooser)
        if (counter > 3)
            return false;
    ChooserTallies tallies;
    for (std::uint64_t *value :
         {&tallies.correctA, &tallies.correctB, &tallies.disagreements,
          &tallies.overridesA, &tallies.overridesB,
          &tallies.chooserFlips})
        if (!ckpt::getScalar(is, *value))
            return false;
    if (!ckpt::readEnd(is))
        return false;

    // Components load atomically on their own, but "A loaded, B
    // refused" would still leave *this* half-restored — so snapshot
    // A's current state first and roll it back if B fails.
    std::ostringstream a_undo;
    if (!a_->saveCheckpoint(a_undo))
        return false;
    std::istringstream a_stream(a_bytes);
    if (!a_->loadCheckpoint(a_stream))
        return false;
    std::istringstream b_stream(b_bytes);
    if (!b_->loadCheckpoint(b_stream)) {
        std::istringstream undo_stream(a_undo.str());
        const bool restored = a_->loadCheckpoint(undo_stream);
        tlat_assert(restored,
                    "combining load rollback must succeed");
        return false;
    }

    chooser_ = std::move(chooser);
    tallies_ = tallies;
    has_memo_ = false;
    return true;
}

} // namespace tlat::core
