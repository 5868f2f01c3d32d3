#include "static_training.hh"

#include "core/checkpoint.hh"
#include "util/bitops.hh"
#include "util/string_utils.hh"

namespace tlat::predictors
{

using core::TableKind;

StaticTrainingPredictor::StaticTrainingPredictor(
    const StaticTrainingConfig &config)
    : config_(config),
      history_mask_(static_cast<std::uint32_t>(
          lowMask(config.historyBits))),
      counts_(std::size_t{1} << config.historyBits), hrt_(makeHrt())
{
}

std::unique_ptr<core::HistoryTable<StaticTrainingPredictor::StEntry>>
StaticTrainingPredictor::makeHrt() const
{
    return core::makeHistoryTable(
        config_.hrtKind, config_.hrtEntries, config_.associativity,
        StEntry{history_mask_}, config_.addrShift);
}

std::string
StaticTrainingPredictor::name() const
{
    const std::string hrt_part =
        config_.hrtKind == TableKind::Ideal
            ? format("IHRT(,%uSR)", config_.historyBits)
            : format("%s(%zu,%uSR)",
                     core::tableKindName(config_.hrtKind),
                     config_.hrtEntries, config_.historyBits);
    return format("ST(%s,PT(2^%u,PB),%s)", hrt_part.c_str(),
                  config_.historyBits,
                  config_.data == core::DataMode::Diff ? "Diff"
                                                       : "Same");
}

void
StaticTrainingPredictor::train(const trace::TraceBuffer &trace)
{
    // Software profiling: ideal per-branch history, regardless of the
    // run-time HRT flavour. Histories start all-ones like the HRT.
    std::unordered_map<std::uint64_t, std::uint32_t> histories;
    for (const trace::BranchRecord &record : trace.conditionalView()) {
        auto [it, inserted] =
            histories.try_emplace(record.pc, history_mask_);
        std::uint32_t &history = it->second;
        PatternCounts &counts = counts_[history];
        if (record.taken)
            ++counts.taken;
        else
            ++counts.notTaken;
        history =
            ((history << 1) | (record.taken ? 1u : 0u)) & history_mask_;
    }
}

bool
StaticTrainingPredictor::presetBit(std::uint32_t pattern) const
{
    const PatternCounts &counts = counts_[pattern & history_mask_];
    // Ties and never-seen patterns predict taken (the 60% prior).
    return counts.taken >= counts.notTaken;
}

StaticTrainingPredictor::StEntry &
StaticTrainingPredictor::lookup(std::uint64_t pc)
{
    if (last_entry_ && last_pc_ == pc)
        return *last_entry_;
    last_pc_ = pc;
    last_entry_ = &hrt_->lookup(pc);
    return *last_entry_;
}

bool
StaticTrainingPredictor::predict(const trace::BranchRecord &record)
{
    return presetBit(lookup(record.pc).history);
}

void
StaticTrainingPredictor::update(const trace::BranchRecord &record)
{
    StEntry &entry = lookup(record.pc);
    entry.history = ((entry.history << 1) |
                     (record.taken ? 1u : 0u)) &
                    history_mask_;
    // One predict/update pair is one logical table access.
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

void
StaticTrainingPredictor::reset()
{
    counts_.assign(counts_.size(), PatternCounts{});
    hrt_->reset();
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

std::uint64_t
StaticTrainingPredictor::configFingerprint() const
{
    std::uint64_t fp = 0x57a7;
    for (const std::uint64_t value :
         {static_cast<std::uint64_t>(config_.hrtKind),
          std::uint64_t{config_.hrtEntries},
          std::uint64_t{config_.associativity},
          std::uint64_t{config_.historyBits},
          static_cast<std::uint64_t>(config_.data),
          std::uint64_t{config_.addrShift}})
        fp = mix64(fp ^ value);
    return fp;
}

bool
StaticTrainingPredictor::saveCheckpoint(std::ostream &os) const
{
    core::ckpt::writeHeader(os, 1, configFingerprint());
    for (const PatternCounts &counts : counts_) {
        core::ckpt::putScalar(os, counts.taken);
        core::ckpt::putScalar(os, counts.notTaken);
    }
    hrt_->saveState(os, [](std::ostream &out, const StEntry &entry) {
        core::ckpt::putScalar(out, entry.history);
    });
    core::ckpt::writeEnd(os);
    return static_cast<bool>(os);
}

bool
StaticTrainingPredictor::loadCheckpoint(std::istream &is)
{
    if (!core::ckpt::readHeader(is, 1, configFingerprint()))
        return false;
    // Parse into temporaries; commit only once the whole stream,
    // sentinel included, validated.
    std::vector<PatternCounts> counts(counts_.size());
    for (PatternCounts &pattern : counts) {
        if (!core::ckpt::getScalar(is, pattern.taken) ||
            !core::ckpt::getScalar(is, pattern.notTaken))
            return false;
    }
    auto hrt = makeHrt();
    const std::uint32_t mask = history_mask_;
    if (!hrt->loadState(is,
                        [mask](std::istream &in, StEntry &entry) {
                            return core::ckpt::getScalar(
                                       in, entry.history) &&
                                   (entry.history & ~mask) == 0;
                        }) ||
        !core::ckpt::readEnd(is))
        return false;
    counts_ = std::move(counts);
    hrt_ = std::move(hrt);
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
    return true;
}

} // namespace tlat::predictors
