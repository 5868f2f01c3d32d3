#include "lee_smith_btb.hh"

#include <utility>

#include "core/checkpoint.hh"
#include "core/contracts.hh"
#include "core/lane_prober.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace tlat::predictors
{

using core::Automaton;
using core::TableKind;

LeeSmithPredictor::LeeSmithPredictor(const LeeSmithConfig &config)
    : config_(config)
{
    table_ = makeTable();
}

std::unique_ptr<core::HistoryTable<Automaton>>
LeeSmithPredictor::makeTable() const
{
    const Automaton initial(config_.automaton);
    switch (config_.tableKind) {
      case TableKind::Ideal:
        return std::make_unique<core::IdealTable<Automaton>>(
            initial);
      case TableKind::Associative:
        return std::make_unique<core::AssociativeTable<Automaton>>(
            config_.entries, config_.associativity, initial,
            config_.addrShift);
      case TableKind::Hashed:
        return std::make_unique<core::HashedTable<Automaton>>(
            config_.entries, initial, config_.addrShift);
    }
    tlat_panic("unhandled table kind");
}

std::string
LeeSmithPredictor::name() const
{
    const std::string hrt_part =
        config_.tableKind == TableKind::Ideal
            ? format("IHRT(,%s)", core::automatonName(config_.automaton))
            : format("%s(%zu,%s)", core::tableKindName(config_.tableKind),
                     config_.entries,
                     core::automatonName(config_.automaton));
    return format("LS(%s,,)", hrt_part.c_str());
}

Automaton &
LeeSmithPredictor::lookup(std::uint64_t pc)
{
    if (last_entry_ && last_pc_ == pc)
        return *last_entry_;
    last_pc_ = pc;
    last_entry_ = &table_->lookup(pc);
    return *last_entry_;
}

bool
LeeSmithPredictor::predict(const trace::BranchRecord &record)
{
    return lookup(record.pc).predict();
}

void
LeeSmithPredictor::update(const trace::BranchRecord &record)
{
    lookup(record.pc).update(record.taken);
    // One predict/update pair is one logical table access.
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

template <typename Source, core::AutomatonPolicy Ops>
void
LeeSmithPredictor::fusedBatch(Source &source, const Ops &ops,
                              AccuracyCounter &accuracy)
{
    // One probe per branch; the reference pair does the same via the
    // predict()/update() memo, so the table statistics match.
    source.forEach([&](Automaton &automaton, bool taken) {
        const bool predicted = ops.predict(automaton.state());
        accuracy.record(predicted == taken);
        automaton.setState(ops.next(automaton.state(), taken));
    });
}

template <typename MakeSource>
bool
LeeSmithPredictor::fuse(MakeSource &&makeSource,
                        AccuracyCounter &accuracy)
{
    return core::visitAutomaton(
        config_.automaton, 0, [&](const auto &ops) {
            core::visitTable(*table_, [&](auto &table) {
                auto source = makeSource(table);
                fusedBatch(source, ops, accuracy);
            });
        });
}

void
LeeSmithPredictor::simulateBatch(const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    // Mid predict/update pair: the AoS overload owns the fallback to
    // the reference loop, which honours the memo.
    if (last_entry_ == nullptr && fuse([&view](auto &table) {
            return core::LaneSource(
                core::makeLaneProber(table, view.soa()), view.soa());
        }, accuracy))
        return;
    simulateBatch(view.records(), accuracy);
}

void
LeeSmithPredictor::simulateBatch(
    std::span<const trace::BranchRecord> records,
    AccuracyCounter &accuracy)
{
    // Mid predict/update pair: the memo models a shared physical
    // access, so hand off to the reference loop which honours it.
    if (last_entry_ == nullptr && fuse([records](auto &table) {
            return core::RecordSource(table, records);
        }, accuracy))
        return;
    BranchPredictor::simulateBatch(records, accuracy);
}

void
LeeSmithPredictor::reset()
{
    table_->reset();
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

namespace
{

constexpr std::uint32_t kCheckpointVersion = 1;

/** Geometry fingerprint, salted per predictor class (0x15b7b = LS). */
std::uint64_t
configFingerprint(const LeeSmithConfig &config)
{
    std::uint64_t fp = 0x15b7b;
    const auto mixIn = [&fp](std::uint64_t value) {
        fp = mix64(fp ^ value);
    };
    mixIn(static_cast<std::uint64_t>(config.tableKind));
    mixIn(config.entries);
    mixIn(config.associativity);
    mixIn(static_cast<std::uint64_t>(config.automaton));
    mixIn(config.addrShift);
    return fp;
}

} // namespace

bool
LeeSmithPredictor::saveCheckpoint(std::ostream &os) const
{
    core::ckpt::writeHeader(os, kCheckpointVersion,
                            configFingerprint(config_));
    table_->saveState(
        os, [](std::ostream &out, const Automaton &automaton) {
            core::ckpt::putScalar(out, automaton.state());
        });
    core::ckpt::writeEnd(os);
    return static_cast<bool>(os);
}

bool
LeeSmithPredictor::loadCheckpoint(std::istream &is)
{
    if (!core::ckpt::readHeader(is, kCheckpointVersion,
                                configFingerprint(config_)))
        return false;
    // Atomic temp-and-swap: the fresh table seeds every entry with
    // the configured automaton kind, the loader only restores the
    // state byte, and the live table_ is untouched unless the whole
    // stream validates.
    const std::uint8_t num_states =
        core::automatonSpec(config_.automaton).numStates;
    std::unique_ptr<core::HistoryTable<Automaton>> table =
        makeTable();
    const bool loaded = table->loadState(
        is, [num_states](std::istream &in, Automaton &automaton) {
            std::uint8_t state;
            if (!core::ckpt::getScalar(in, state) ||
                state >= num_states)
                return false;
            automaton.setState(state);
            return true;
        });
    if (!loaded || !core::ckpt::readEnd(is))
        return false;
    table_ = std::move(table);
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
    return true;
}

} // namespace tlat::predictors
