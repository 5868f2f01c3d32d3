#include "generalized_two_level.hh"

#include <algorithm>
#include <utility>

#include "checkpoint.hh"
#include "contracts.hh"
#include "lane_prober.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace tlat::core
{

GeneralizedTwoLevelPredictor::GeneralizedTwoLevelPredictor(
    const GeneralizedConfig &config)
    : config_(config),
      history_mask_(static_cast<std::uint32_t>(
          lowMask(config.historyBits))),
      set_mask_(static_cast<std::uint32_t>(lowMask(config.setBits))),
      global_history_(history_mask_)
{
    tlat_assert(config_.historyBits >= 1 && config_.historyBits <= 24,
                "history length out of range");
    tlat_assert(config_.setBits <= 12, "set bits out of range");
    tlat_assert(!config_.xorAddress ||
                    config_.historyScope == HistoryScope::Global,
                "xorAddress is a global-history (gshare) refinement");

    if (config_.historyScope == HistoryScope::PerSet) {
        set_histories_.assign(std::size_t{1} << config_.setBits,
                              history_mask_);
    }

    switch (config_.patternScope) {
      case PatternScope::Global:
        fixed_tables_.emplace_back(config_.historyBits,
                                   config_.automaton);
        break;
      case PatternScope::PerSet:
        for (std::size_t s = 0;
             s < (std::size_t{1} << config_.setBits); ++s) {
            fixed_tables_.emplace_back(config_.historyBits,
                                       config_.automaton);
        }
        break;
      case PatternScope::PerAddress:
        break; // allocated on demand
    }
}

std::string
GeneralizedTwoLevelPredictor::name() const
{
    const char history_letter =
        config_.historyScope == HistoryScope::Global
            ? 'G'
            : config_.historyScope == HistoryScope::PerAddress ? 'P'
                                                               : 'S';
    const char pattern_letter =
        config_.patternScope == PatternScope::Global
            ? 'g'
            : config_.patternScope == PatternScope::PerSet ? 's'
                                                           : 'p';
    std::string text =
        format("%cA%c(%u,%s)", history_letter, pattern_letter,
               config_.historyBits, automatonName(config_.automaton));
    if (config_.xorAddress)
        text += "+xor";
    return text;
}

std::uint32_t &
GeneralizedTwoLevelPredictor::historyFor(std::uint64_t pc)
{
    switch (config_.historyScope) {
      case HistoryScope::Global:
        return global_history_;
      case HistoryScope::PerSet:
        return set_histories_[(pc >> config_.addrShift) & set_mask_];
      case HistoryScope::PerAddress:
      default: {
        auto [it, inserted] =
            address_histories_.try_emplace(pc, history_mask_);
        return it->second;
      }
    }
}

PatternTable &
GeneralizedTwoLevelPredictor::tableFor(std::uint64_t pc)
{
    switch (config_.patternScope) {
      case PatternScope::Global:
        return fixed_tables_[0];
      case PatternScope::PerSet:
        return fixed_tables_[(pc >> config_.addrShift) & set_mask_];
      case PatternScope::PerAddress:
      default: {
        auto it = address_tables_.find(pc);
        if (it == address_tables_.end()) {
            it = address_tables_
                     .emplace(pc,
                              PatternTable(config_.historyBits,
                                           config_.automaton))
                     .first;
        }
        return it->second;
      }
    }
}

std::uint32_t
GeneralizedTwoLevelPredictor::xorTermFor(std::uint64_t pc) const
{
    if (!config_.xorAddress)
        return 0;
    return static_cast<std::uint32_t>(pc >> config_.addrShift) &
           history_mask_;
}

BranchScope
GeneralizedTwoLevelPredictor::scopeFor(std::uint64_t pc)
{
    // Same resolution order as predict(): history register first, so
    // demand-grown state is created in the reference order.
    BranchScope scope;
    scope.history = &historyFor(pc);
    scope.table = &tableFor(pc);
    scope.xorTerm = xorTermFor(pc);
    return scope;
}

bool
GeneralizedTwoLevelPredictor::predict(
    const trace::BranchRecord &record)
{
    const std::uint32_t history = historyFor(record.pc);
    return tableFor(record.pc)
        .predict(history ^ xorTermFor(record.pc));
}

void
GeneralizedTwoLevelPredictor::update(const trace::BranchRecord &record)
{
    std::uint32_t &history = historyFor(record.pc);
    tableFor(record.pc)
        .update(history ^ xorTermFor(record.pc), record.taken);
    history = ((history << 1) | (record.taken ? 1u : 0u)) &
              history_mask_;
}

template <typename Source, AutomatonPolicy Ops>
void
GeneralizedTwoLevelPredictor::fusedBatch(Source &source,
                                         const Ops &ops,
                                         AccuracyCounter &accuracy)
{
    // One scope resolution per unique branch: the reference pair
    // re-runs historyFor()/tableFor() (hash lookups for the
    // per-address scopes) in both predict() and update() of every
    // dynamic branch.
    const std::uint32_t mask = history_mask_;
    source.forEach([&, mask](const BranchScope &scope, bool taken) {
        std::uint32_t &history = *scope.history;
        std::uint8_t &state =
            scope.table->stateAt(history ^ scope.xorTerm);
        const bool predicted = ops.predict(state);
        accuracy.record(predicted == taken);
        state = ops.next(state, taken);
        history = ((history << 1) | (taken ? 1u : 0u)) & mask;
    });
}

void
GeneralizedTwoLevelPredictor::simulateBatch(
    const trace::PredecodedView &view, AccuracyCounter &accuracy)
{
    LaneSource source(ScopeLaneProber(ScopeTable{this}, view.soa()),
                      view.soa());
    if (!visitAutomaton(config_.automaton, 0, [&](const auto &ops) {
            fusedBatch(source, ops, accuracy);
        }))
        BranchPredictor::simulateBatch(view.records(), accuracy);
}

void
GeneralizedTwoLevelPredictor::reset()
{
    global_history_ = history_mask_;
    if (config_.historyScope == HistoryScope::PerSet) {
        set_histories_.assign(set_histories_.size(), history_mask_);
    }
    address_histories_.clear();
    for (PatternTable &table : fixed_tables_)
        table.reset();
    address_tables_.clear();
}

std::size_t
GeneralizedTwoLevelPredictor::patternTableCount() const
{
    return config_.patternScope == PatternScope::PerAddress
        ? address_tables_.size()
        : fixed_tables_.size();
}

std::size_t
GeneralizedTwoLevelPredictor::historyRegisterCount() const
{
    switch (config_.historyScope) {
      case HistoryScope::Global:
        return 1;
      case HistoryScope::PerSet:
        return set_histories_.size();
      case HistoryScope::PerAddress:
      default:
        return address_histories_.size();
    }
}

namespace
{

constexpr std::uint32_t kCheckpointVersion = 1;

/** Scope/geometry fingerprint, salted per class (0x6e2a1 = GTL). */
std::uint64_t
configFingerprint(const GeneralizedConfig &config)
{
    std::uint64_t fp = 0x6e2a1;
    const auto mixIn = [&fp](std::uint64_t value) {
        fp = mix64(fp ^ value);
    };
    mixIn(static_cast<std::uint64_t>(config.historyScope));
    mixIn(static_cast<std::uint64_t>(config.patternScope));
    mixIn(config.historyBits);
    mixIn(static_cast<std::uint64_t>(config.automaton));
    mixIn(config.setBits);
    mixIn(config.xorAddress ? 1 : 0);
    mixIn(config.addrShift);
    return fp;
}

} // namespace

bool
GeneralizedTwoLevelPredictor::saveCheckpoint(std::ostream &os) const
{
    ckpt::writeHeader(os, kCheckpointVersion,
                      configFingerprint(config_));
    ckpt::putScalar(os, global_history_);

    ckpt::putScalar(
        os, static_cast<std::uint64_t>(set_histories_.size()));
    for (const std::uint32_t history : set_histories_)
        ckpt::putScalar(os, history);

    // The demand-grown maps serialize as pc-sorted ordered
    // projections, so the bytes are independent of hash iteration
    // order (determinism contract).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> histories;
    histories.reserve(address_histories_.size());
    for (const auto &[pc, history] : address_histories_)
        histories.emplace_back(pc, history);
    std::sort(histories.begin(), histories.end());
    ckpt::putScalar(os,
                    static_cast<std::uint64_t>(histories.size()));
    for (const auto &[pc, history] : histories) {
        ckpt::putScalar(os, pc);
        ckpt::putScalar(os, history);
    }

    ckpt::putScalar(
        os, static_cast<std::uint64_t>(fixed_tables_.size()));
    for (const PatternTable &table : fixed_tables_)
        table.saveState(os);

    std::vector<std::pair<std::uint64_t, const PatternTable *>>
        tables;
    tables.reserve(address_tables_.size());
    for (const auto &[pc, table] : address_tables_)
        tables.emplace_back(pc, &table);
    std::sort(tables.begin(), tables.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    ckpt::putScalar(os, static_cast<std::uint64_t>(tables.size()));
    for (const auto &[pc, table] : tables) {
        ckpt::putScalar(os, pc);
        table->saveState(os);
    }

    ckpt::writeEnd(os);
    return static_cast<bool>(os);
}

bool
GeneralizedTwoLevelPredictor::loadCheckpoint(std::istream &is)
{
    if (!ckpt::readHeader(is, kCheckpointVersion,
                          configFingerprint(config_)))
        return false;

    // Parse everything into temporaries; commit only after the end
    // sentinel and the fully-consumed check pass.
    std::uint32_t global_history = 0;
    if (!ckpt::getScalar(is, global_history) ||
        (global_history & ~history_mask_) != 0)
        return false;

    std::uint64_t set_count = 0;
    if (!ckpt::getScalar(is, set_count) ||
        set_count != set_histories_.size())
        return false;
    std::vector<std::uint32_t> set_histories(
        static_cast<std::size_t>(set_count));
    for (std::uint32_t &history : set_histories) {
        if (!ckpt::getScalar(is, history) ||
            (history & ~history_mask_) != 0)
            return false;
    }

    std::uint64_t history_count = 0;
    if (!ckpt::getScalar(is, history_count) ||
        history_count > (std::uint64_t{1} << 32))
        return false;
    std::unordered_map<std::uint64_t, std::uint32_t>
        address_histories;
    address_histories.reserve(
        static_cast<std::size_t>(history_count));
    std::uint64_t previous_pc = 0;
    for (std::uint64_t i = 0; i < history_count; ++i) {
        std::uint64_t pc = 0;
        std::uint32_t history = 0;
        if (!ckpt::getScalar(is, pc) ||
            !ckpt::getScalar(is, history) ||
            (history & ~history_mask_) != 0)
            return false;
        if (i > 0 && pc <= previous_pc)
            return false; // must be strictly pc-sorted
        previous_pc = pc;
        address_histories.emplace(pc, history);
    }

    std::uint64_t fixed_count = 0;
    if (!ckpt::getScalar(is, fixed_count) ||
        fixed_count != fixed_tables_.size())
        return false;
    std::vector<PatternTable> fixed_tables = fixed_tables_;
    for (PatternTable &table : fixed_tables) {
        if (!table.loadState(is))
            return false;
    }

    std::uint64_t table_count = 0;
    if (!ckpt::getScalar(is, table_count) ||
        table_count > (std::uint64_t{1} << 32))
        return false;
    std::unordered_map<std::uint64_t, PatternTable> address_tables;
    address_tables.reserve(static_cast<std::size_t>(table_count));
    previous_pc = 0;
    for (std::uint64_t i = 0; i < table_count; ++i) {
        std::uint64_t pc = 0;
        if (!ckpt::getScalar(is, pc))
            return false;
        if (i > 0 && pc <= previous_pc)
            return false;
        previous_pc = pc;
        PatternTable table(config_.historyBits, config_.automaton);
        if (!table.loadState(is))
            return false;
        address_tables.emplace(pc, std::move(table));
    }

    if (!ckpt::readEnd(is))
        return false;

    global_history_ = global_history;
    set_histories_ = std::move(set_histories);
    address_histories_ = std::move(address_histories);
    fixed_tables_ = std::move(fixed_tables);
    address_tables_ = std::move(address_tables);
    return true;
}

} // namespace tlat::core
