#include "two_level_predictor.hh"

#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "checkpoint.hh"
#include "contracts.hh"
#include "lane_prober.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/string_utils.hh"

namespace tlat::core
{

namespace
{

PatternTable
makePatternTable(const TwoLevelConfig &config)
{
    if (config.counterBits > 0) {
        return PatternTable(
            config.historyBits,
            PatternTable::CounterEntries{config.counterBits});
    }
    return PatternTable(config.historyBits, config.automaton,
                        config.automatonInitState);
}

/**
 * Flattens the configured pattern-entry policy into the 16-entry
 * nibble LUTs the SIMD kernels shuffle through, or nullopt when the
 * policy does not fit (counters wider than 4 bits) or has none
 * (visitAutomaton's unhandled kinds, the same set the scalar fused
 * path falls back on, so SIMD eligibility never exceeds it).
 */
std::optional<util::simd::FusedLuts>
buildFusedLuts(const TwoLevelConfig &config)
{
    if (config.counterBits > 4)
        return std::nullopt;
    std::optional<util::simd::FusedLuts> luts;
    visitAutomaton(config.automaton, config.counterBits,
                   [&luts](const auto &ops) {
                       util::simd::FusedLuts &lut = luts.emplace();
                       for (unsigned s = 0; s < ops.numStates(); ++s) {
                           const auto state =
                               static_cast<std::uint8_t>(s);
                           lut.predict[s] = ops.predict(state) ? 1 : 0;
                           lut.nextTaken[s] = ops.next(state, true);
                           lut.nextNotTaken[s] =
                               ops.next(state, false);
                       }
                   });
    return luts;
}

} // namespace

TwoLevelPredictor::TwoLevelPredictor(const TwoLevelConfig &config)
    : config_(config),
      history_mask_(static_cast<std::uint32_t>(
          lowMask(config.historyBits))),
      pattern_table_(makePatternTable(config))
{
    initial_entry_.history =
        config_.initHistoryOnes ? history_mask_ : 0;
    initial_entry_.cachedPrediction =
        pattern_table_.predict(initial_entry_.history);
    hrt_ = makeHrt();
}

std::unique_ptr<HistoryTable<TwoLevelPredictor::HrtEntry>>
TwoLevelPredictor::makeHrt() const
{
    switch (config_.hrtKind) {
      case TableKind::Ideal:
        return std::make_unique<IdealTable<HrtEntry>>(
            initial_entry_);
      case TableKind::Associative:
        return std::make_unique<AssociativeTable<HrtEntry>>(
            config_.hrtEntries, config_.associativity,
            initial_entry_, config_.addrShift);
      case TableKind::Hashed:
        return std::make_unique<HashedTable<HrtEntry>>(
            config_.hrtEntries, initial_entry_, config_.addrShift,
            config_.hhrtHash);
    }
    tlat_panic("unhandled HRT kind");
}

std::string
TwoLevelPredictor::name() const
{
    // Table 2 notation: AT(AHRT(512,12SR),PT(2^12,A2),)
    const std::string hrt_part =
        config_.hrtKind == TableKind::Ideal
            ? format("IHRT(,%uSR)", config_.historyBits)
            : format("%s(%zu,%uSR)", tableKindName(config_.hrtKind),
                     config_.hrtEntries, config_.historyBits);
    const std::string entry =
        config_.counterBits > 0
            ? format("C%u", config_.counterBits)
            : std::string(automatonName(config_.automaton));
    return format("AT(%s,PT(2^%u,%s),)", hrt_part.c_str(),
                  config_.historyBits, entry.c_str());
}

TwoLevelPredictor::HrtEntry &
TwoLevelPredictor::lookup(std::uint64_t pc)
{
    if (last_entry_ && last_pc_ == pc)
        return *last_entry_;
    last_pc_ = pc;
    last_entry_ = &hrt_->lookup(pc);
    return *last_entry_;
}

bool
TwoLevelPredictor::predict(const trace::BranchRecord &record)
{
    HrtEntry &entry = lookup(record.pc);
    const bool prediction = config_.cachedPredictionBit
        ? entry.cachedPrediction
        : pattern_table_.predict(entry.history);
    if (config_.speculativeHistoryUpdate) {
        // Record the pre-speculation pattern, then shift the
        // predicted outcome in so younger fetches see fresh history.
        in_flight_[record.pc].push_back(
            Speculation{entry.history, prediction});
        entry.history = ((entry.history << 1) |
                         (prediction ? 1u : 0u)) &
                        history_mask_;
        if (config_.cachedPredictionBit) {
            entry.cachedPrediction =
                pattern_table_.predict(entry.history);
        }
    }
    return prediction;
}

void
TwoLevelPredictor::update(const trace::BranchRecord &record)
{
    HrtEntry &entry = lookup(record.pc);

    if (config_.speculativeHistoryUpdate) {
        const auto it = in_flight_.find(record.pc);
        if (it != in_flight_.end() && !it->second.empty()) {
            const Speculation speculation = it->second.front();
            it->second.pop_front();
            // delta on the pattern the prediction actually used.
            pattern_table_.update(speculation.pattern, record.taken);
            if (speculation.predicted != record.taken) {
                // Misprediction: the pipeline flushes. Repair the
                // register from the resolved outcome and squash the
                // younger speculations of this branch.
                entry.history = ((speculation.pattern << 1) |
                                 (record.taken ? 1u : 0u)) &
                                history_mask_;
                ++squash_events_;
                squashed_speculations_ += it->second.size();
                it->second.clear();
            }
            // Erase drained pcs: keeping empty deques would grow the
            // map by one node per static branch for the whole run.
            if (it->second.empty())
                in_flight_.erase(it);
            if (config_.cachedPredictionBit) {
                entry.cachedPrediction =
                    pattern_table_.predict(entry.history);
            }
            last_pc_ = ~std::uint64_t{0};
            last_entry_ = nullptr;
            return;
        }
        // No matching predict() (unpaired use): fall through to the
        // non-speculative path below.
    }

    // delta on the entry the *old* pattern indexes, then the history
    // register shifts in the outcome (paper Section 2.1).
    pattern_table_.update(entry.history, record.taken);
    entry.history = ((entry.history << 1) |
                     (record.taken ? 1u : 0u)) &
                    history_mask_;
    if (config_.cachedPredictionBit)
        entry.cachedPrediction = pattern_table_.predict(entry.history);
    // The memo only spans one predict/update pair — the next
    // execution of this branch is a fresh HRT access (LRU recency and
    // hit statistics must see it).
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

template <typename Source, AutomatonPolicy Ops>
void
TwoLevelPredictor::fusedBatch(Source &source, const Ops &ops,
                              AccuracyCounter &accuracy)
{
    // Flag loads hoisted out of the loop; the branches on them are
    // perfectly predicted. Everything else — the HRT probe, lambda,
    // delta — inlines through the concrete Source/Ops types.
    const bool cached = config_.cachedPredictionBit;
    const bool speculative = config_.speculativeHistoryUpdate;
    const std::uint32_t mask = history_mask_;

    source.forEach([&, cached, speculative, mask](HrtEntry &entry,
                                                  bool taken) {
        // One PT index computation serves both lambda and delta: the
        // prediction reads and the update writes the same entry (the
        // one the pre-shift history selects), so keep a reference.
        std::uint8_t &state = pattern_table_.stateAt(entry.history);
        const bool predicted =
            cached ? entry.cachedPrediction : ops.predict(state);
        accuracy.record(predicted == taken);

        if (speculative) {
            // Mirrors the predict()/update() pair exactly: the
            // speculative shift happens at "predict" time against the
            // pre-speculation pattern, then resolution updates delta
            // on that pattern and repairs the register on a
            // misprediction. With strictly paired calls the in-flight
            // deque holds exactly the one speculation we are about to
            // resolve, so the bookkeeping reduces to locals. The
            // cached-bit recomputes keep the reference ordering: the
            // first reads the PT *before* delta lands on the
            // speculated pattern, the second after.
            const std::uint32_t spec_pattern = entry.history;
            entry.history = ((entry.history << 1) |
                             (predicted ? 1u : 0u)) &
                            mask;
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
            state = ops.next(state, taken);
            if (predicted != taken) {
                entry.history = ((spec_pattern << 1) |
                                 (taken ? 1u : 0u)) &
                                mask;
                ++squash_events_;
            }
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
        } else {
            state = ops.next(state, taken);
            entry.history = ((entry.history << 1) |
                             (taken ? 1u : 0u)) &
                            mask;
            if (cached) {
                entry.cachedPrediction =
                    pattern_table_.predictWith(ops, entry.history);
            }
        }
    });
}

template <typename MakeSource>
bool
TwoLevelPredictor::fuse(MakeSource &&makeSource,
                        AccuracyCounter &accuracy)
{
    return visitAutomaton(
        config_.automaton, config_.counterBits,
        [&](const auto &ops) {
            visitTable(*hrt_, [&](auto &table) {
                auto source = makeSource(table);
                fusedBatch(source, ops, accuracy);
            });
        });
}

bool
TwoLevelPredictor::trySimdBatch(const trace::PredecodedView &view,
                                AccuracyCounter &accuracy)
{
    if (config_.cachedPredictionBit ||
        config_.speculativeHistoryUpdate)
        return false;
    if (util::simd::activeLevel() == util::simd::Level::Scalar)
        return false;
    const auto luts = buildFusedLuts(config_);
    if (!luts)
        return false;

    const trace::PredecodedTrace &soa = view.soa();
    const std::span<const trace::BranchId> ids = soa.branchIds();
    const std::size_t n = ids.size();
    auto &table = static_cast<IdealTable<HrtEntry> &>(*hrt_);
    if (n == 0)
        return true;

    // Prologue: resolve each unique pc exactly once, in id order —
    // ids are assigned at first appearance, so this is the order the
    // reference loop first touches them — then account the remaining
    // n - unique probes as repeat hits. Totals match the per-record
    // loop's probe statistics exactly.
    const std::span<const std::uint64_t> pcs = soa.uniquePcs();
    const std::size_t unique = pcs.size();
    std::vector<HrtEntry *> entries(unique);
    std::vector<std::uint32_t> history(unique);
    for (std::size_t id = 0; id < unique; ++id) {
        entries[id] = &table.lookupDirect(pcs[id]);
        history[id] = entries[id]->history;
    }
    table.noteRepeatHits(n - unique);

    // Non-speculative history evolution is prediction-independent, so
    // every record's PT index is known before simulating: replay the
    // shift registers, scalar, into a dense index lane. The replay is
    // tiled so the lane stays L1-resident between its write (here)
    // and its read (the kernel) instead of round-tripping an
    // n-record buffer through L2/L3; the tile is a multiple of 64
    // records so each kernel call still starts on an outcome-word
    // boundary (fusedPass indexes outcome bits from its own base).
    constexpr std::size_t kTile = 4096;
    static_assert(kTile % 64 == 0);
    const std::uint32_t mask = history_mask_;
    std::uint32_t lane[kTile + util::simd::kLaneSlack] = {};
    const std::uint64_t *outcome_words = soa.outcomeWords().data();
    std::uint8_t *capture = accuracy.captureCursor();
    std::uint64_t hits = 0;
    for (std::size_t base = 0; base < n; base += kTile) {
        const std::size_t count = std::min(kTile, n - base);
        for (std::size_t i = 0; i < count; ++i) {
            const trace::BranchId id = ids[base + i];
            lane[i] = history[id];
            history[id] = ((history[id] << 1) |
                           (soa.taken(base + i) ? 1u : 0u)) &
                          mask;
        }
        hits += util::simd::fusedPass(
            lane, outcome_words + base / 64, count,
            pattern_table_.statesData(), *luts,
            capture == nullptr ? nullptr : capture + base);
    }
    accuracy.recordBulk(hits, n);

    // Epilogue: final shift-register values back into the HRT.
    for (std::size_t id = 0; id < unique; ++id)
        entries[id]->history = history[id];
    return true;
}

void
TwoLevelPredictor::simulateBatch(const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    // Same unsafe-state guard as the AoS overload; delegating to the
    // AoS overload (which re-checks and defers to the reference loop)
    // keeps the fallback decision in exactly one place per overload.
    if (last_entry_ == nullptr && in_flight_.empty()) {
        if (config_.hrtKind == TableKind::Ideal &&
            trySimdBatch(view, accuracy))
            return;
        const trace::PredecodedTrace &soa = view.soa();
        if (fuse([&soa](auto &table) {
                return LaneSource(makeLaneProber(table, soa), soa);
            }, accuracy))
            return;
    }
    simulateBatch(view.records(), accuracy);
}

void
TwoLevelPredictor::simulateBatch(std::span<const trace::BranchRecord>
                                     records,
                                 AccuracyCounter &accuracy)
{
    // A live lookup memo (a predict() awaiting its update()) or
    // in-flight speculation means we are mid predict/update pair;
    // only the reference loop reproduces the memo'd probe accounting
    // exactly, so defer to it. The harness never hits this — it is a
    // guard for direct API users.
    if (last_entry_ == nullptr && in_flight_.empty() &&
        fuse([records](auto &table) {
            return RecordSource(table, records);
        }, accuracy))
        return;
    BranchPredictor::simulateBatch(records, accuracy);
}

void
TwoLevelPredictor::reset()
{
    pattern_table_.reset();
    hrt_->reset();
    in_flight_.clear();
    squash_events_ = 0;
    squashed_speculations_ = 0;
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

void
TwoLevelPredictor::collectMetrics(RunMetrics &metrics) const
{
    const TableStats &stats = hrt_->stats();
    metrics.hrtHits = stats.hits;
    metrics.hrtMisses = stats.misses;
    metrics.hrtEvictions = stats.evictions;
    metrics.hrtAliasedLookups = stats.aliasedLookups;
    metrics.ptStateHistogram = pattern_table_.stateHistogram();
    metrics.squashEvents = squash_events_;
    metrics.squashedSpeculations = squashed_speculations_;
    metrics.inFlightBranches = in_flight_.size();
}

namespace
{

// v2: TableStats gained eviction/aliasing counters and the HHRT
// serializes its per-slot last-line attribution state.
// v3: core/checkpoint.hh framing — end sentinel plus the
// fully-consumed check, and loads commit atomically.
constexpr std::uint32_t kCheckpointVersion = 3;

/** Geometry/behaviour fingerprint; checkpoints only restore onto an
 *  identically configured predictor. */
std::uint64_t
configFingerprint(const TwoLevelConfig &config)
{
    std::uint64_t fp = 0xf17e;
    const auto mixIn = [&fp](std::uint64_t value) {
        fp = mix64(fp ^ value);
    };
    mixIn(static_cast<std::uint64_t>(config.hrtKind));
    mixIn(config.hrtEntries);
    mixIn(config.associativity);
    mixIn(config.historyBits);
    mixIn(static_cast<std::uint64_t>(config.automaton));
    mixIn(config.counterBits);
    mixIn(config.cachedPredictionBit ? 1 : 0);
    mixIn(config.speculativeHistoryUpdate ? 1 : 0);
    mixIn(static_cast<std::uint64_t>(config.hhrtHash));
    mixIn(config.addrShift);
    return fp;
}

} // namespace

bool
TwoLevelPredictor::saveCheckpoint(std::ostream &os) const
{
    // Drained deques are erased in update(), so a non-empty map means
    // live speculation — and checkpointing requires none.
    if (!in_flight_.empty())
        return false;

    ckpt::writeHeader(os, kCheckpointVersion,
                      configFingerprint(config_));
    pattern_table_.saveState(os);
    hrt_->saveState(os, [](std::ostream &out, const HrtEntry &entry) {
        ckpt::putScalar(out, entry.history);
        ckpt::putScalar(out, static_cast<std::uint8_t>(
                                 entry.cachedPrediction ? 1 : 0));
    });
    ckpt::writeEnd(os);
    return static_cast<bool>(os);
}

bool
TwoLevelPredictor::loadCheckpoint(std::istream &is)
{
    if (!ckpt::readHeader(is, kCheckpointVersion,
                          configFingerprint(config_)))
        return false;
    // Parse the whole stream into same-geometry temporaries first;
    // the live tables are only touched by the commit below, so a
    // stream that fails anywhere — truncated mid-table, wrong
    // sentinel, trailing junk — leaves the predictor exactly as it
    // was.
    PatternTable pattern_table = pattern_table_;
    if (!pattern_table.loadState(is))
        return false;
    std::unique_ptr<HistoryTable<HrtEntry>> hrt = makeHrt();
    const bool loaded = hrt->loadState(
        is, [](std::istream &in, HrtEntry &entry) {
            std::uint8_t cached;
            if (!ckpt::getScalar(in, entry.history) ||
                !ckpt::getScalar(in, cached) || cached > 1)
                return false;
            entry.cachedPrediction = cached != 0;
            return true;
        });
    if (!loaded || !ckpt::readEnd(is))
        return false;

    pattern_table_ = std::move(pattern_table);
    hrt_ = std::move(hrt);
    in_flight_.clear();
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
    return true;
}

} // namespace tlat::core
