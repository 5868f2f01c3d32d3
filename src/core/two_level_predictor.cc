#include "two_level_predictor.hh"

#include <algorithm>
#include <initializer_list>
#include <istream>
#include <optional>
#include <ostream>
#include <type_traits>
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

/**
 * The trained family's preset bits through the fused body: lambda
 * reads the bit and delta keeps it, so no bit changes during a run.
 */
struct PresetBitOps
{
    bool predict(std::uint8_t bit) const { return bit != 0; }
    std::uint8_t next(std::uint8_t bit, bool) const { return bit; }
};

/** The engine's checkpoint layout; readHeader rejects any other
 *  version, so older engine bytes fail to load. */
constexpr std::uint32_t kCheckpointVersion = 4;

/** mix64 chain over every config field: a checkpoint restores only
 *  onto an identically configured engine. `data` joins the chain only
 *  when set, so the adaptive configs keep their fingerprints. */
std::uint64_t
configFingerprint(const TwoLevelConfig &c)
{
    const auto u = [](auto value) {
        return static_cast<std::uint64_t>(value);
    };
    std::uint64_t fp = 0x2e1c9;
    for (const std::uint64_t value :
         {u(c.historyScope), u(c.patternScope), u(c.hrtKind),
          u(c.hrtEntries), u(c.associativity), u(c.historyBits),
          u(c.automaton), u(c.counterBits), u(c.cachedPredictionBit),
          u(c.speculativeHistoryUpdate), u(c.hhrtHash),
          u(c.initHistoryOnes), u(c.automatonInitState), u(c.setBits),
          u(c.xorAddress), u(c.addrShift)})
        fp = mix64(fp ^ value);
    if (c.data != DataMode::None)
        fp = mix64(fp ^ u(c.data));
    return fp;
}

} // namespace

TwoLevelPredictor::TwoLevelPredictor(const TwoLevelConfig &config)
    : config_(config), spec_(&automatonSpec(config.automaton)),
      history_mask_(
          config.patternScope == PatternScope::InEntry
              ? 0
              : static_cast<std::uint32_t>(lowMask(config.historyBits)))
{
    const bool in_entry = config_.patternScope == PatternScope::InEntry;
    const bool per_address =
        config_.historyScope == HistoryScope::PerAddress;
    const bool trained = config_.data != DataMode::None;
    const bool at_placement = per_address &&
        config_.patternScope == PatternScope::Global &&
        !config_.xorAddress;
    family_ = trained ? Family::Trained
        : in_entry    ? Family::LeeSmith
        : at_placement ? Family::At
                       : Family::Taxonomy;

    tlat_assert(config_.setBits <= 12, "set bits out of range");
    tlat_assert(!config_.xorAddress ||
                    config_.historyScope == HistoryScope::Global,
                "xorAddress is a global-history (gshare) refinement");
    tlat_assert(!in_entry || per_address,
                "in-entry automata need per-address entries");
    tlat_assert(family_ != Family::Taxonomy || !per_address ||
                    config_.hrtKind == TableKind::Ideal,
                "taxonomy per-address history uses an IHRT");
    tlat_assert(!trained || at_placement ||
                    (in_entry && config_.hrtKind == TableKind::Ideal),
                "Static Training needs per-address history into a "
                "global table, Profile in-entry bits in an IHRT");
    tlat_assert(!trained || config_.automaton == AutomatonKind::LastTime,
                "preset bits are LastTime entries");
    tlat_assert(family_ == Family::At ||
                    (!config_.cachedPredictionBit &&
                     !config_.speculativeHistoryUpdate &&
                     config_.counterBits == 0 &&
                     config_.hhrtHash == HashKind::LowBits &&
                     config_.initHistoryOnes &&
                     config_.automatonInitState < 0),
                "cached, speculative, counter, hash and init options "
                "need per-address history into a global table");

    if (!in_entry) {
        const std::size_t count =
            config_.patternScope == PatternScope::PerSet
                ? std::size_t{1} << config_.setBits
                : 1;
        if (config_.patternScope != PatternScope::PerAddress)
            tables_.assign(count, makePatternTable(config_));
        table_mask_ = static_cast<std::uint32_t>(count - 1);
    }
    if (trained && !in_entry)
        tallies_.resize(tables_.front().size());

    initial_entry_.history =
        config_.initHistoryOnes ? history_mask_ : 0;
    if (!tables_.empty()) {
        initial_entry_.cachedPrediction =
            tables_.front().predict(initial_entry_.history);
    }
    initial_entry_.state = spec_->initialState;
    if (!per_address) {
        const unsigned bits =
            config_.historyScope == HistoryScope::PerSet ? config_.setBits
                                                         : 0;
        registers_.assign(std::size_t{1} << bits, initial_entry_);
    }
    hrt_ = makeHrt();
}

std::optional<AnyHistoryTable<TwoLevelPredictor::HrtEntry>>
TwoLevelPredictor::makeHrt() const
{
    if (config_.historyScope != HistoryScope::PerAddress)
        return std::nullopt;
    return makeHistoryTable(config_.hrtKind, config_.hrtEntries,
                            config_.associativity, initial_entry_,
                            config_.addrShift, config_.hhrtHash);
}

std::string
TwoLevelPredictor::name() const
{
    const auto hrtPart = [this](const std::string &content) {
        return config_.hrtKind == TableKind::Ideal
            ? format("IHRT(,%s)", content.c_str())
            : format("%s(%zu,%s)", tableKindName(config_.hrtKind),
                     config_.hrtEntries, content.c_str());
    };
    const char *automaton = automatonName(config_.automaton);
    switch (family_) {
      case Family::At: {
        // Table 2 notation: AT(AHRT(512,12SR),PT(2^12,A2),)
        const std::string entry = config_.counterBits > 0
            ? format("C%u", config_.counterBits)
            : std::string(automaton);
        return format("AT(%s,PT(2^%u,%s),)",
                      hrtPart(format("%uSR", config_.historyBits))
                          .c_str(),
                      config_.historyBits, entry.c_str());
      }
      case Family::Trained:
        if (config_.patternScope == PatternScope::InEntry)
            return "Profile";
        return format("ST(%s,PT(2^%u,PB),%s)",
                      hrtPart(format("%uSR", config_.historyBits))
                          .c_str(),
                      config_.historyBits,
                      config_.data == DataMode::Diff ? "Diff" : "Same");
      case Family::LeeSmith:
        return format("LS(%s,,)", hrtPart(automaton).c_str());
      case Family::Taxonomy:
        break;
    }
    // Global history into one global table, xor-indexed, is gshare:
    // report it by its scheme name so the name parses back.
    if (config_.historyScope == HistoryScope::Global &&
        config_.patternScope == PatternScope::Global &&
        config_.xorAddress) {
        return format("GSH(%u,%s)", config_.historyBits, automaton);
    }
    const char history_letter = "GPS"[static_cast<int>(
        config_.historyScope)];
    const char pattern_letter = "gsp"[static_cast<int>(
        config_.patternScope)];
    return format("%cA%c(%u,%s)%s", history_letter, pattern_letter,
                  config_.historyBits, automaton,
                  config_.xorAddress ? "+xor" : "");
}

TwoLevelPredictor::HrtEntry &
TwoLevelPredictor::lookup(std::uint64_t pc)
{
    if (last_entry_ && last_pc_ == pc)
        return *last_entry_;
    last_pc_ = pc;
    last_entry_ = hrt_ ? &probeHrt(pc)
                       : &registers_[(pc >> config_.addrShift) &
                                     (registers_.size() - 1)];
    return *last_entry_;
}

TwoLevelPredictor::HrtEntry &
TwoLevelPredictor::probeHrt(std::uint64_t pc)
{
    return std::visit(
        [pc](auto &table) -> HrtEntry & { return table.lookup(pc); },
        *hrt_);
}

PatternTable &
TwoLevelPredictor::addressTable(std::uint64_t pc)
{
    auto it = address_tables_.find(pc);
    if (it == address_tables_.end())
        it = address_tables_.emplace(pc, makePatternTable(config_)).first;
    return it->second;
}


std::uint32_t
TwoLevelPredictor::xorTermFor(std::uint64_t pc) const
{
    if (!config_.xorAddress)
        return 0;
    return static_cast<std::uint32_t>(pc >> config_.addrShift) &
           history_mask_;
}

bool
TwoLevelPredictor::predict(const trace::BranchRecord &record)
{
    HrtEntry &entry = lookup(record.pc);
    const bool prediction = config_.cachedPredictionBit
        ? entry.cachedPrediction
        : config_.patternScope == PatternScope::InEntry
        ? spec_->predictTaken[entry.state]
        : tableFor(record.pc)
              .predict(entry.history ^ xorTermFor(record.pc));
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
                tables_.front().predict(entry.history);
        }
    }
    return prediction;
}

void
TwoLevelPredictor::update(const trace::BranchRecord &record)
{
    HrtEntry &entry = lookup(record.pc);

    // The cached bit and speculation only occur with one global
    // pattern table.
    if (config_.speculativeHistoryUpdate) {
        const auto it = in_flight_.find(record.pc);
        if (it != in_flight_.end() && !it->second.empty()) {
            const Speculation speculation = it->second.front();
            it->second.pop_front();
            // delta on the pattern the prediction actually used.
            tables_.front().update(speculation.pattern, record.taken);
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
                    tables_.front().predict(entry.history);
            }
            last_pc_ = ~std::uint64_t{0};
            last_entry_ = nullptr;
            return;
        }
        // No matching predict() (unpaired use): fall through to the
        // non-speculative path below.
    }

    // delta on the entry the *old* pattern indexes (none on preset
    // bits), then the history register shifts in the outcome (paper
    // Section 2.1).
    if (family_ == Family::Trained) {
        // Preset bits are frozen.
    } else if (config_.patternScope == PatternScope::InEntry) {
        entry.state = spec_->nextState[entry.state][record.taken ? 1 : 0];
    } else {
        tableFor(record.pc)
            .update(entry.history ^ xorTermFor(record.pc),
                    record.taken);
    }
    entry.history = ((entry.history << 1) |
                     (record.taken ? 1u : 0u)) &
                    history_mask_;
    if (config_.cachedPredictionBit)
        entry.cachedPrediction = tables_.front().predict(entry.history);
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
    // perfectly predicted. Everything else — the HRT probe, the
    // pattern index, lambda, delta — inlines through the concrete
    // Source/Ops types. The placement settles two flags at compile
    // time: the cached bit and speculation only occur with one
    // global pattern table, and in-entry automata keep no history.
    using Placement = typename Source::PlacementType;
    constexpr bool kGlobalTable =
        std::is_same_v<Placement, GlobalPlacement>;
    constexpr bool kHistory = !std::is_same_v<Placement, InEntryPlacement>;
    const bool cached = kGlobalTable && config_.cachedPredictionBit;
    const bool speculative =
        kGlobalTable && config_.speculativeHistoryUpdate;
    const std::uint32_t mask = history_mask_;
    PatternTable *global =
        tables_.empty() ? nullptr : &tables_.front();

    source.forEach([&, cached, speculative, mask](
                       HrtEntry &entry, std::uint8_t &state,
                       bool taken) {
        // One pattern index serves both lambda and delta: the
        // prediction reads and the update writes the same entry (the
        // one the pre-shift history selects).
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
                    global->predictWith(ops, entry.history);
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
                    global->predictWith(ops, entry.history);
            }
        } else {
            state = ops.next(state, taken);
            if constexpr (kHistory) {
                entry.history = ((entry.history << 1) |
                                 (taken ? 1u : 0u)) &
                                mask;
            }
            if (cached) {
                entry.cachedPrediction =
                    global->predictWith(ops, entry.history);
            }
        }
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
    auto &table = std::get<IdealTable<HrtEntry>>(*hrt_);
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
        entries[id] = &table.lookup(pcs[id]);
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
            tables_.front().statesData(), *luts,
            capture == nullptr ? nullptr : capture + base);
    }
    accuracy.recordBulk(hits, n);

    // Epilogue: final shift-register values back into the HRT.
    for (std::size_t id = 0; id < unique; ++id)
        entries[id]->history = history[id];
    return true;
}

template <typename F>
void
TwoLevelPredictor::visitProber(const trace::PredecodedTrace &soa, F &&f)
{
    if (!hrt_) {
        f(RegisterLaneProber<HrtEntry>(registers_, config_.addrShift, soa));
        return;
    }
    std::visit([&](auto &table) { f(makeLaneProber(table, soa)); }, *hrt_);
}

template <typename F>
void
TwoLevelPredictor::visitPlacement(const trace::PredecodedTrace &soa,
                                  F &&f)
{
    if (config_.patternScope == PatternScope::InEntry) {
        f(InEntryPlacement{});
    } else if (config_.patternScope == PatternScope::Global &&
               !config_.xorAddress) {
        f(GlobalPlacement(tables_.front()));
    } else {
        f(ScopedPlacement(soa, [this](std::uint64_t pc) {
            return ScopedPlacement::Scope{&tableFor(pc),
                                          xorTermFor(pc)};
        }));
    }
}

void
TwoLevelPredictor::simulateBatch(const trace::PredecodedView &view,
                                 AccuracyCounter &accuracy)
{
    // A live lookup memo (a predict() awaiting its update()) or
    // in-flight speculation means we are mid predict/update pair;
    // only the reference loop reproduces the memo'd probe accounting
    // exactly, so defer to it. The harness never hits this — it is a
    // guard for direct API users.
    if (last_entry_ == nullptr && in_flight_.empty()) {
        if (family_ == Family::At &&
            config_.hrtKind == TableKind::Ideal &&
            trySimdBatch(view, accuracy))
            return;
        // One fused body per (pattern policy, first-level prober,
        // placement). The policy is the trained family's frozen bits
        // or the automaton's; visitAutomaton returns false, having
        // touched nothing, when the automaton has none.
        const trace::PredecodedTrace &soa = view.soa();
        const auto run = [&](const auto &ops) {
            visitProber(soa, [&](auto prober) {
                visitPlacement(soa, [&](auto placement) {
                    LaneSource source(std::move(prober),
                                      std::move(placement), soa);
                    fusedBatch(source, ops, accuracy);
                });
            });
        };
        if (family_ == Family::Trained) {
            run(PresetBitOps{});
            return;
        }
        if (visitAutomaton(config_.automaton, config_.counterBits, run))
            return;
    }
    BranchPredictor::simulateBatch(view.records(), accuracy);
}

void
TwoLevelPredictor::train(const trace::TraceBuffer &trace)
{
    if (family_ != Family::Trained)
        return;
    if (config_.patternScope == PatternScope::InEntry) {
        // Profile: each branch's own outcomes.
        for (const trace::BranchRecord &record : trace.conditionalView()) {
            Tally &tally = branch_tallies_[record.pc];
            ++(record.taken ? tally.taken : tally.notTaken);
        }
        presetFromTallies();
        return;
    }
    // Software profiling: ideal per-branch histories, whatever the
    // run-time HRT. Histories start all-ones like the HRT.
    std::unordered_map<std::uint64_t, std::uint32_t> histories;
    for (const trace::BranchRecord &record : trace.conditionalView()) {
        std::uint32_t &history =
            histories.try_emplace(record.pc, history_mask_).first->second;
        Tally &tally = tallies_[history];
        ++(record.taken ? tally.taken : tally.notTaken);
        history =
            ((history << 1) | (record.taken ? 1u : 0u)) & history_mask_;
    }
    presetFromTallies();
}

void
TwoLevelPredictor::presetFromTallies()
{
    // Ties, never-seen patterns and never-seen branches predict taken
    // (the 60% prior, and the entries' initial state).
    const auto bit = [](const Tally &tally) -> std::uint8_t {
        return tally.taken >= tally.notTaken ? 1 : 0;
    };
    if (config_.patternScope == PatternScope::InEntry) {
        auto &table = std::get<IdealTable<HrtEntry>>(*hrt_);
        for (const auto *item : ckpt::sortedByPc(branch_tallies_))
            table.entry(item->first).state = bit(item->second);
        return;
    }
    PatternTable &table = tables_.front();
    for (std::uint32_t pattern = 0; pattern < tallies_.size(); ++pattern)
        table.stateAt(pattern) = bit(tallies_[pattern]);
}

void
TwoLevelPredictor::reset()
{
    for (PatternTable &table : tables_)
        table.reset();
    tallies_.assign(tallies_.size(), Tally{});
    branch_tallies_.clear();
    address_tables_.clear();
    registers_.assign(registers_.size(), initial_entry_);
    if (hrt_)
        std::visit([](auto &table) { table.reset(); }, *hrt_);
    in_flight_.clear();
    squash_events_ = 0;
    squashed_speculations_ = 0;
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
}

void
TwoLevelPredictor::collectMetrics(RunMetrics &metrics) const
{
    if (family_ == Family::Taxonomy || family_ == Family::Trained)
        return;
    const TableStats &stats = hrtStats();
    metrics.hrtHits = stats.hits;
    metrics.hrtMisses = stats.misses;
    metrics.hrtEvictions = stats.evictions;
    metrics.hrtAliasedLookups = stats.aliasedLookups;
    if (family_ == Family::LeeSmith)
        return;
    metrics.ptStateHistogram = tables_.front().stateHistogram();
    metrics.squashEvents = squash_events_;
    metrics.squashedSpeculations = squashed_speculations_;
    metrics.inFlightBranches = in_flight_.size();
}

bool
TwoLevelPredictor::saveCheckpoint(std::ostream &os) const
{
    // Drained deques are erased in update(), so a non-empty map means
    // live speculation — and checkpointing requires none.
    if (!in_flight_.empty())
        return false;

    const auto save_entry = [](std::ostream &out, const HrtEntry &entry) {
        ckpt::putScalar(out, entry.history);
        ckpt::putScalar(out, static_cast<std::uint8_t>(
                                 entry.cachedPrediction ? 1 : 0));
        ckpt::putScalar(out, entry.state);
    };
    const auto save_table = [](std::ostream &out,
                               const PatternTable &table) {
        table.saveState(out);
    };
    const auto save_tally = [](std::ostream &out, const Tally &tally) {
        ckpt::putScalar(out, tally.taken);
        ckpt::putScalar(out, tally.notTaken);
    };
    // Each section is present exactly when the placement holds its
    // state: registers or an HRT; fixed tables (ST: the tallies that
    // preset them), per-address tables, or neither (in-entry state;
    // Profile: the per-branch tallies that preset it).
    ckpt::writeHeader(os, kCheckpointVersion, configFingerprint(config_));
    if (!registers_.empty())
        ckpt::writeCounted(os, registers_, save_entry);
    if (hrt_) {
        std::visit([&](const auto &table) { table.saveState(os, save_entry); },
                   *hrt_);
    }
    if (!tallies_.empty())
        ckpt::writeCounted(os, tallies_, save_tally);
    else if (!tables_.empty())
        ckpt::writeCounted(os, tables_, save_table);
    else if (config_.data != DataMode::None)
        ckpt::writeSorted(os, branch_tallies_, save_tally);
    if (config_.patternScope == PatternScope::PerAddress)
        ckpt::writeSorted(os, address_tables_, save_table);
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
    // stream that fails anywhere — truncated mid-table, out-of-range
    // state, wrong sentinel, trailing junk — leaves the predictor
    // exactly as it was.
    std::optional<AnyHistoryTable<HrtEntry>> hrt = makeHrt();
    std::vector<HrtEntry> registers = registers_;
    std::vector<PatternTable> tables = tables_;
    std::vector<Tally> tallies(tallies_.size());
    std::unordered_map<std::uint64_t, Tally> branch_tallies;
    PatternTables address_tables;
    const std::uint32_t mask = history_mask_;
    const unsigned states = spec_->numStates;
    const auto load_entry = [mask, states](std::istream &in,
                                           HrtEntry &entry) {
        std::uint8_t cached = 0;
        if (!ckpt::getScalar(in, entry.history) ||
            (entry.history & ~mask) != 0 ||
            !ckpt::getScalar(in, cached) || cached > 1 ||
            !ckpt::getScalar(in, entry.state) || entry.state >= states)
            return false;
        entry.cachedPrediction = cached != 0;
        return true;
    };
    const auto load_table = [](std::istream &in, PatternTable &table) {
        return table.loadState(in);
    };
    const auto load_tally = [](std::istream &in, Tally &tally) {
        return ckpt::getScalar(in, tally.taken) &&
               ckpt::getScalar(in, tally.notTaken);
    };
    // A branch is tallied only once it was seen, so no save writes an
    // all-zero branch tally.
    const auto load_branch_tally = [&](std::uint64_t pc) {
        Tally tally;
        if (!load_tally(is, tally) || (tally.taken | tally.notTaken) == 0)
            return false;
        branch_tallies.emplace(pc, tally);
        return true;
    };
    const auto load_fixed = [&] {
        if (!tallies.empty())
            return ckpt::readCounted(is, tallies, load_tally);
        if (!tables.empty())
            return ckpt::readCounted(is, tables, load_table);
        return config_.data == DataMode::None ||
               ckpt::readSorted(is, load_branch_tally);
    };
    const auto load_address_table = [&](std::uint64_t pc) {
        PatternTable table = makePatternTable(config_);
        if (!table.loadState(is))
            return false;
        address_tables.emplace(pc, std::move(table));
        return true;
    };
    if ((!registers.empty() &&
         !ckpt::readCounted(is, registers, load_entry)) ||
        (hrt && !std::visit(
                    [&](auto &table) {
                        return table.loadState(is, load_entry);
                    },
                    *hrt)) ||
        !load_fixed() ||
        (config_.patternScope == PatternScope::PerAddress &&
         !ckpt::readSorted(is, load_address_table)) ||
        !ckpt::readEnd(is))
        return false;

    tables_ = std::move(tables);
    tallies_ = std::move(tallies);
    branch_tallies_ = std::move(branch_tallies);
    address_tables_ = std::move(address_tables);
    hrt_ = std::move(hrt);
    registers_ = std::move(registers);
    if (config_.data != DataMode::None)
        presetFromTallies();
    in_flight_.clear();
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
    return true;
}

} // namespace tlat::core
