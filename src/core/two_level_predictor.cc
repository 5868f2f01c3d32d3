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
    family_ = in_entry ? Family::LeeSmith
        : per_address && config_.patternScope == PatternScope::Global &&
                !config_.xorAddress
            ? Family::At
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

std::unique_ptr<HistoryTable<TwoLevelPredictor::HrtEntry>>
TwoLevelPredictor::makeHrt() const
{
    if (config_.historyScope != HistoryScope::PerAddress)
        return nullptr;
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
    last_entry_ = hrt_ ? &hrt_->lookup(pc)
                       : &registers_[(pc >> config_.addrShift) &
                                     (registers_.size() - 1)];
    return *last_entry_;
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

    // delta on the entry the *old* pattern indexes, then the history
    // register shifts in the outcome (paper Section 2.1).
    if (config_.patternScope == PatternScope::InEntry) {
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
    if (hrt_ == nullptr) {
        f(RegisterLaneProber<HrtEntry>(registers_, config_.addrShift, soa));
        return;
    }
    visitTable(*hrt_,
               [&](auto &table) { f(makeLaneProber(table, soa)); });
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
        // One fused body per (automaton, first-level prober,
        // placement); false, having touched nothing, when the
        // automaton has no policy.
        const trace::PredecodedTrace &soa = view.soa();
        if (visitAutomaton(
                config_.automaton, config_.counterBits,
                [&](const auto &ops) {
                    visitProber(soa, [&](auto prober) {
                        visitPlacement(soa, [&](auto placement) {
                            LaneSource source(std::move(prober),
                                              std::move(placement), soa);
                            fusedBatch(source, ops, accuracy);
                        });
                    });
                }))
            return;
    }
    BranchPredictor::simulateBatch(view.records(), accuracy);
}

void
TwoLevelPredictor::reset()
{
    for (PatternTable &table : tables_)
        table.reset();
    address_tables_.clear();
    registers_.assign(registers_.size(), initial_entry_);
    if (hrt_)
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
    if (family_ == Family::Taxonomy)
        return;
    const TableStats &stats = hrt_->stats();
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

// AT v2: TableStats gained eviction/aliasing counters and the HHRT
// serializes its per-slot last-line attribution state.
// AT v3: core/checkpoint.hh framing — end sentinel plus the
// fully-consumed check, and loads commit atomically.
std::uint32_t
TwoLevelPredictor::checkpointVersion() const
{
    return family_ == Family::At ? 3 : 1;
}

/** Geometry/behaviour fingerprint, salted per family (0xf17e = AT,
 *  0x15b7b = LS, 0x6e2a1 = taxonomy); checkpoints only restore onto
 *  an identically configured predictor. */
std::uint64_t
TwoLevelPredictor::configFingerprint() const
{
    const TwoLevelConfig &c = config_;
    std::uint64_t fp = 0;
    const auto mixIn = [&fp](std::initializer_list<std::uint64_t> values) {
        for (const std::uint64_t value : values)
            fp = mix64(fp ^ value);
    };
    const auto u = [](auto value) {
        return static_cast<std::uint64_t>(value);
    };
    switch (family_) {
      case Family::At:
        fp = 0xf17e;
        mixIn({u(c.hrtKind), c.hrtEntries, c.associativity,
               c.historyBits, u(c.automaton), c.counterBits,
               u(c.cachedPredictionBit), u(c.speculativeHistoryUpdate),
               u(c.hhrtHash), c.addrShift});
        break;
      case Family::LeeSmith:
        fp = 0x15b7b;
        mixIn({u(c.hrtKind), c.hrtEntries, c.associativity,
               u(c.automaton), c.addrShift});
        break;
      case Family::Taxonomy:
        fp = 0x6e2a1;
        mixIn({u(c.historyScope), u(c.patternScope), c.historyBits,
               u(c.automaton), c.setBits, u(c.xorAddress),
               c.addrShift});
        break;
    }
    return fp;
}

bool
TwoLevelPredictor::saveCheckpoint(std::ostream &os) const
{
    // Drained deques are erased in update(), so a non-empty map means
    // live speculation — and checkpointing requires none.
    if (!in_flight_.empty())
        return false;

    ckpt::writeHeader(os, checkpointVersion(), configFingerprint());
    switch (family_) {
      case Family::At:
        tables_.front().saveState(os);
        hrt_->saveState(os, [](std::ostream &out, const HrtEntry &entry) {
            ckpt::putScalar(out, entry.history);
            ckpt::putScalar(out, static_cast<std::uint8_t>(
                                     entry.cachedPrediction ? 1 : 0));
        });
        break;
      case Family::LeeSmith:
        hrt_->saveState(os, [](std::ostream &out, const HrtEntry &entry) {
            ckpt::putScalar(out, entry.state);
        });
        break;
      case Family::Taxonomy:
        saveScopes(os);
        break;
    }
    ckpt::writeEnd(os);
    return static_cast<bool>(os);
}

void
TwoLevelPredictor::saveScopes(std::ostream &os) const
{
    // The registers: the global one, the per-set ones, then the
    // per-address ones as a pc-sorted projection. A scope the config
    // does not use writes the initial global register or no entries.
    const bool global = config_.historyScope == HistoryScope::Global;
    ckpt::putScalar(os, global ? registers_.front().history
                               : initial_entry_.history);
    const std::size_t sets =
        config_.historyScope == HistoryScope::PerSet ? registers_.size()
                                                     : 0;
    ckpt::putScalar(os, static_cast<std::uint64_t>(sets));
    for (std::size_t i = 0; i < sets; ++i)
        ckpt::putScalar(os, registers_[i].history);
    if (hrt_) {
        const auto &ideal = static_cast<const IdealTable<HrtEntry> &>(*hrt_);
        ckpt::putScalar(os, static_cast<std::uint64_t>(ideal.size()));
        ideal.forEachOrdered([&os](std::uint64_t pc, const HrtEntry &entry) {
            ckpt::putScalar(os, pc);
            ckpt::putScalar(os, entry.history);
        });
    } else {
        ckpt::putScalar(os, std::uint64_t{0});
    }

    ckpt::putScalar(os, static_cast<std::uint64_t>(tables_.size()));
    for (const PatternTable &table : tables_)
        table.saveState(os);
    std::vector<std::pair<std::uint64_t, const PatternTable *>> tables;
    tables.reserve(address_tables_.size());
    for (const auto &[pc, table] : address_tables_)
        tables.emplace_back(pc, &table);
    std::sort(tables.begin(), tables.end());
    ckpt::putScalar(os, static_cast<std::uint64_t>(tables.size()));
    for (const auto &[pc, table] : tables) {
        ckpt::putScalar(os, pc);
        table->saveState(os);
    }
}

bool
TwoLevelPredictor::loadCheckpoint(std::istream &is)
{
    if (!ckpt::readHeader(is, checkpointVersion(), configFingerprint()))
        return false;
    // Parse the whole stream into same-geometry temporaries first;
    // the live tables are only touched by the commit below, so a
    // stream that fails anywhere — truncated mid-table, out-of-range
    // state, wrong sentinel, trailing junk — leaves the predictor
    // exactly as it was.
    std::unique_ptr<HistoryTable<HrtEntry>> hrt = makeHrt();
    std::vector<HrtEntry> registers = registers_;
    std::vector<PatternTable> tables = tables_;
    PatternTables address_tables;
    const std::uint32_t mask = history_mask_;
    const unsigned states = spec_->numStates;
    bool loaded = false;
    switch (family_) {
      case Family::At:
        loaded = tables.front().loadState(is) &&
                 hrt->loadState(is, [mask](std::istream &in,
                                           HrtEntry &entry) {
                     std::uint8_t cached;
                     if (!ckpt::getScalar(in, entry.history) ||
                         (entry.history & ~mask) != 0 ||
                         !ckpt::getScalar(in, cached) || cached > 1)
                         return false;
                     entry.cachedPrediction = cached != 0;
                     return true;
                 });
        break;
      case Family::LeeSmith:
        loaded = hrt->loadState(is, [states](std::istream &in,
                                             HrtEntry &entry) {
            return ckpt::getScalar(in, entry.state) &&
                   entry.state < states;
        });
        break;
      case Family::Taxonomy:
        loaded =
            loadScopes(is, registers, hrt.get(), tables, address_tables);
        break;
    }
    if (!loaded || !ckpt::readEnd(is))
        return false;

    tables_ = std::move(tables);
    address_tables_ = std::move(address_tables);
    hrt_ = std::move(hrt);
    registers_ = std::move(registers);
    in_flight_.clear();
    last_pc_ = ~std::uint64_t{0};
    last_entry_ = nullptr;
    return true;
}

bool
TwoLevelPredictor::loadScopes(std::istream &is,
                              std::vector<HrtEntry> &registers,
                              HistoryTable<HrtEntry> *hrt,
                              std::vector<PatternTable> &tables,
                              PatternTables &address_tables) const
{
    const auto getHistory = [&is, this](std::uint32_t &history) {
        return ckpt::getScalar(is, history) &&
               (history & ~history_mask_) == 0;
    };
    // A pc-sorted, count-prefixed section of at most 2^32 items.
    const auto getSorted = [&is](bool used, const auto &getItem) {
        std::uint64_t count = 0;
        if (!ckpt::getScalar(is, count) || (count != 0 && !used) ||
            count > (std::uint64_t{1} << 32))
            return false;
        std::uint64_t previous_pc = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t pc = 0;
            if (!ckpt::getScalar(is, pc) || (i > 0 && pc <= previous_pc) ||
                !getItem(pc))
                return false;
            previous_pc = pc;
        }
        return true;
    };

    std::uint32_t global = 0;
    if (!getHistory(global))
        return false;
    if (config_.historyScope == HistoryScope::Global)
        registers.front().history = global;
    else if (global != initial_entry_.history)
        return false;
    std::uint64_t sets = 0;
    if (!ckpt::getScalar(is, sets) ||
        sets != (config_.historyScope == HistoryScope::PerSet
                     ? registers.size()
                     : 0))
        return false;
    for (std::uint64_t i = 0; i < sets; ++i) {
        if (!getHistory(registers[i].history))
            return false;
    }
    if (!getSorted(hrt != nullptr, [&](std::uint64_t pc) {
            return getHistory(
                static_cast<IdealTable<HrtEntry> &>(*hrt).insert(pc).history);
        }))
        return false;

    std::uint64_t fixed = 0;
    if (!ckpt::getScalar(is, fixed) || fixed != tables.size())
        return false;
    for (PatternTable &table : tables) {
        if (!table.loadState(is))
            return false;
    }
    return getSorted(config_.patternScope == PatternScope::PerAddress,
                     [&](std::uint64_t pc) {
                         PatternTable table = makePatternTable(config_);
                         return table.loadState(is) &&
                                address_tables.emplace(pc, std::move(table))
                                    .second;
                     });
}

} // namespace tlat::core
