/**
 * @file
 * The global pattern table (PT): the second level of Two-Level
 * Adaptive Training.
 *
 * One entry per possible history pattern (2^k entries for k history
 * bits); every entry holds the state of one pattern-history automaton.
 * All branches share this table — the paper calls it a *global*
 * pattern table because every history register indexes into the same
 * array.
 */

#ifndef TLAT_CORE_PATTERN_TABLE_HH
#define TLAT_CORE_PATTERN_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "automaton.hh"
#include "util/logging.hh"
#include "util/simd.hh"

namespace tlat::core
{

/**
 * 2^k-entry table of pattern-history state.
 *
 * Entries are either one of the paper's Figure 2 automata, or — as
 * an extension — an n-bit saturating up/down counter (predict taken
 * in the upper half of the range; the 2-bit counter is exactly A2).
 */
class PatternTable
{
  public:
    /**
     * Automaton-entry table (the paper's configurations).
     *
     * @param history_bits History register length k (1..24).
     * @param kind Automaton stored in each entry.
     * @param initial_state Initial automaton state; defaults to the
     *        paper's taken-biased initialization (Section 4.2).
     */
    PatternTable(unsigned history_bits, AutomatonKind kind,
                 std::int32_t initial_state = -1)
        : history_bits_(history_bits), kind_(kind)
    {
        tlat_assert(history_bits >= 1 && history_bits <= 24,
                    "history length out of range: ", history_bits);
        const auto &spec = automatonSpec(kind);
        initial_state_ =
            initial_state < 0
                ? spec.initialState
                : static_cast<std::uint8_t>(initial_state);
        tlat_assert(initial_state_ < spec.numStates,
                    "initial state out of range");
        states_.assign((std::size_t{1} << history_bits) +
                           util::simd::kGatherSlackBytes,
                       initial_state_);
    }

    /** Tag type selecting the counter-entry constructor. */
    struct CounterEntries
    {
        unsigned bits;
    };

    /**
     * Counter-entry table (extension): each entry is a
     * @p counter.bits wide saturating up/down counter, initialized
     * taken-biased (saturated high, matching Section 4.2's policy).
     */
    PatternTable(unsigned history_bits, CounterEntries counter)
        : history_bits_(history_bits), counter_bits_(counter.bits)
    {
        tlat_assert(history_bits >= 1 && history_bits <= 24,
                    "history length out of range: ", history_bits);
        tlat_assert(counter.bits >= 1 && counter.bits <= 8,
                    "counter width out of range: ", counter.bits);
        initial_state_ = static_cast<std::uint8_t>(
            (1u << counter_bits_) - 1);
        states_.assign((std::size_t{1} << history_bits) +
                           util::simd::kGatherSlackBytes,
                       initial_state_);
    }

    /** lambda applied to the entry indexed by @p pattern. */
    bool
    predict(std::uint32_t pattern) const
    {
        const std::uint8_t state = states_[index(pattern)];
        if (counter_bits_ > 0)
            return state >= (1u << (counter_bits_ - 1));
        return spec().predictTaken[state];
    }

    /** delta applied to the entry indexed by @p pattern. */
    void
    update(std::uint32_t pattern, bool taken)
    {
        std::uint8_t &state = states_[index(pattern)];
        if (counter_bits_ > 0) {
            const std::uint8_t max = static_cast<std::uint8_t>(
                (1u << counter_bits_) - 1);
            if (taken && state < max)
                ++state;
            else if (!taken && state > 0)
                --state;
            return;
        }
        state = spec().nextState[state][taken ? 1 : 0];
    }

    /**
     * lambda through a compile-time policy (AutomatonOps<K> or
     * CounterOps) — the fused simulation loop's devirtualized twin of
     * predict(). The caller must pass the policy matching this
     * table's entry kind; behaviour is then bit-identical to
     * predict().
     */
    template <AutomatonPolicy Ops>
    bool
    predictWith(const Ops &ops, std::uint32_t pattern) const
    {
        return ops.predict(states_[index(pattern)]);
    }

    /** delta through a compile-time policy; twin of update(). */
    template <AutomatonPolicy Ops>
    void
    updateWith(const Ops &ops, std::uint32_t pattern, bool taken)
    {
        std::uint8_t &state = states_[index(pattern)];
        state = ops.next(state, taken);
    }

    /**
     * Direct entry access for the fused loop: index once, then apply
     * lambda and delta to the same reference — equivalent to
     * predictWith() followed by updateWith() on the same pattern,
     * minus the second index computation.
     */
    std::uint8_t &
    stateAt(std::uint32_t pattern)
    {
        return states_[index(pattern)];
    }

    /** Raw state of one entry (tests, inspection). */
    std::uint8_t
    state(std::uint32_t pattern) const
    {
        return states_[index(pattern)];
    }

    std::size_t size() const { return std::size_t{1} << history_bits_; }

    /**
     * Raw entry storage for the SIMD fused pass (util/simd.hh). The
     * array extends util::simd::kGatherSlackBytes past the last real
     * entry so a scale-1 dword gather at the highest index stays in
     * bounds; the slack bytes are never real entries — size(),
     * checkpoints and the histogram all use the logical 2^k count.
     */
    std::uint8_t *statesData() { return states_.data(); }
    unsigned historyBits() const { return history_bits_; }
    AutomatonKind automatonKind() const { return kind_; }

    /** Counter width, or 0 for automaton-entry tables. */
    unsigned counterBits() const { return counter_bits_; }

    /** Distinct states an entry can be in. */
    unsigned
    statesPerEntry() const
    {
        return counter_bits_ > 0 ? (1u << counter_bits_)
                                 : automatonSpec(kind_).numStates;
    }

    /**
     * Occupancy histogram: element i counts entries currently in
     * state i (sums to size()). Computed on demand — a pure snapshot
     * of the table, costing nothing during the measured run.
     */
    std::vector<std::uint64_t>
    stateHistogram() const
    {
        std::vector<std::uint64_t> histogram(statesPerEntry(), 0);
        for (std::size_t i = 0; i < size(); ++i) {
            const std::uint8_t state = states_[i];
            if (state < histogram.size())
                ++histogram[state];
        }
        return histogram;
    }

    void
    reset()
    {
        states_.assign(states_.size(), initial_state_);
    }

    /** Writes the entry states (for predictor checkpointing). */
    void
    saveState(std::ostream &os) const
    {
        os.write(reinterpret_cast<const char *>(states_.data()),
                 static_cast<std::streamsize>(size()));
    }

    /**
     * Restores entry states; false on short input or a state outside
     * the entry kind's range (which would index past lambda/delta
     * and the SIMD lookup tables), leaving the states unspecified.
     */
    bool
    loadState(std::istream &is)
    {
        is.read(reinterpret_cast<char *>(states_.data()),
                static_cast<std::streamsize>(size()));
        const unsigned states = statesPerEntry();
        return is && std::all_of(states_.begin(),
                                 states_.begin() + size(),
                                 [states](std::uint8_t state) {
                                     return state < states;
                                 });
    }

  private:
    /** kind_'s spec; automatonSpec() range-checked kind_ at
     *  construction, so the per-branch paths index the table. */
    const AutomatonSpec &
    spec() const
    {
        return kAutomatonSpecs[static_cast<std::size_t>(kind_)];
    }

    std::size_t
    index(std::uint32_t pattern) const
    {
        return pattern & (size() - 1);
    }

    unsigned history_bits_;
    AutomatonKind kind_ = AutomatonKind::A2;
    unsigned counter_bits_ = 0;
    std::uint8_t initial_state_;
    std::vector<std::uint8_t> states_;
};

} // namespace tlat::core

#endif // TLAT_CORE_PATTERN_TABLE_HH
