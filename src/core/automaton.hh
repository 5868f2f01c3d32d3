/**
 * @file
 * Pattern-history automata (paper Figure 2).
 *
 * Each pattern table entry holds the state of a small Moore machine:
 * the state-transition function delta consumes the branch outcome, and
 * the prediction decision function lambda maps the state to a
 * taken/not-taken prediction (paper equations 1 and 2).
 *
 * Automata implemented:
 *  - Last-Time (LT): one bit; predict what happened last time.
 *  - A1: records the outcomes of the last two occurrences; predicts
 *    not-taken only when both were not-taken.
 *  - A2: 2-bit saturating up/down counter; predict taken iff state>=2.
 *  - A3, A4: variants of A2. The paper's Figure 2 diagrams for these
 *    are not recoverable from the text (they live in tech report [3]);
 *    following DESIGN.md they are implemented as 4-state up/down
 *    counter variants:
 *      A3: like A2, but from state 3 a not-taken outcome drops
 *          straight to 1 (fast recovery from strong-taken).
 *      A4: big-jump hysteresis — a confirming outcome in a weak
 *          state jumps to the strong state (1 -T-> 3, 2 -N-> 0).
 *    The paper's only quantitative claim — A2/A3/A4 within noise of
 *    each other and ~1% above LT — is insensitive to this choice.
 *
 * Initialization (paper Section 4.2): the four-state automata start in
 * state 3 and LT starts in state 1, so early branches predict taken.
 */

#ifndef TLAT_CORE_AUTOMATON_HH
#define TLAT_CORE_AUTOMATON_HH

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>

namespace tlat::core
{

/** The automata of paper Figure 2. */
enum class AutomatonKind : std::uint8_t
{
    LastTime,
    A1,
    A2,
    A3,
    A4,
    NumKinds
};

/** Table-driven definition of one automaton. */
struct AutomatonSpec
{
    const char *name;
    std::uint8_t numStates;
    std::uint8_t initialState;
    /** nextState[state][outcome] (outcome: 0 = not taken, 1 = taken). */
    std::uint8_t nextState[4][2];
    /** lambda: predictTaken[state]. */
    bool predictTaken[4];
};

/**
 * The automata definitions (paper Figure 2), constexpr so the fused
 * simulation loop's compile-time dispatch (AutomatonOps) folds table
 * lookups into immediate loads. Outcome index 0 = not taken,
 * 1 = taken.
 */
inline constexpr AutomatonSpec kAutomatonSpecs[] = {
    // Last-Time: state is simply the last outcome.
    {
        "LT", 2, 1,
        {{0, 1}, {0, 1}, {0, 0}, {0, 0}},
        {false, true, false, false},
    },
    // A1: 2-bit shift register of the last two outcomes; predict
    // not-taken only when no taken outcome is recorded (state 0).
    {
        "A1", 4, 3,
        {{0, 1}, {2, 3}, {0, 1}, {2, 3}},
        {false, true, true, true},
    },
    // A2: saturating up/down counter; predict taken iff state >= 2.
    {
        "A2", 4, 3,
        {{0, 1}, {0, 2}, {1, 3}, {2, 3}},
        {false, false, true, true},
    },
    // A3: A2 with fast recovery from strong-taken (3 --NT--> 1).
    {
        "A3", 4, 3,
        {{0, 1}, {0, 2}, {1, 3}, {1, 3}},
        {false, false, true, true},
    },
    // A4: big-jump hysteresis — a confirming outcome in a weak state
    // jumps straight to the strong state of that side (1 --T--> 3,
    // 2 --NT--> 0).
    {
        "A4", 4, 3,
        {{0, 1}, {0, 3}, {0, 3}, {2, 3}},
        {false, false, true, true},
    },
};

static_assert(sizeof(kAutomatonSpecs) / sizeof(kAutomatonSpecs[0]) ==
              static_cast<std::size_t>(AutomatonKind::NumKinds));

/** Spec lookup; the returned reference has static storage duration. */
const AutomatonSpec &automatonSpec(AutomatonKind kind);

/**
 * Compile-time automaton policy for the fused simulation loop: with
 * the kind a template parameter, lambda and delta reduce to indexed
 * loads from a constexpr table that the optimizer keeps in registers
 * — no virtual call, no runtime kind dispatch per branch. Behaviour
 * is defined to be identical to PatternTable::predict()/update() for
 * the same kind.
 */
template <AutomatonKind K>
struct AutomatonOps
{
    constexpr bool
    predict(std::uint8_t state) const
    {
        return kAutomatonSpecs[static_cast<std::size_t>(K)]
            .predictTaken[state];
    }

    constexpr std::uint8_t
    next(std::uint8_t state, bool taken) const
    {
        return kAutomatonSpecs[static_cast<std::size_t>(K)]
            .nextState[state][taken ? 1 : 0];
    }

    constexpr unsigned
    numStates() const
    {
        return kAutomatonSpecs[static_cast<std::size_t>(K)].numStates;
    }
};

/**
 * Runtime-width saturating-counter policy (the PatternTable
 * counter-entry extension): predict taken in the upper half of the
 * range. Width is a runtime value (1..8 bits), but the policy is
 * still branch-free enough to inline into the fused loop.
 */
struct CounterOps
{
    explicit constexpr CounterOps(unsigned bits)
        : max(static_cast<std::uint8_t>((1u << bits) - 1)),
          threshold(static_cast<std::uint8_t>(1u << (bits - 1)))
    {
    }

    constexpr bool
    predict(std::uint8_t state) const
    {
        return state >= threshold;
    }

    constexpr std::uint8_t
    next(std::uint8_t state, bool taken) const
    {
        if (taken && state < max)
            return static_cast<std::uint8_t>(state + 1);
        if (!taken && state > 0)
            return static_cast<std::uint8_t>(state - 1);
        return state;
    }

    constexpr unsigned numStates() const { return max + 1u; }

    std::uint8_t max;
    std::uint8_t threshold;
};

/**
 * The shape every pattern-history policy must have: lambda maps a
 * state to a direction, delta maps (state, outcome) to the successor
 * state. PatternTable's devirtualized accessors and every fused
 * simulateBatch loop are constrained on this concept, so a policy
 * that drifts from the AutomatonOps/CounterOps contract is a compile
 * error at the call site, not a subtle behavioural divergence. The
 * full semantic pins (Figure 2 tables, CounterOps(2) == A2) live in
 * core/contracts.hh.
 */
template <typename Ops>
concept AutomatonPolicy =
    requires(const Ops ops, std::uint8_t state, bool taken) {
        { ops.predict(state) } -> std::same_as<bool>;
        { ops.next(state, taken) } -> std::same_as<std::uint8_t>;
    };

/**
 * The one runtime-to-compile-time automaton dispatch: calls @p f once
 * with the policy for the configured pattern entries — CounterOps
 * when @p counterBits is non-zero (the counter-entry extension
 * overrides the kind), else AutomatonOps<kind>. Returns false, without
 * calling @p f, for a kind that has no policy (NumKinds or an
 * out-of-range value), so every fused caller keeps exactly one
 * fallback to its reference loop.
 */
template <typename F>
bool
visitAutomaton(AutomatonKind kind, unsigned counterBits, F &&f)
{
    if (counterBits > 0) {
        f(CounterOps(counterBits));
        return true;
    }
    switch (kind) {
      case AutomatonKind::LastTime:
        f(AutomatonOps<AutomatonKind::LastTime>{});
        return true;
      case AutomatonKind::A1:
        f(AutomatonOps<AutomatonKind::A1>{});
        return true;
      case AutomatonKind::A2:
        f(AutomatonOps<AutomatonKind::A2>{});
        return true;
      case AutomatonKind::A3:
        f(AutomatonOps<AutomatonKind::A3>{});
        return true;
      case AutomatonKind::A4:
        f(AutomatonOps<AutomatonKind::A4>{});
        return true;
      default:
        return false;
    }
}

/** Parses "LT", "A1".."A4" (as used in Table 2 scheme names). */
std::optional<AutomatonKind> automatonFromName(const std::string &name);

/** Short name as used in scheme strings ("LT", "A2", ...). */
const char *automatonName(AutomatonKind kind);

} // namespace tlat::core

#endif // TLAT_CORE_AUTOMATON_HH
