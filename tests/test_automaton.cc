/**
 * @file
 * Unit tests for the pattern-history automata of paper Figure 2.
 */

#include <type_traits>

#include <gtest/gtest.h>

#include "core/automaton.hh"

namespace tlat::core
{
namespace
{

/** Feeds a T/N string and returns the automaton afterwards. */
Automaton
feed(AutomatonKind kind, const std::string &outcomes)
{
    Automaton automaton(kind);
    for (char c : outcomes)
        automaton.update(c == 'T');
    return automaton;
}

TEST(AutomatonSpecs, NamesRoundTrip)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(AutomatonKind::NumKinds); ++i) {
        const auto kind = static_cast<AutomatonKind>(i);
        EXPECT_EQ(automatonFromName(automatonName(kind)), kind);
    }
    EXPECT_FALSE(automatonFromName("A9").has_value());
    EXPECT_FALSE(automatonFromName("").has_value());
    EXPECT_FALSE(automatonFromName("lt").has_value());
}

TEST(AutomatonSpecs, PaperInitialization)
{
    // Section 4.2: A1-A4 start in state 3; Last-Time starts in
    // state 1, so early branches predict taken.
    for (AutomatonKind kind : {AutomatonKind::A1, AutomatonKind::A2,
                               AutomatonKind::A3, AutomatonKind::A4}) {
        EXPECT_EQ(automatonSpec(kind).initialState, 3);
        EXPECT_TRUE(Automaton(kind).predict());
    }
    EXPECT_EQ(automatonSpec(AutomatonKind::LastTime).initialState, 1);
    EXPECT_TRUE(Automaton(AutomatonKind::LastTime).predict());
}

TEST(AutomatonSpecs, TransitionsStayInRange)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(AutomatonKind::NumKinds); ++i) {
        const AutomatonSpec &spec =
            automatonSpec(static_cast<AutomatonKind>(i));
        for (unsigned s = 0; s < spec.numStates; ++s) {
            EXPECT_LT(spec.nextState[s][0], spec.numStates);
            EXPECT_LT(spec.nextState[s][1], spec.numStates);
        }
    }
}

TEST(LastTime, PredictsPreviousOutcome)
{
    // "The next time the same history pattern appears the prediction
    // will be what happened last time."
    Automaton automaton(AutomatonKind::LastTime);
    automaton.update(false);
    EXPECT_FALSE(automaton.predict());
    automaton.update(true);
    EXPECT_TRUE(automaton.predict());
    automaton.update(true);
    EXPECT_TRUE(automaton.predict());
    automaton.update(false);
    EXPECT_FALSE(automaton.predict());
}

TEST(A1, PredictsNotTakenOnlyAfterTwoNotTakens)
{
    // "Only when there is no taken branch recorded [in the last two
    // outcomes] ... will be predicted as not taken."
    EXPECT_FALSE(feed(AutomatonKind::A1, "NN").predict());
    EXPECT_TRUE(feed(AutomatonKind::A1, "NT").predict());
    EXPECT_TRUE(feed(AutomatonKind::A1, "TN").predict());
    EXPECT_TRUE(feed(AutomatonKind::A1, "TT").predict());
    EXPECT_TRUE(feed(AutomatonKind::A1, "NNT").predict());
    EXPECT_FALSE(feed(AutomatonKind::A1, "TNN").predict());
}

TEST(A2, IsSaturatingUpDownCounter)
{
    // "The counter is incremented when the branch is taken and is
    // decremented when the branch is not taken ... predicted as taken
    // when the counter value is greater than or equal to two."
    Automaton automaton(AutomatonKind::A2); // state 3
    automaton.update(true);
    EXPECT_EQ(automaton.state(), 3); // saturates high
    automaton.update(false);
    EXPECT_EQ(automaton.state(), 2);
    EXPECT_TRUE(automaton.predict());
    automaton.update(false);
    EXPECT_EQ(automaton.state(), 1);
    EXPECT_FALSE(automaton.predict());
    automaton.update(false);
    automaton.update(false);
    EXPECT_EQ(automaton.state(), 0); // saturates low
    automaton.update(true);
    EXPECT_EQ(automaton.state(), 1);
}

TEST(A2, HysteresisToleratesOneOffOutcome)
{
    // A single not-taken in a taken stream must not flip the
    // prediction — the noise tolerance the paper credits the
    // four-state automata with.
    Automaton automaton(AutomatonKind::A2);
    for (int i = 0; i < 4; ++i)
        automaton.update(true);
    automaton.update(false);
    EXPECT_TRUE(automaton.predict());
}

TEST(A3, FastRecoveryFromStrongTaken)
{
    Automaton automaton(AutomatonKind::A3); // state 3
    automaton.update(false);
    EXPECT_EQ(automaton.state(), 1); // 3 --N--> 1 (A2 would go to 2)
    EXPECT_FALSE(automaton.predict());
}

TEST(A4, BigJumpHysteresis)
{
    Automaton automaton(AutomatonKind::A4);
    automaton.update(false); // 3 -> 2
    EXPECT_EQ(automaton.state(), 2);
    automaton.update(false); // 2 -> 0: big jump down
    EXPECT_EQ(automaton.state(), 0);
    automaton.update(true);  // 0 -> 1
    EXPECT_EQ(automaton.state(), 1);
    EXPECT_FALSE(automaton.predict());
    automaton.update(true);  // 1 -> 3: big jump up
    EXPECT_EQ(automaton.state(), 3);
    EXPECT_TRUE(automaton.predict());
}

TEST(A4, IsNotDegenerateLastTime)
{
    // Regression: an earlier A4 definition collapsed to Last-Time.
    // After one not-taken from strong-taken, A4 must still predict
    // taken (LT would predict not-taken).
    Automaton a4(AutomatonKind::A4);
    a4.update(false);
    EXPECT_TRUE(a4.predict());
    Automaton lt(AutomatonKind::LastTime);
    lt.update(false);
    EXPECT_FALSE(lt.predict());
}

TEST(FourStateAutomata, PredictBoundaryAtTwo)
{
    for (AutomatonKind kind : {AutomatonKind::A2, AutomatonKind::A3,
                               AutomatonKind::A4}) {
        const AutomatonSpec &spec = automatonSpec(kind);
        EXPECT_FALSE(spec.predictTaken[0]);
        EXPECT_FALSE(spec.predictTaken[1]);
        EXPECT_TRUE(spec.predictTaken[2]);
        EXPECT_TRUE(spec.predictTaken[3]);
    }
}

/**
 * Property sweep: on a strongly biased outcome stream every automaton
 * must converge to predicting the majority direction.
 */
class BiasConvergence
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(BiasConvergence, LearnsTheMajorityDirection)
{
    const auto [kind_index, majority] = GetParam();
    Automaton automaton(static_cast<AutomatonKind>(kind_index));
    // 10 majority outcomes in a row pin every automaton.
    for (int i = 0; i < 10; ++i)
        automaton.update(majority);
    EXPECT_EQ(automaton.predict(), majority);
    // A long biased stream with a 1-in-5 minority outcome. Expected
    // steady-state accuracy differs per automaton:
    //  - A2 misses only the minority outcome itself (4/5);
    //  - LT misses the minority and the following prediction (3/5);
    //  - A3/A4 fast-switch out of the saturated state and pay one
    //    extra miss re-entering it (3/5);
    //  - A1 predicts not-taken only after two not-takens, so a
    //    not-taken-majority stream with periodic takens costs it
    //    three misses per period (2/5).
    int correct = 0;
    for (int i = 0; i < 500; ++i) {
        const bool outcome = i % 5 == 0 ? !majority : majority;
        if (automaton.predict() == outcome)
            ++correct;
        automaton.update(outcome);
    }
    const auto kind = static_cast<AutomatonKind>(kind_index);
    int minimum = 280;
    if (kind == AutomatonKind::A2)
        minimum = 390;
    else if (kind == AutomatonKind::A1 && !majority)
        minimum = 180;
    else if (kind == AutomatonKind::A1)
        minimum = 390;
    EXPECT_GT(correct, minimum);
}

INSTANTIATE_TEST_SUITE_P(
    AllAutomata, BiasConvergence,
    ::testing::Combine(
        ::testing::Range(0u, static_cast<unsigned>(
                                 AutomatonKind::NumKinds)),
        ::testing::Bool()));

TEST(Automaton, SetState)
{
    Automaton automaton(AutomatonKind::A2);
    automaton.setState(0);
    EXPECT_FALSE(automaton.predict());
    EXPECT_EQ(automaton.state(), 0);
}

TEST(VisitAutomaton, HandsTheMatchingPolicy)
{
    // Every kind: called exactly once, with an AutomatonOps whose
    // lambda and delta match the spec table on every state/outcome.
    for (unsigned i = 0;
         i < static_cast<unsigned>(AutomatonKind::NumKinds); ++i) {
        const auto kind = static_cast<AutomatonKind>(i);
        const AutomatonSpec &spec = automatonSpec(kind);
        unsigned calls = 0;
        EXPECT_TRUE(visitAutomaton(kind, 0, [&](const auto &ops) {
            ++calls;
            using Ops = std::decay_t<decltype(ops)>;
            EXPECT_FALSE((std::is_same_v<Ops, CounterOps>))
                << spec.name;
            EXPECT_EQ(ops.numStates(), spec.numStates) << spec.name;
            for (std::uint8_t state = 0; state < spec.numStates;
                 ++state) {
                EXPECT_EQ(ops.predict(state), spec.predictTaken[state])
                    << spec.name << " state " << int(state);
                for (const bool taken : {false, true}) {
                    EXPECT_EQ(ops.next(state, taken),
                              spec.nextState[state][taken ? 1 : 0])
                        << spec.name << " state " << int(state);
                }
            }
        }));
        EXPECT_EQ(calls, 1u) << spec.name;
    }

    // Counter widths override the kind: exactly CounterOps(bits).
    for (unsigned bits = 1; bits <= 8; ++bits) {
        const CounterOps expected(bits);
        unsigned calls = 0;
        EXPECT_TRUE(visitAutomaton(
            AutomatonKind::LastTime, bits, [&](const auto &ops) {
                ++calls;
                using Ops = std::decay_t<decltype(ops)>;
                ASSERT_TRUE((std::is_same_v<Ops, CounterOps>));
                EXPECT_EQ(ops.numStates(), 1u << bits);
                for (unsigned s = 0; s < (1u << bits); ++s) {
                    const auto state = static_cast<std::uint8_t>(s);
                    EXPECT_EQ(ops.predict(state),
                              expected.predict(state))
                        << bits << " bits, state " << s;
                    for (const bool taken : {false, true}) {
                        EXPECT_EQ(ops.next(state, taken),
                                  expected.next(state, taken))
                            << bits << " bits, state " << s;
                    }
                }
            }));
        EXPECT_EQ(calls, 1u) << bits << " bits";
    }

    // A kind with no policy is reported, and f is never called.
    bool called = false;
    EXPECT_FALSE(visitAutomaton(AutomatonKind::NumKinds, 0,
                                [&](const auto &) { called = true; }));
    EXPECT_FALSE(called);
}

} // namespace
} // namespace tlat::core
