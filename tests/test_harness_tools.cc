/**
 * @file
 * Unit tests for the analysis tooling: the return-address-stack
 * experiment, the per-branch profile, and the trace filters.
 */

#include <gtest/gtest.h>

#include "harness/branch_profile.hh"
#include "harness/ras_experiment.hh"
#include "harness/suite.hh"
#include "sim/simulator.hh"
#include "trace/trace_filter.hh"
#include "workloads/workload.hh"

namespace tlat
{
namespace
{

trace::BranchRecord
record(std::uint64_t pc, std::uint64_t target,
       trace::BranchClass cls, bool taken, bool is_call = false)
{
    trace::BranchRecord r;
    r.pc = pc;
    r.target = target;
    r.cls = cls;
    r.taken = taken;
    r.isCall = is_call;
    return r;
}

trace::BranchRecord
call(std::uint64_t pc, std::uint64_t target)
{
    return record(pc, target,
                  trace::BranchClass::ImmediateUnconditional, true,
                  true);
}

trace::BranchRecord
ret(std::uint64_t pc, std::uint64_t target)
{
    return record(pc, target, trace::BranchClass::Return, true);
}

// ---- RAS experiment -------------------------------------------------

TEST(RasExperiment, PerfectOnBalancedCalls)
{
    trace::TraceBuffer trace("t");
    // call at 100 -> sub, call at 200 -> sub2, returns in LIFO order.
    trace.append(call(100, 1000));
    trace.append(call(200, 2000));
    trace.append(ret(2004, 204)); // returns to 200+4
    trace.append(ret(1004, 104)); // returns to 100+4
    const harness::RasResult result =
        harness::runRasExperiment(trace, 16);
    EXPECT_EQ(result.calls, 2u);
    EXPECT_EQ(result.returns, 2u);
    EXPECT_EQ(result.correctReturns, 2u);
    EXPECT_DOUBLE_EQ(result.hitRate(), 1.0);
    EXPECT_EQ(result.overflows, 0u);
}

TEST(RasExperiment, OverflowLosesDeepReturns)
{
    // Recursion deeper than the stack: the outermost return
    // mispredicts (paper Section 4).
    trace::TraceBuffer trace("t");
    for (std::uint64_t i = 0; i < 4; ++i)
        trace.append(call(100 + i * 20, 1000));
    for (std::uint64_t i = 4; i-- > 0;)
        trace.append(ret(1004, 104 + i * 20));
    const harness::RasResult shallow =
        harness::runRasExperiment(trace, 2);
    EXPECT_EQ(shallow.returns, 4u);
    EXPECT_EQ(shallow.correctReturns, 2u); // the two innermost
    EXPECT_GT(shallow.overflows, 0u);
    const harness::RasResult deep =
        harness::runRasExperiment(trace, 8);
    EXPECT_EQ(deep.correctReturns, 4u);
}

TEST(RasExperiment, LiTraceReturnsAreStackPredictable)
{
    // End-to-end: the li workload's returns must be essentially
    // perfectly predicted by a 32-entry stack (queens recursion depth
    // is 8; hanoi is 12).
    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("li")->buildTest(), 20000);
    const harness::RasResult result =
        harness::runRasExperiment(trace, 32);
    EXPECT_GT(result.returns, 100u);
    EXPECT_GT(result.hitRate(), 0.999);
}

TEST(RasExperiment, ShallowStackDegradesOnRecursion)
{
    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("li")->build("hanoi"), 20000);
    const harness::RasResult deep =
        harness::runRasExperiment(trace, 32);
    const harness::RasResult shallow =
        harness::runRasExperiment(trace, 2);
    EXPECT_GT(deep.hitRate(), shallow.hitRate());
}

TEST(RasExperiment, SimulatorMarksCalls)
{
    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("li")->buildTest(), 5000);
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;
    for (const trace::BranchRecord &r : trace.records()) {
        calls += r.isCall ? 1 : 0;
        returns += r.cls == trace::BranchClass::Return ? 1 : 0;
        if (r.isCall) {
            EXPECT_EQ(r.cls,
                      trace::BranchClass::ImmediateUnconditional);
        }
    }
    EXPECT_GT(calls, 0u);
    // Balanced programs: calls and returns track each other.
    EXPECT_NEAR(static_cast<double>(calls),
                static_cast<double>(returns),
                static_cast<double>(calls) * 0.2 + 20);
}

// ---- branch profile -------------------------------------------------

TEST(BranchProfile, TracksPerSiteAccuracy)
{
    harness::BranchProfile profile;
    profile.record(4, true, true);
    profile.record(4, false, false);
    profile.record(8, true, true);
    EXPECT_EQ(profile.totalExecutions(), 3u);
    EXPECT_EQ(profile.totalMispredictions(), 1u);
    EXPECT_EQ(profile.allSites().size(), 2u);
    EXPECT_DOUBLE_EQ(profile.site(4).accuracy(), 0.5);
    EXPECT_DOUBLE_EQ(profile.site(4).takenRate(), 0.5);
    EXPECT_DOUBLE_EQ(profile.site(8).accuracy(), 1.0);
    EXPECT_EQ(profile.site(999).executions, 0u);
}

TEST(BranchProfile, WorstSitesOrderedByMisses)
{
    harness::BranchProfile profile;
    for (int i = 0; i < 5; ++i)
        profile.record(4, false, true);
    for (int i = 0; i < 2; ++i)
        profile.record(8, false, true);
    profile.record(12, true, true);
    const auto worst = profile.worstSites(2);
    ASSERT_EQ(worst.size(), 2u);
    EXPECT_EQ(worst[0].pc, 4u);
    EXPECT_EQ(worst[1].pc, 8u);
}

// ---- trace filters ---------------------------------------------------

trace::TraceBuffer
mixedTrace()
{
    trace::TraceBuffer trace("mixed");
    trace.append(record(4, 40, trace::BranchClass::Conditional, true));
    trace.append(call(8, 80));
    trace.append(record(12, 48, trace::BranchClass::Conditional,
                        false));
    trace.append(ret(80, 12));
    trace.append(record(16, 52, trace::BranchClass::Conditional,
                        true));
    return trace;
}

TEST(TraceFilter, ByClass)
{
    const trace::TraceBuffer conditionals = filterByClass(
        mixedTrace(), trace::BranchClass::Conditional);
    EXPECT_EQ(conditionals.size(), 3u);
    for (const auto &r : conditionals.records())
        EXPECT_EQ(r.cls, trace::BranchClass::Conditional);
}

TEST(TraceFilter, ByPcRange)
{
    const trace::TraceBuffer sliced =
        filterByPcRange(mixedTrace(), 8, 16);
    EXPECT_EQ(sliced.size(), 2u);
    EXPECT_EQ(sliced[0].pc, 8u);
    EXPECT_EQ(sliced[1].pc, 12u);
}

TEST(TraceFilter, PrefixSuffix)
{
    const auto t = mixedTrace();
    EXPECT_EQ(prefix(t, 2).size(), 2u);
    EXPECT_EQ(prefix(t, 99).size(), 5u);
    EXPECT_EQ(suffix(t, 3).size(), 2u);
    EXPECT_EQ(suffix(t, 99).size(), 0u);
    EXPECT_EQ(prefix(t, 2)[1].pc, 8u);
    EXPECT_EQ(suffix(t, 3)[0].pc, 80u);
}

TEST(TraceFilter, Subsample)
{
    const auto t = mixedTrace();
    const auto every_second = subsample(t, 2);
    EXPECT_EQ(every_second.size(), 3u);
    EXPECT_EQ(every_second[0].pc, 4u);
    EXPECT_EQ(every_second[1].pc, 12u);
    const auto offset = subsample(t, 2, 1);
    EXPECT_EQ(offset.size(), 2u);
    EXPECT_EQ(offset[0].pc, 8u);
    EXPECT_EQ(subsample(t, 0).size(), 0u);
}

TEST(TraceFilter, SplitTrainTest)
{
    const auto [train, test] = splitTrainTest(mixedTrace(), 0.6);
    EXPECT_EQ(train.size(), 3u);
    EXPECT_EQ(test.size(), 2u);
    EXPECT_EQ(train.name(), "mixed");
    const auto [none, all] = splitTrainTest(mixedTrace(), 0.0);
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(all.size(), 5u);
}

TEST(TraceFilter, PreservesMixHeader)
{
    trace::TraceBuffer t("m");
    t.mix().intAlu = 7;
    t.append(record(4, 8, trace::BranchClass::Conditional, true));
    const auto filtered =
        filterByClass(t, trace::BranchClass::Conditional);
    EXPECT_EQ(filtered.mix().intAlu, 7u);
}

} // namespace
} // namespace tlat
