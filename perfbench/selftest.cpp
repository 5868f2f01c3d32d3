/**
 * @file
 * Tests of the perfbench driver's own logic: span self-time and the
 * timing ChunkStream wrapper. Build the perfbench_selftest target and
 * run it from any writable directory (it writes one small trace file
 * there and removes it).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

namespace
{

using perfbench::selfTimesNs;
using perfbench::Span;

Span
span(std::int64_t start, std::int64_t end, std::int32_t parent = -1)
{
    Span s;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

TEST(SelfTime, LeafIsItsDuration)
{
    EXPECT_EQ(selfTimesNs({span(10, 35)}), std::vector<std::int64_t>{25});
}

TEST(SelfTime, NestedChildrenSubtractOnlyFromTheirParent)
{
    // root [0,100) > mid [10,60) > leaf [20,30); second child [70,90).
    const std::vector<Span> spans = {span(0, 100), span(10, 60, 0),
                                     span(20, 30, 1), span(70, 90, 0)};
    EXPECT_EQ(selfTimesNs(spans),
              (std::vector<std::int64_t>{100 - 50 - 20, 50 - 10, 10, 20}));
}

TEST(SelfTime, OverlappingChildrenCountTheirUnionOnce)
{
    // Children [10,40) and [30,50) overlap by 10: union is 40.
    const std::vector<Span> spans = {span(0, 100), span(10, 40, 0),
                                     span(30, 50, 0)};
    EXPECT_EQ(selfTimesNs(spans)[0], 60);
    // A child inside another child's interval adds nothing.
    const std::vector<Span> contained = {span(0, 100), span(10, 80, 0),
                                         span(20, 30, 0)};
    EXPECT_EQ(selfTimesNs(contained)[0], 30);
}

TEST(SelfTime, ChildrenAreClippedToTheParent)
{
    const std::vector<Span> spans = {span(10, 50), span(0, 20, 0),
                                     span(40, 90, 0)};
    EXPECT_EQ(selfTimesNs(spans)[0], 40 - 10 - 10);
}

TEST(Tracer, DisabledRecordsNothingAndEnabledNests)
{
    perfbench::Tracer tracer;
    {
        perfbench::Scope outer(tracer, "a");
    }
    EXPECT_TRUE(tracer.spans().empty());
    tracer.setEnabled(true);
    tracer.setOp(7);
    {
        perfbench::Scope outer(tracer, "outer");
        perfbench::Scope inner(tracer, "inner");
        inner.setItems(3);
    }
    ASSERT_EQ(tracer.spans().size(), 2u);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
    EXPECT_EQ(tracer.spans()[1].items, 3u);
    EXPECT_EQ(tracer.spans()[1].op, 7u);
    EXPECT_LE(tracer.spans()[0].startNs, tracer.spans()[1].startNs);
    EXPECT_GE(tracer.spans()[0].endNs, tracer.spans()[1].endNs);
}

class TimedStream : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto workload = tlat::workloads::makeWorkload("gcc");
        const tlat::trace::TraceBuffer buffer = tlat::sim::collectTrace(
            workload->build(workload->testSet()), 30000);
        ASSERT_TRUE(tlat::trace::saveToFile(buffer, path_));
    }
    void TearDown() override { std::remove(path_.c_str()); }

    const std::string path_ = "perfbench_selftest.tltr";
};

TEST_F(TimedStream, SameAccuracyAsUnwrappedAndOneSpanPerChunk)
{
    for (const std::string scheme :
         {"AT(AHRT(512,12SR),PT(2^12,A2),)", "AT(IHRT(,12SR),PT(2^12,A2),)",
          "LS(AHRT(512,A2),,)"}) {
        for (const std::size_t chunk : {std::size_t{0}, std::size_t{4096}}) {
            auto plain_stream =
                tlat::trace::MmapChunkStream::open(path_, chunk);
            auto timed_inner =
                tlat::trace::MmapChunkStream::open(path_, chunk);
            ASSERT_TRUE(plain_stream && timed_inner);
            auto plain_predictor = tlat::predictors::makePredictor(scheme);
            auto timed_predictor = tlat::predictors::makePredictor(scheme);
            const tlat::AccuracyCounter plain =
                tlat::harness::measureStream(*plain_predictor,
                                             *plain_stream);

            perfbench::Tracer tracer;
            tracer.setEnabled(true);
            perfbench::TimedChunkStream timed(*timed_inner, tracer);
            const tlat::AccuracyCounter wrapped =
                tlat::harness::measureStream(*timed_predictor, timed);

            EXPECT_EQ(wrapped.total(), plain.total()) << scheme;
            EXPECT_EQ(wrapped.hits(), plain.hits()) << scheme;
            std::uint64_t records = 0;
            std::size_t chunks = 0;
            for (const Span &s : tracer.spans()) {
                EXPECT_STREQ(s.layer, "trace.next");
                records += s.items;
                chunks += s.items > 0 ? 1 : 0;
            }
            EXPECT_EQ(records, timed.recordCount());
            // One span per chunk plus the final end-of-trace call.
            EXPECT_EQ(tracer.spans().size(), chunks + 1);
            EXPECT_EQ(chunks > 1, chunk != 0) << chunk;
        }
    }
}

} // namespace
