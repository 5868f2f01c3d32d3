/**
 * @file
 * Chunked trace streaming (trace/chunk_stream.hh) equivalence suite:
 * chunk concatenation reproduces the whole trace for adversarial
 * chunk sizes (1, 2, and the 64Ki wire-staging boundary +/- 1),
 * streamed measurement — plain, metrics/JSON, and checkpoint bytes —
 * is bit-identical to the whole-buffer path, the mmap-backed stream
 * round-trips TLTR v2 files and reports corruption, its one-pass
 * decode reproduces the whole-file loader and the hash-map lanes at
 * every chunk size, its default chunk is bounded, its decode ring
 * survives rewind and destruction with every slot in flight and
 * reports a corrupt chunk only in order, and the parallel sweep
 * engine stays byte-identical across jobs counts with chunking forced
 * through the TLAT_CHUNK_RECORDS knob.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/scheme_config.hh"
#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
#include "harness/parallel_sweep.hh"
#include "harness/suite.hh"
#include "predictors/scheme_factory.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_io.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"

namespace tlat
{
namespace
{

using trace::BranchClass;
using trace::BranchRecord;
using trace::BufferChunkStream;
using trace::ChunkStream;
using trace::MmapChunkStream;
using trace::TraceBuffer;
using trace::TraceChunk;

/** The 64Ki staging width the wire codec and the tests pivot on. */
constexpr std::size_t kBoundary = std::size_t{1} << 16;

/** Mixed-class random trace with per-site outcome structure. */
TraceBuffer
makeRandomTrace(std::uint64_t seed, std::size_t records)
{
    Rng rng(seed);
    TraceBuffer trace("chunk-" + std::to_string(seed));
    trace.mix().intAlu = 5 * records;
    trace.mix().memory = 2 * records;
    trace.mix().controlFlow = records;

    constexpr std::size_t kSites = 64;
    std::vector<std::uint64_t> pcs;
    std::vector<std::uint32_t> permille;
    for (std::size_t i = 0; i < kSites; ++i) {
        pcs.push_back(0x1000 + 4 * rng.nextBelow(1 << 14));
        permille.push_back(
            static_cast<std::uint32_t>(rng.nextBelow(1001)));
    }
    trace.reserve(records, records);
    for (std::size_t i = 0; i < records; ++i) {
        BranchRecord record;
        const std::size_t site = rng.nextBelow(kSites);
        record.pc = pcs[site];
        record.target = record.pc + 4 * rng.nextBelow(64);
        if (rng.nextBelow(8) == 0) {
            // Non-conditional noise the measuring loops skip; some
            // are calls so every class/flag combination serializes.
            record.cls = (i % 2 == 0)
                ? BranchClass::Return
                : BranchClass::ImmediateUnconditional;
            record.isCall = i % 4 == 1;
            record.taken = true;
        } else {
            record.cls = BranchClass::Conditional;
            record.taken = rng.nextBelow(1000) < permille[site];
        }
        trace.append(record);
    }
    return trace;
}

bool
recordsEqual(const BranchRecord &a, const BranchRecord &b)
{
    return a.pc == b.pc && a.target == b.target && a.cls == b.cls &&
           a.taken == b.taken && a.isCall == b.isCall;
}

/** Drains a stream; returns every record in delivery order. */
std::vector<BranchRecord>
drain(ChunkStream &stream, std::vector<BranchRecord> *conditionals =
                               nullptr)
{
    std::vector<BranchRecord> all;
    while (const TraceChunk *chunk = stream.next()) {
        all.insert(all.end(), chunk->records.begin(),
                   chunk->records.end());
        if (conditionals != nullptr)
            conditionals->insert(conditionals->end(),
                                 chunk->view.records().begin(),
                                 chunk->view.records().end());
    }
    return all;
}

std::string
checkpointBytes(core::BranchPredictor &predictor)
{
    std::ostringstream os;
    EXPECT_TRUE(predictor.saveCheckpoint(os));
    return os.str();
}

std::unique_ptr<core::BranchPredictor>
makeScheme(const std::string &text)
{
    const auto config = core::SchemeConfig::parse(text);
    EXPECT_TRUE(config) << text;
    return predictors::makePredictor(*config);
}

/** Saves @p trace as TLTR into the gtest temp dir; returns the path. */
std::string
saveTemp(const TraceBuffer &trace, const std::string &stem)
{
    const std::string path =
        testing::TempDir() + "tlat_chunk_" + stem + ".tltr";
    EXPECT_TRUE(trace::saveToFile(trace, path));
    return path;
}

TEST(ChunkStream, BufferChunksConcatenateToWholeTrace)
{
    const TraceBuffer trace = makeRandomTrace(1, 4001);
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{1000}, std::size_t{4000}, std::size_t{4001},
          std::size_t{100000}}) {
        BufferChunkStream stream(trace, chunk);
        EXPECT_EQ(stream.name(), trace.name());
        EXPECT_EQ(stream.recordCount(), trace.size());
        EXPECT_EQ(stream.mix().total(), trace.mix().total());
        std::vector<BranchRecord> conditionals;
        const auto all = drain(stream, &conditionals);
        ASSERT_EQ(all.size(), trace.size()) << "chunk=" << chunk;
        for (std::size_t i = 0; i < all.size(); ++i)
            ASSERT_TRUE(recordsEqual(all[i], trace.records()[i]))
                << "chunk=" << chunk << " record " << i;
        const auto whole = trace.conditionalView();
        ASSERT_EQ(conditionals.size(), whole.size());
        for (std::size_t i = 0; i < conditionals.size(); ++i)
            ASSERT_TRUE(recordsEqual(conditionals[i], whole[i]));
        EXPECT_TRUE(stream.error().empty());
    }
}

TEST(ChunkStream, WholeBufferModeSharesCachedPredecodeArtifact)
{
    const TraceBuffer trace = makeRandomTrace(2, 500);
    BufferChunkStream stream(trace, 0);
    const TraceChunk *chunk = stream.next();
    ASSERT_NE(chunk, nullptr);
    EXPECT_EQ(chunk->records.size(), trace.size());
    // Degenerate single chunk re-shares the buffer's cached artifact
    // — the legacy zero-copy measure() path, not a rebuild.
    EXPECT_EQ(chunk->view.shared().get(), trace.predecoded().get());
    EXPECT_EQ(stream.next(), nullptr);
    stream.rewind();
    EXPECT_NE(stream.next(), nullptr);
    EXPECT_EQ(stream.next(), nullptr);
}

TEST(ChunkStream, EmptyTraceStreamsNoChunks)
{
    const TraceBuffer trace;
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{8}}) {
        BufferChunkStream stream(trace, chunk);
        EXPECT_EQ(stream.next(), nullptr);
        EXPECT_TRUE(stream.error().empty());
    }
}

TEST(ChunkStream, MeasureStreamMatchesWholeBufferAtBoundarySizes)
{
    // Long enough that 64Ki-record chunks straddle several chunk
    // boundaries with conditional records on both sides of each.
    ::unsetenv("TLAT_CHUNK_RECORDS");
    const TraceBuffer trace = makeRandomTrace(3, 140000);
    for (const std::string scheme :
         {"AT(IHRT(,8SR),PT(2^8,A2),)",
          "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),"
          "CT(2^8))"}) {
        const auto whole = makeScheme(scheme);
        const AccuracyCounter expected =
            harness::measure(*whole, trace);
        const std::string expected_state = checkpointBytes(*whole);
        for (const std::size_t chunk :
             {std::size_t{1}, std::size_t{2}, kBoundary - 1,
              kBoundary, kBoundary + 1}) {
            const auto chunked = makeScheme(scheme);
            BufferChunkStream stream(trace, chunk);
            const AccuracyCounter got =
                harness::measureStream(*chunked, stream);
            EXPECT_EQ(got.hits(), expected.hits())
                << scheme << " chunk=" << chunk;
            EXPECT_EQ(got.total(), expected.total())
                << scheme << " chunk=" << chunk;
            EXPECT_EQ(checkpointBytes(*chunked), expected_state)
                << scheme << " chunk=" << chunk;
        }
    }
}

TEST(ChunkStream, MetricsJsonIdenticalAtEveryChunkSize)
{
    // The full document — accuracy, warmup curve, offenders, h2p
    // taxonomy and the combining chooser block — serializes to the
    // same bytes chunked and unchunked.
    ::unsetenv("TLAT_CHUNK_RECORDS");
    const TraceBuffer trace = makeRandomTrace(4, 20000);
    for (const std::string scheme :
         {"AT(IHRT(,6SR),PT(2^6,A2),)",
          "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),"
          "CT(2^8))"}) {
        const auto whole = makeScheme(scheme);
        const std::string expected = harness::runMetricsJsonString(
            harness::measureWithMetrics(*whole, trace));
        for (const std::size_t chunk :
             {std::size_t{1}, std::size_t{777}, std::size_t{16384}}) {
            const auto chunked = makeScheme(scheme);
            BufferChunkStream stream(trace, chunk);
            EXPECT_EQ(harness::runMetricsJsonString(
                          harness::measureStreamWithMetrics(*chunked,
                                                            stream)),
                      expected)
                << scheme << " chunk=" << chunk;
        }
    }
}

TEST(ChunkStream, MmapStreamRoundTripsFileAndMatchesBuffer)
{
    const TraceBuffer trace = makeRandomTrace(5, 30000);
    const std::string path = saveTemp(trace, "roundtrip");
    std::string error;
    auto stream = MmapChunkStream::open(path, 1000, &error);
    ASSERT_NE(stream, nullptr) << error;
    EXPECT_EQ(stream->name(), trace.name());
    EXPECT_EQ(stream->recordCount(), trace.size());
    EXPECT_EQ(stream->mix().total(), trace.mix().total());
    const auto all = drain(*stream);
    ASSERT_EQ(all.size(), trace.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        ASSERT_TRUE(recordsEqual(all[i], trace.records()[i]))
            << "record " << i;
    EXPECT_TRUE(stream->error().empty());

    // Measuring through the mmap stream is bit-identical to the
    // in-memory path, including predictor end state.
    const auto in_memory = makeScheme("AT(IHRT(,8SR),PT(2^8,A2),)");
    const AccuracyCounter expected =
        harness::measure(*in_memory, trace);
    stream->rewind();
    const auto streamed = makeScheme("AT(IHRT(,8SR),PT(2^8,A2),)");
    const AccuracyCounter got =
        harness::measureStream(*streamed, *stream);
    EXPECT_EQ(got.hits(), expected.hits());
    EXPECT_EQ(got.total(), expected.total());
    EXPECT_EQ(checkpointBytes(*streamed),
              checkpointBytes(*in_memory));

    // rewind() replays the identical stream.
    stream->rewind();
    const auto replay = makeScheme("AT(IHRT(,8SR),PT(2^8,A2),)");
    const AccuracyCounter again =
        harness::measureStream(*replay, *stream);
    EXPECT_EQ(again.hits(), got.hits());
    EXPECT_EQ(again.total(), got.total());
    std::remove(path.c_str());
}

TEST(ChunkStream, MmapStreamRejectsGarbageAndCorruptRecords)
{
    const std::string dir = testing::TempDir();
    const std::string garbage = dir + "tlat_chunk_garbage.tltr";
    {
        std::ofstream os(garbage, std::ios::binary);
        os << "this is not a TLTR file at all";
    }
    std::string error;
    EXPECT_EQ(MmapChunkStream::open(garbage, 8, &error), nullptr);
    EXPECT_FALSE(error.empty());
    std::remove(garbage.c_str());

    // Valid header, one record with out-of-range flag bits: the
    // stream opens (header is fine) but next() fails with a message
    // naming the record.
    TraceBuffer trace = makeRandomTrace(6, 20);
    const std::string corrupt = saveTemp(trace, "corrupt");
    {
        std::fstream os(corrupt, std::ios::binary | std::ios::in |
                                     std::ios::out);
        // Record 7's flags byte (offset 17 within the record).
        const auto header = [&] {
            std::ifstream is(corrupt, std::ios::binary);
            std::vector<char> head(4096);
            is.read(head.data(),
                    static_cast<std::streamsize>(head.size()));
            return *trace::parseBinaryHeader(
                head.data(), static_cast<std::size_t>(is.gcount()));
        }();
        os.seekp(static_cast<std::streamoff>(
            header.recordsOffset + 7 * trace::kTltrWireRecordSize +
            17));
        os.put(static_cast<char>(0xFF));
    }
    auto stream = MmapChunkStream::open(corrupt, 4, &error);
    ASSERT_NE(stream, nullptr) << error;
    while (stream->next() != nullptr) {
    }
    EXPECT_FALSE(stream->error().empty());
    EXPECT_NE(stream->error().find("7"), std::string::npos)
        << stream->error();
    // rewind clears the error; the first (uncorrupted) chunk streams.
    stream->rewind();
    EXPECT_TRUE(stream->error().empty());
    EXPECT_NE(stream->next(), nullptr);
    std::remove(corrupt.c_str());
}

/** Lanes of one chunk, compiled the pre-one-pass way (hash map). */
struct ReferenceLanes
{
    std::vector<trace::BranchId> ids;
    std::vector<std::uint64_t> pcs;
    std::vector<std::uint64_t> words;
};

ReferenceLanes
referenceLanes(const std::vector<BranchRecord> &conditionals)
{
    ReferenceLanes lanes;
    lanes.words.assign((conditionals.size() + 63) / 64, 0);
    std::unordered_map<std::uint64_t, trace::BranchId> dictionary;
    for (std::size_t i = 0; i < conditionals.size(); ++i) {
        const auto [it, inserted] = dictionary.try_emplace(
            conditionals[i].pc,
            static_cast<trace::BranchId>(lanes.pcs.size()));
        if (inserted)
            lanes.pcs.push_back(conditionals[i].pc);
        lanes.ids.push_back(it->second);
        if (conditionals[i].taken)
            lanes.words[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    return lanes;
}

/**
 * Random mixed-class records, then a run of conditionals whose every
 * pc is distinct (more than one default chunk of them), then random
 * records again: the chunk dictionary must grow past its warm size
 * and still restart cleanly on the next chunk.
 */
TraceBuffer
makeDistinctPcTrace()
{
    TraceBuffer trace = makeRandomTrace(9, 20000);
    trace.setName("distinct-pcs");
    for (std::size_t i = 0; i < kBoundary + 5000; ++i) {
        BranchRecord record;
        record.pc = 0x100000 + 4 * i;
        record.target = record.pc + 8;
        record.cls = BranchClass::Conditional;
        record.taken = i % 3 == 0;
        trace.append(record);
    }
    const TraceBuffer tail = makeRandomTrace(10, 20000);
    for (const BranchRecord &record : tail.records())
        trace.append(record);
    return trace;
}

/**
 * Streams @p path at @p chunk_records and checks every chunk against
 * @p loaded (the whole-file loader): records, conditional span and
 * SoA lanes. Returns the chunk sizes seen.
 */
std::vector<std::size_t>
expectChunksMatchLoad(const std::string &path, const TraceBuffer &loaded,
                      std::size_t chunk_records)
{
    std::string error;
    auto stream = MmapChunkStream::open(path, chunk_records, &error);
    EXPECT_NE(stream, nullptr) << error;
    if (!stream)
        return {};
    std::vector<std::size_t> sizes;
    std::size_t base = 0;
    while (const TraceChunk *chunk = stream->next()) {
        const std::size_t n = chunk->records.size();
        sizes.push_back(n);
        EXPECT_LE(base + n, loaded.size());
        if (base + n > loaded.size())
            break;
        std::vector<BranchRecord> conditionals;
        for (std::size_t i = 0; i < n; ++i) {
            const BranchRecord &want = loaded.records()[base + i];
            EXPECT_TRUE(recordsEqual(chunk->records[i], want))
                << "chunk=" << chunk_records << " record " << base + i;
            if (want.cls == BranchClass::Conditional)
                conditionals.push_back(want);
        }
        const auto view = chunk->view.records();
        EXPECT_TRUE(std::equal(view.begin(), view.end(),
                               conditionals.begin(), conditionals.end()))
            << "chunk=" << chunk_records << " base " << base;
        const ReferenceLanes want = referenceLanes(conditionals);
        const trace::PredecodedTrace &soa = chunk->view.soa();
        EXPECT_EQ(soa.size(), conditionals.size());
        EXPECT_TRUE(std::equal(soa.branchIds().begin(),
                               soa.branchIds().end(), want.ids.begin(),
                               want.ids.end()))
            << "chunk=" << chunk_records << " base " << base;
        EXPECT_TRUE(std::equal(soa.uniquePcs().begin(),
                               soa.uniquePcs().end(), want.pcs.begin(),
                               want.pcs.end()))
            << "chunk=" << chunk_records << " base " << base;
        EXPECT_TRUE(std::equal(soa.outcomeWords().begin(),
                               soa.outcomeWords().end(),
                               want.words.begin(), want.words.end()))
            << "chunk=" << chunk_records << " base " << base;
        base += n;
    }
    EXPECT_TRUE(stream->error().empty()) << stream->error();
    EXPECT_EQ(base, loaded.size()) << "chunk=" << chunk_records;
    return sizes;
}

TEST(ChunkStream, OnePassDecodeMatchesLoaderAndReferenceLanes)
{
    ::unsetenv("TLAT_CHUNK_RECORDS");
    const TraceBuffer trace = makeDistinctPcTrace();
    const std::string path = saveTemp(trace, "onepass");
    std::string error;
    const auto loaded = trace::loadFromFile(path, &error);
    ASSERT_TRUE(loaded) << error;
    for (const std::size_t chunk :
         {kBoundary - 1, kBoundary, kBoundary + 1, std::size_t{0}})
        expectChunksMatchLoad(path, *loaded, chunk);

    // Tiny chunks hop through the decode worker once per chunk; a
    // prefix keeps them quick while still crossing class mixes.
    TraceBuffer prefix("onepass-prefix");
    for (std::size_t i = 0; i < 3000; ++i)
        prefix.append(trace.records()[i]);
    const std::string prefix_path = saveTemp(prefix, "onepass_prefix");
    const auto prefix_loaded = trace::loadFromFile(prefix_path, &error);
    ASSERT_TRUE(prefix_loaded) << error;
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}})
        expectChunksMatchLoad(prefix_path, *prefix_loaded, chunk);
    std::remove(path.c_str());
    std::remove(prefix_path.c_str());
}

TEST(ChunkStream, MmapDefaultChunkIsBounded)
{
    // chunk_records == 0 no longer means one whole-file chunk: a file
    // past one default chunk arrives in several, none larger than it.
    ::unsetenv("TLAT_CHUNK_RECORDS");
    const TraceBuffer trace = makeRandomTrace(11, 2 * kBoundary + 17);
    const std::string path = saveTemp(trace, "bounded");
    std::string error;
    const auto loaded = trace::loadFromFile(path, &error);
    ASSERT_TRUE(loaded) << error;
    const std::vector<std::size_t> sizes =
        expectChunksMatchLoad(path, *loaded, 0);
    ASSERT_GE(sizes.size(), 2u);
    for (const std::size_t size : sizes)
        EXPECT_LE(size, trace::kDefaultMmapChunkRecords);
    EXPECT_EQ(trace::kDefaultMmapChunkRecords, kBoundary / 2);
    // The decode ring holds kSlots decoded chunks at once; the default
    // keeps that at the two 64Ki chunks of the old double buffer, so
    // deepening the ring cannot quietly raise peak memory.
    EXPECT_EQ(MmapChunkStream::kSlots * trace::kDefaultMmapChunkRecords,
              2 * kBoundary);
    EXPECT_EQ(MmapChunkStream::kRingRecords, 2 * kBoundary);
    std::remove(path.c_str());
}

/** Overwrites record @p index's class byte with an invalid class. */
void
corruptRecord(const std::string &path, std::size_t records,
              std::size_t index)
{
    // The record array ends the file, so record i starts at
    // size - (count - i) * wire size; the class byte is at offset 16.
    std::fstream os(path, std::ios::binary | std::ios::in |
                              std::ios::out | std::ios::ate);
    const auto size = static_cast<std::size_t>(os.tellp());
    os.seekp(static_cast<std::streamoff>(
        size - (records - index) * trace::kTltrWireRecordSize + 16));
    os.put(static_cast<char>(0x7F));
    ASSERT_TRUE(os.good());
}

TEST(ChunkStream, CorruptRecordInLaterChunkReportsItsIndex)
{
    // The one-pass decoder validates every record exactly as the
    // whole-file loader does, and names the first bad record by its
    // index in the file, whichever chunk it lands in.
    const TraceBuffer trace = makeRandomTrace(12, kBoundary + 4000);
    const std::string path = saveTemp(trace, "corrupt_late");
    const std::size_t bad = kBoundary + 1234;
    corruptRecord(path, trace.size(), bad);
    std::string error;
    EXPECT_FALSE(trace::loadFromFile(path, &error));
    for (const std::size_t chunk :
         {std::size_t{0}, std::size_t{1000}, kBoundary + 1}) {
        auto stream = MmapChunkStream::open(path, chunk, &error);
        ASSERT_NE(stream, nullptr) << error;
        std::size_t delivered = 0;
        while (const TraceChunk *next = stream->next())
            delivered += next->records.size();
        EXPECT_EQ(stream->error(),
                  "corrupt record at index " + std::to_string(bad))
            << "chunk=" << chunk;
        // Every chunk wholly before the bad record was delivered.
        const std::size_t stride =
            chunk == 0 ? trace::kDefaultMmapChunkRecords : chunk;
        EXPECT_EQ(delivered, bad / stride * stride) << "chunk=" << chunk;
    }
    std::remove(path.c_str());
}

TEST(ChunkStream, RingWorkersStayBelowHardwareThreads)
{
    // One hardware thread is left to the consumer, and the ring never
    // overlaps more decodes with it than it has slots beyond the held
    // one: kSlots - 1 at the default chunk size, one once a chunk is
    // half the ring's record budget.
    const TraceBuffer trace = makeRandomTrace(13, 100);
    const std::string path = saveTemp(trace, "workers");
    const unsigned hardware = util::ThreadPool::hardwareThreads();
    for (const auto &[chunk, slots] :
         {std::pair{std::size_t{10}, MmapChunkStream::kSlots},
          std::pair{trace::kDefaultMmapChunkRecords,
                    MmapChunkStream::kSlots},
          std::pair{MmapChunkStream::kRingRecords / 2, std::size_t{2}},
          std::pair{4 * MmapChunkStream::kRingRecords, std::size_t{2}}}) {
        std::string error;
        auto stream = MmapChunkStream::open(path, chunk, &error);
        ASSERT_NE(stream, nullptr) << error;
        EXPECT_EQ(stream->workers(),
                  std::clamp<std::size_t>(hardware - 1, 1, slots - 1))
            << "chunk=" << chunk;
        EXPECT_EQ(drain(*stream).size(), trace.size());
    }
    std::remove(path.c_str());
}

TEST(ChunkStream, RewindAndDestroyWhileEverySlotIsInFlight)
{
    // The first next() fills the whole ring and hands back its first
    // chunk, so the other slots are all decoding when the stream is
    // rewound or destroyed; both must drain them first.
    const TraceBuffer trace = makeRandomTrace(14, 3000);
    const std::string path = saveTemp(trace, "inflight");
    std::string error;
    const auto loaded = trace::loadFromFile(path, &error);
    ASSERT_TRUE(loaded) << error;
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        auto stream = MmapChunkStream::open(path, chunk, &error);
        ASSERT_NE(stream, nullptr) << error;
        ASSERT_NE(stream->next(), nullptr);
        stream->rewind();
        EXPECT_EQ(drain(*stream), loaded->records()) << "chunk=" << chunk;
        EXPECT_TRUE(stream->error().empty());

        // Rewinding twice in a row, and mid-stream, changes nothing.
        stream->rewind();
        stream->rewind();
        for (std::size_t i = 0; i < MmapChunkStream::kSlots + 1; ++i)
            ASSERT_NE(stream->next(), nullptr);
        stream->rewind();
        EXPECT_EQ(drain(*stream), loaded->records()) << "chunk=" << chunk;

        auto doomed = MmapChunkStream::open(path, chunk, &error);
        ASSERT_NE(doomed, nullptr) << error;
        ASSERT_NE(doomed->next(), nullptr);
        doomed.reset();
        auto fresh = MmapChunkStream::open(path, chunk, &error);
        ASSERT_NE(fresh, nullptr) << error;
        EXPECT_EQ(drain(*fresh), loaded->records()) << "chunk=" << chunk;
    }
    std::remove(path.c_str());
}

TEST(ChunkStream, CorruptChunkInRingIsReportedInOrder)
{
    // After the first next(), chunks 1 .. kSlots - 1 are in flight. A
    // corrupt record in the first or the last of them is reported
    // only when the stream reaches its chunk: every chunk wholly
    // before it is delivered, none after it, although the decodes of
    // the chunks after it may already have finished.
    constexpr std::size_t kChunk = 5;
    const TraceBuffer trace = makeRandomTrace(15, 200);
    const std::size_t first = kChunk + 2;
    const std::size_t last = (MmapChunkStream::kSlots - 1) * kChunk + 1;
    for (const std::size_t bad : {first, last}) {
        const std::string path = saveTemp(trace, "ring_corrupt");
        corruptRecord(path, trace.size(), bad);
        std::string error;
        auto stream = MmapChunkStream::open(path, kChunk, &error);
        ASSERT_NE(stream, nullptr) << error;
        std::vector<BranchRecord> delivered;
        const TraceChunk *chunk = stream->next();
        ASSERT_NE(chunk, nullptr);
        delivered.assign(chunk->records.begin(), chunk->records.end());
        // Let the in-flight decodes, the corrupt one included, finish
        // before the stream reaches the bad chunk.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        while ((chunk = stream->next()) != nullptr)
            delivered.insert(delivered.end(), chunk->records.begin(),
                             chunk->records.end());
        EXPECT_EQ(stream->error(),
                  "corrupt record at index " + std::to_string(bad));
        const std::size_t wanted = bad / kChunk * kChunk;
        ASSERT_EQ(delivered.size(), wanted) << "bad=" << bad;
        for (std::size_t i = 0; i < wanted; ++i)
            ASSERT_TRUE(recordsEqual(delivered[i], trace.records()[i]))
                << "bad=" << bad << " record " << i;
        // The error sticks until rewind, which restarts cleanly.
        EXPECT_EQ(stream->next(), nullptr);
        EXPECT_FALSE(stream->error().empty());
        stream->rewind();
        EXPECT_TRUE(stream->error().empty());
        EXPECT_NE(stream->next(), nullptr);
        stream.reset();
        std::remove(path.c_str());
    }
}

TEST(ChunkStream, DefaultChunkRecordsReadsEnvironment)
{
    ::unsetenv("TLAT_CHUNK_RECORDS");
    EXPECT_EQ(trace::defaultChunkRecords(), 0u);
    ::setenv("TLAT_CHUNK_RECORDS", "65536", 1);
    EXPECT_EQ(trace::defaultChunkRecords(), 65536u);
    ::setenv("TLAT_CHUNK_RECORDS", "not-a-number", 1);
    EXPECT_EQ(trace::defaultChunkRecords(), 0u);
    // Not 2^64 - 1, which would make the whole file one chunk.
    ::setenv("TLAT_CHUNK_RECORDS", "-1", 1);
    EXPECT_EQ(trace::defaultChunkRecords(), 0u);
    ::setenv("TLAT_CHUNK_RECORDS", "", 1);
    EXPECT_EQ(trace::defaultChunkRecords(), 0u);
    ::unsetenv("TLAT_CHUNK_RECORDS");
}

TEST(ChunkStream, SweepBitIdenticalAcrossJobsAndChunking)
{
    // The sweep engine inherits chunking through measure(); every
    // (jobs, chunk) combination must render the identical CSV.
    const std::vector<std::string> schemes{
        "AT(IHRT(,6SR),PT(2^6,A2),)", "GSH(8,A2)"};
    const std::vector<std::string> labels{"AT", "GSH"};
    const auto renderSweep = [&](unsigned jobs) {
        harness::BenchmarkSuite suite(2000);
        const harness::AccuracyReport report = harness::runSweep(
            suite, "chunk-equivalence", schemes, labels, jobs);
        std::ostringstream os;
        report.printCsv(os);
        return os.str();
    };
    ::unsetenv("TLAT_CHUNK_RECORDS");
    const std::string expected = renderSweep(1);
    for (const char *chunk : {"", "333"}) {
        if (*chunk == '\0')
            ::unsetenv("TLAT_CHUNK_RECORDS");
        else
            ::setenv("TLAT_CHUNK_RECORDS", chunk, 1);
        for (const unsigned jobs : {1u, 4u, 8u}) {
            EXPECT_EQ(renderSweep(jobs), expected)
                << "jobs=" << jobs << " chunk='" << chunk << "'";
        }
    }
    ::unsetenv("TLAT_CHUNK_RECORDS");
}

} // namespace
} // namespace tlat
