/**
 * @file
 * Chunked trace delivery: iterate a branch trace as a sequence of
 * bounded-size chunks instead of one resident buffer, so simulation
 * memory stays O(chunk) no matter how long the trace is.
 *
 * Each TraceChunk carries both faces a measuring loop needs:
 *  - the full class-mix record span of the chunk (metrics loops walk
 *    every record to attribute windows and profiles);
 *  - a PredecodedView of the chunk's conditional records (the fused
 *    simulateBatch fast path consumes SoA lanes).
 *
 * Determinism contract: for any chunk size and any worker count, the
 * concatenation of chunk records equals the whole trace in order, so
 * replaying a predictor chunk-by-chunk is bit-identical to one
 * simulateBatch over the whole buffer — predictor state is carried in
 * the predictor itself, never in the stream. Per-chunk predecode
 * restarts the dense-id dictionary each chunk; that only changes
 * which probes are first-touch *within a chunk*, and the IHRT fused
 * path counts repeat probes identically either way (see
 * TwoLevelPredictor::trySimdBatch).
 *
 * Two implementations:
 *  - BufferChunkStream slices an in-memory TraceBuffer (chunk size 0
 *    degenerates to the whole buffer, re-sharing its cached predecode
 *    artifact — the sweep path, at zero extra cost);
 *  - MmapChunkStream maps a TLTR v2 file read-only and decodes the
 *    next chunks on a ring of up to MmapChunkStream::kSlots slots,
 *    up to kSlots - 1 of them at once on a small ThreadPool, while
 *    the caller simulates the chunk it holds. Chunks are delivered in
 *    file order whatever order their decodes finish in. Consumed
 *    pages are released with madvise(MADV_DONTNEED), so resident
 *    memory is bounded by the ring regardless of file size. Its
 *    chunks are always bounded: 0 means kDefaultMmapChunkRecords.
 *    Each chunk is decoded in one pass from wire bytes straight into
 *    records, conditionals and SoA lanes.
 */

#ifndef TLAT_TRACE_CHUNK_STREAM_HH
#define TLAT_TRACE_CHUNK_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "predecode.hh"
#include "record.hh"
#include "trace_buffer.hh"
#include "trace_io.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"
#include "util/thread_pool.hh"

namespace tlat::trace
{

/**
 * Records per MmapChunkStream chunk when the caller passes 0. Measured
 * on a 2.86M-record file: 16Ki to 256Ki chunks run within noise of
 * each other and well over twice as fast as one whole-file chunk,
 * which neither overlaps decode with simulation nor stays in cache;
 * 1Mi is already 2x slower than 64Ki. 32Ki keeps the decode ring's
 * kSlots (4) decoded chunks at the 2 x 64Ki records the two-slot
 * double buffer held before it; four 64Ki chunks would hold twice
 * that.
 */
inline constexpr std::size_t kDefaultMmapChunkRecords =
    std::size_t{1} << 15;

/** One delivered chunk: full record span + predecoded conditionals. */
struct TraceChunk
{
    TraceChunk(std::span<const BranchRecord> all,
               PredecodedView conditional_view)
        : records(all), view(std::move(conditional_view))
    {
    }

    /** Every record of the chunk, all branch classes, trace order. */
    std::span<const BranchRecord> records;
    /** The chunk's conditional records, predecoded. */
    PredecodedView view;
};

/**
 * Pull-iterator over a trace's chunks. Single-consumer: next() and
 * rewind() must not race each other. The chunk returned by next()
 * (and everything it references) stays valid until the next call to
 * next() or rewind().
 */
class ChunkStream
{
  public:
    virtual ~ChunkStream() = default;

    /** Trace name (TLTR header / TraceBuffer name). */
    virtual const std::string &name() const = 0;

    /** Dynamic instruction mix of the whole trace. */
    virtual const InstructionMix &mix() const = 0;

    /** Total records in the whole trace, all classes. */
    virtual std::uint64_t recordCount() const = 0;

    /**
     * The next chunk, or nullptr at end of trace or on error
     * (distinguish with error()). Never returns an empty chunk for a
     * non-empty trace.
     */
    virtual const TraceChunk *next() = 0;

    /** Restarts iteration from the first chunk (clears any error). */
    virtual void rewind() = 0;

    /** Non-empty after a failed next() (corrupt record, I/O). */
    virtual const std::string &error() const = 0;
};

/**
 * Chunks an in-memory TraceBuffer. chunk_records == 0 means "one
 * chunk: the whole buffer", which re-shares the buffer's cached
 * predecode artifact instead of copying anything — byte-for-byte and
 * allocation-for-allocation the legacy whole-buffer path.
 */
class BufferChunkStream final : public ChunkStream
{
  public:
    /** @p trace must outlive the stream. */
    BufferChunkStream(const TraceBuffer &trace,
                      std::size_t chunk_records);

    const std::string &name() const override;
    const InstructionMix &mix() const override;
    std::uint64_t recordCount() const override;
    const TraceChunk *next() override;
    void rewind() override;
    const std::string &error() const override;

  private:
    const TraceBuffer &trace_;
    std::size_t chunk_records_;
    /** Next record index to deliver; == size() when drained. */
    std::size_t next_base_ = 0;
    bool whole_buffer_done_ = false;
    /** Per-chunk conditional mirror (chunked mode only). */
    std::vector<BranchRecord> conditionals_;
    std::optional<TraceChunk> current_;
    std::string error_;
};

/**
 * Streams a TLTR v2 file through an mmap window with a ring of
 * decode-ahead slots: while the caller simulates the chunk it holds,
 * the next chunks (up to kSlots - 1) are unpacked and predecoded on
 * an internal ThreadPool with one worker per such chunk, but one
 * fewer than the host's hardware threads (at least one). next() waits
 * only for the oldest slot, so chunks arrive in file order and a
 * corrupt chunk is reported only when it is reached in order, never
 * earlier. Each slot owns its buffers, its id dictionary and its
 * lock, so decodes never share state. A decoded chunk's file pages
 * are released with madvise(MADV_DONTNEED), so peak resident memory
 * is kRingRecords decoded records (two chunks, for larger chunks)
 * plus the pages in decode — constant in the trace length.
 */
class MmapChunkStream final : public ChunkStream
{
  public:
    /** Ring depth at the default chunk size: chunks decoded or held
     *  at once. */
    static constexpr std::size_t kSlots = 4;
    /**
     * Decoded records the ring may hold at once. A stream with chunks
     * larger than the default uses fewer slots (never fewer than
     * two), so no chunk size holds more than this or two chunks.
     */
    static constexpr std::size_t kRingRecords =
        kSlots * kDefaultMmapChunkRecords;

    /**
     * Maps @p path and validates its TLTR header.
     * @param chunk_records Records per chunk; 0 means
     *        kDefaultMmapChunkRecords. Every chunk is bounded, so
     *        decoded memory is O(chunk) whatever the file size.
     * @param error Receives a reason on failure (when non-null).
     * @return The stream, or nullptr on open/mmap/header failure.
     */
    static std::unique_ptr<MmapChunkStream>
    open(const std::string &path, std::size_t chunk_records,
         std::string *error = nullptr);

    ~MmapChunkStream() override;

    MmapChunkStream(const MmapChunkStream &) = delete;
    MmapChunkStream &operator=(const MmapChunkStream &) = delete;

    const std::string &name() const override;
    const InstructionMix &mix() const override;
    std::uint64_t recordCount() const override;
    const TraceChunk *next() override;
    void rewind() override;
    const std::string &error() const override;

    /** Decode workers: one per slot beyond the held one, but one
     *  fewer than the host's hardware threads (at least one). */
    unsigned workers() const { return pool_.size(); }

  private:
    /**
     * One ring slot: the decoded form of one chunk. A decode worker
     * fills it under its mutex; the consumer waits on `decoded` (the
     * real ordering edge) and then reads it under the same mutex, so
     * every access is provably serialized. The slot the consumer
     * holds is not rescheduled until the next next() or rewind().
     */
    struct Slot
    {
        util::Mutex mutex;
        std::vector<BranchRecord> records TLAT_GUARDED_BY(mutex);
        std::vector<BranchRecord> conditionals TLAT_GUARDED_BY(mutex);
        /** Reused across chunks while no consumer still holds it. */
        std::shared_ptr<PredecodedTrace> soa TLAT_GUARDED_BY(mutex);
        /** pc -> chunk-local id map, cleared per chunk, kept warm. */
        BranchIdDictionary dictionary TLAT_GUARDED_BY(mutex);
        /** First record index of the chunk. */
        std::uint64_t base TLAT_GUARDED_BY(mutex) = 0;
        /** False when a packed record failed to unpack. */
        bool ok TLAT_GUARDED_BY(mutex) = true;
        /** Record index of the first corrupt record when !ok. */
        std::uint64_t badRecord TLAT_GUARDED_BY(mutex) = 0;
        /** The in-flight decode; consumer thread only. */
        std::future<void> decoded;
    };

    MmapChunkStream(const char *data, std::size_t map_size, int fd,
                    TltrHeader header, std::size_t chunk_records);

    /** Decodes records [base, base+count) into @p slot. */
    void decodeInto(Slot &slot, std::uint64_t base, std::size_t count)
        TLAT_REQUIRES(slot.mutex);
    /** Queues decodes into every free slot while records remain. */
    void scheduleDecodes();
    /** Waits for every in-flight decode and empties the ring. */
    void drainRing();
    /** Releases the mapped pages of records [begin, end). */
    void releaseRecords(std::uint64_t begin, std::uint64_t end);

    const char *data_;
    std::size_t map_size_;
    int fd_;
    TltrHeader header_;
    std::size_t chunk_records_;
    /** Slots in use: kRingRecords / chunk_records_ within [2, kSlots]. */
    std::size_t depth_;

    // Slots are declared before the pool: members destruct in reverse
    // order, so the pool (and any decode task touching a slot) drains
    // before the slots go away.
    Slot slots_[kSlots];
    /** Slot of the oldest in-flight decode (the next to deliver). */
    std::size_t head_ = 0;
    /** Decodes scheduled and not yet delivered. */
    std::size_t in_flight_ = 0;
    /** First record index not yet scheduled for decode. */
    std::uint64_t next_base_ = 0;
    /** Start of the previously delivered chunk (page release). */
    std::uint64_t released_below_ = 0;
    std::optional<TraceChunk> current_;
    std::string error_;
    util::ThreadPool pool_;
};

/**
 * Chunk size, in records, that streaming call sites should use when
 * the caller gave no explicit bound: the TLAT_CHUNK_RECORDS
 * environment variable when set to a positive integer, else 0 — which
 * each stream reads as its own default: the whole buffer for
 * BufferChunkStream (re-sharing the cached predecode), and
 * kDefaultMmapChunkRecords for MmapChunkStream.
 */
std::size_t defaultChunkRecords();

} // namespace tlat::trace

#endif // TLAT_TRACE_CHUNK_STREAM_HH
