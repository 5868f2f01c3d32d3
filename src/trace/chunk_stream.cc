#include "chunk_stream.hh"

#include <algorithm>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/env.hh"

namespace tlat::trace
{

namespace
{

/** Empty-string singleton for error() on never-failing streams. */
const std::string &
emptyString()
{
    static const std::string empty;
    return empty;
}

} // namespace

// ---- BufferChunkStream --------------------------------------------

BufferChunkStream::BufferChunkStream(const TraceBuffer &trace,
                                     std::size_t chunk_records)
    : trace_(trace), chunk_records_(chunk_records)
{
}

const std::string &
BufferChunkStream::name() const
{
    return trace_.name();
}

const InstructionMix &
BufferChunkStream::mix() const
{
    return trace_.mix();
}

std::uint64_t
BufferChunkStream::recordCount() const
{
    return trace_.size();
}

const TraceChunk *
BufferChunkStream::next()
{
    if (trace_.empty()) {
        current_.reset();
        return nullptr;
    }
    if (chunk_records_ == 0) {
        // Whole-buffer degenerate chunk: re-shares the buffer's
        // cached predecode artifact, so this path allocates nothing
        // beyond the legacy measure() call it replaces.
        if (whole_buffer_done_) {
            current_.reset();
            return nullptr;
        }
        whole_buffer_done_ = true;
        current_.emplace(trace_.records(), trace_.predecodedView());
        return &*current_;
    }
    if (next_base_ >= trace_.size()) {
        current_.reset();
        return nullptr;
    }
    const std::size_t base = next_base_;
    const std::size_t n =
        std::min(chunk_records_, trace_.size() - base);
    next_base_ = base + n;
    const std::span<const BranchRecord> all(
        trace_.records().data() + base, n);
    conditionals_.clear();
    for (const BranchRecord &record : all) {
        if (record.cls == BranchClass::Conditional)
            conditionals_.push_back(record);
    }
    auto soa = std::make_shared<PredecodedTrace>(conditionals_);
    current_.emplace(all,
                     PredecodedView(conditionals_, std::move(soa)));
    return &*current_;
}

void
BufferChunkStream::rewind()
{
    next_base_ = 0;
    whole_buffer_done_ = false;
    current_.reset();
}

const std::string &
BufferChunkStream::error() const
{
    return emptyString();
}

// ---- MmapChunkStream ----------------------------------------------

std::unique_ptr<MmapChunkStream>
MmapChunkStream::open(const std::string &path,
                      std::size_t chunk_records, std::string *error)
{
    const auto fail = [&](const std::string &why)
        -> std::unique_ptr<MmapChunkStream> {
        if (error)
            *error = why;
        return nullptr;
    };
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open file");
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return fail("cannot stat file (or it is empty)");
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
        ::close(fd);
        return fail("mmap failed");
    }
    const auto *data = static_cast<const char *>(map);
    auto header = parseBinaryHeader(data, size);
    if (!header) {
        ::munmap(map, size);
        ::close(fd);
        return fail("malformed or truncated TLTR header");
    }
    // The access pattern is one forward pass per iteration; tell the
    // kernel so read-ahead stays aggressive and eviction cheap.
    ::madvise(map, size, MADV_SEQUENTIAL);
    return std::unique_ptr<MmapChunkStream>(new MmapChunkStream(
        data, size, fd, *std::move(header), chunk_records));
}

MmapChunkStream::MmapChunkStream(const char *data,
                                 std::size_t map_size, int fd,
                                 TltrHeader header,
                                 std::size_t chunk_records)
    : data_(data), map_size_(map_size), fd_(fd),
      header_(std::move(header)),
      chunk_records_(chunk_records != 0 ? chunk_records
                                        : kDefaultMmapChunkRecords),
      depth_(std::clamp<std::size_t>(kRingRecords / chunk_records_, 2,
                                     kSlots)),
      // One hardware thread stays with the consumer; the ring never
      // has more than depth_ - 1 decodes to overlap with it.
      pool_(std::clamp(util::ThreadPool::hardwareThreads() - 1, 1u,
                       static_cast<unsigned>(depth_ - 1)))
{
}

MmapChunkStream::~MmapChunkStream()
{
    drainRing();
    if (data_ != nullptr)
        ::munmap(const_cast<char *>(data_), map_size_);
    if (fd_ >= 0)
        ::close(fd_);
}

const std::string &
MmapChunkStream::name() const
{
    return header_.name;
}

const InstructionMix &
MmapChunkStream::mix() const
{
    return header_.mix;
}

std::uint64_t
MmapChunkStream::recordCount() const
{
    return header_.recordCount;
}

void
MmapChunkStream::decodeInto(Slot &slot, std::uint64_t base,
                            std::size_t count)
{
    slot.base = base;
    slot.ok = true;
    // One walk over the wire bytes fills every face of the chunk: the
    // full-class record span, the conditional span, and the SoA lanes
    // (ids, outcome words, unique-pc dictionary). The lanes object is
    // reused when no consumer still holds it, so a steady-state chunk
    // allocates nothing.
    slot.records.resize(count);
    slot.conditionals.resize(count);
    if (!slot.soa || slot.soa.use_count() != 1)
        slot.soa = std::make_shared<PredecodedTrace>();
    PredecodedTrace &soa = *slot.soa;
    soa.reset(count);
    slot.dictionary.clear();
    BranchRecord *records = slot.records.data();
    BranchRecord *conditionals = slot.conditionals.data();
    std::size_t conditional_count = 0;
    const char *in = data_ + header_.recordsOffset +
                     static_cast<std::size_t>(base) *
                         kTltrWireRecordSize;
    for (std::size_t i = 0; i < count;
         ++i, in += kTltrWireRecordSize) {
        BranchRecord &record = records[i];
        if (!unpackWireRecord(in, record)) {
            slot.ok = false;
            slot.badRecord = base + i;
            return;
        }
        if (record.cls == BranchClass::Conditional) {
            conditionals[conditional_count++] = record;
            soa.append(record.pc, record.taken, slot.dictionary);
        }
    }
    slot.conditionals.resize(conditional_count);
    soa.finish();
}

void
MmapChunkStream::scheduleDecodes()
{
    while (in_flight_ < depth_ && next_base_ < header_.recordCount) {
        Slot &slot = slots_[(head_ + in_flight_) % depth_];
        ++in_flight_;
        const std::uint64_t base = next_base_;
        const auto count = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk_records_,
                                    header_.recordCount - base));
        next_base_ = base + count;
        slot.decoded = pool_.submit([this, &slot, base, count] {
            {
                const util::MutexLock lock(slot.mutex);
                decodeInto(slot, base, count);
            }
            // The chunk now lives in the slot: drop the file pages
            // only it uses at once, not when the consumer gets to it,
            // so a full ring holds decoded chunks, not their bytes.
            releaseRecords(base, base + count);
        });
    }
}

void
MmapChunkStream::drainRing()
{
    for (Slot &slot : slots_) {
        if (!slot.decoded.valid())
            continue;
        try {
            slot.decoded.get();
        } catch (...) {
            // Swallowed on teardown/rewind paths only; next() uses
            // get() directly and lets decode exceptions propagate.
        }
    }
    head_ = 0;
    in_flight_ = 0;
}

void
MmapChunkStream::releaseRecords(std::uint64_t begin,
                                std::uint64_t end)
{
    if (begin >= end)
        return;
    static const auto page =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t lo = header_.recordsOffset +
                           static_cast<std::size_t>(begin) *
                               kTltrWireRecordSize;
    const std::size_t hi = header_.recordsOffset +
                           static_cast<std::size_t>(end) *
                               kTltrWireRecordSize;
    // Only whole pages strictly inside [lo, hi) are safe to drop: the
    // straddling edge pages still back the neighbouring chunks.
    const std::size_t lo_page = (lo + page - 1) / page * page;
    const std::size_t hi_page = hi / page * page;
    if (lo_page >= hi_page)
        return;
    ::madvise(const_cast<char *>(data_) + lo_page, hi_page - lo_page,
              MADV_DONTNEED);
}

const TraceChunk *
MmapChunkStream::next()
{
    if (!error_.empty())
        return nullptr;
    // The slot of the chunk delivered last is free again: refill it,
    // and every other free slot, before waiting.
    current_.reset();
    scheduleDecodes();
    if (in_flight_ == 0)
        return nullptr;
    Slot &slot = slots_[head_];
    head_ = (head_ + 1) % depth_;
    --in_flight_;
    // The ordering edge: wait only for the oldest chunk, whichever
    // later ones have already finished. A decode that threw ends the
    // stream here, so no later chunk is delivered past the hole.
    try {
        slot.decoded.get();
    } catch (...) {
        error_ = "chunk decode failed";
        throw;
    }
    // The lock makes the slot read provable to the thread-safety
    // analysis; the slot is not rescheduled while the caller holds
    // its chunk.
    const util::MutexLock lock(slot.mutex);
    if (!slot.ok) {
        error_ = "corrupt record at index " +
                 std::to_string(slot.badRecord);
        return nullptr;
    }
    // Everything before this chunk has been decoded and consumed;
    // drop its file pages so residency stays bounded.
    releaseRecords(released_below_, slot.base);
    released_below_ = slot.base;
    current_.emplace(std::span<const BranchRecord>(slot.records),
                     PredecodedView(slot.conditionals, slot.soa));
    return &*current_;
}

void
MmapChunkStream::rewind()
{
    drainRing();
    next_base_ = 0;
    released_below_ = 0;
    current_.reset();
    error_.clear();
}

const std::string &
MmapChunkStream::error() const
{
    return error_;
}

// ---- Environment knob ---------------------------------------------

std::size_t
defaultChunkRecords()
{
    // A malformed value degrades to 0 (each stream's own default) by
    // design: the knob is a perf hint, never a correctness switch.
    return static_cast<std::size_t>(
        util::envUnsigned("TLAT_CHUNK_RECORDS").value_or(0));
}

} // namespace tlat::trace
