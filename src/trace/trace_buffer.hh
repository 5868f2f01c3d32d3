/**
 * @file
 * In-memory branch trace: the branch records of one program run plus
 * its dynamic instruction mix.
 */

#ifndef TLAT_TRACE_TRACE_BUFFER_HH
#define TLAT_TRACE_TRACE_BUFFER_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "predecode.hh"
#include "record.hh"

namespace tlat::trace
{

/** A complete branch trace held in memory. */
class TraceBuffer
{
  public:
    TraceBuffer() = default;
    explicit TraceBuffer(std::string name) : name_(std::move(name)) {}

    // Copies get a fresh predecode slot (a diverging copy must never
    // poison the original's cached artifact); moves carry the slot
    // with the records it mirrors.
    TraceBuffer(const TraceBuffer &other)
        : name_(other.name_), records_(other.records_),
          conditional_(other.conditional_), mirrored_(other.mirrored_),
          mix_(other.mix_)
    {
    }

    TraceBuffer &
    operator=(const TraceBuffer &other)
    {
        if (this != &other) {
            name_ = other.name_;
            records_ = other.records_;
            conditional_ = other.conditional_;
            mirrored_ = other.mirrored_;
            mix_ = other.mix_;
            predecode_ = std::make_shared<PredecodeCache>();
        }
        return *this;
    }

    TraceBuffer(TraceBuffer &&) = default;
    TraceBuffer &operator=(TraceBuffer &&) = default;

    /**
     * Appends one record. While every record so far is conditional
     * the records are stored once and conditionalView() aliases them;
     * the first non-conditional record copies them into a separate
     * conditional mirror, which append() maintains from then on.
     */
    void append(const BranchRecord &record)
    {
        const bool conditional =
            record.cls == BranchClass::Conditional;
        if (!conditional && !mirrored_) {
            conditional_.assign(records_.begin(), records_.end());
            mirrored_ = true;
        }
        records_.push_back(record);
        if (conditional && mirrored_)
            conditional_.push_back(record);
    }

    /**
     * Pre-sizes the record storage: the full record vector to
     * @p records and the conditional-only mirror to @p conditional.
     * One allocation per vector beats the doubling-growth copies (and
     * fresh page faults) a multi-million record trace would otherwise
     * pay on each. A bulk loader that knows only the record count
     * passes it for both, since every record may be conditional; a
     * trace known to hold conditional records only passes 0 for the
     * mirror, which it never builds.
     */
    void
    reserve(std::size_t records, std::size_t conditional)
    {
        records_.reserve(records);
        conditional_.reserve(conditional);
    }

    /** Allocated record capacity (reserve() regression tests). */
    std::size_t recordCapacity() const { return records_.capacity(); }

    /** Allocated conditional-mirror capacity (reserve() tests). */
    std::size_t
    conditionalCapacity() const
    {
        return conditional_.capacity();
    }

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    const std::vector<BranchRecord> &records() const
    {
        return records_;
    }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    const BranchRecord &operator[](std::size_t index) const
    {
        return records_[index];
    }

    InstructionMix &mix() { return mix_; }
    const InstructionMix &mix() const { return mix_; }

    /** Number of conditional-branch records. */
    std::uint64_t conditionalCount() const;

    /**
     * Dense conditional-only view of the trace, in trace order.
     *
     * For a trace of conditional records only (the suite's traces)
     * the view is the record storage itself. Otherwise it is the
     * mirror append() maintains — one record copy at construction
     * time and nothing afterwards. Either way the batch simulation
     * hot path (BranchPredictor::simulateBatch) streams a contiguous
     * array of conditional records instead of re-filtering the full
     * class mix on every measurement. Because it is built with the
     * buffer and only ever read afterwards, sharing a preloaded
     * TraceBuffer read-only across sweep workers stays race-free.
     */
    std::span<const BranchRecord>
    conditionalView() const
    {
        if (mirrored_)
            return conditional_;
        return records_;
    }

    /**
     * The predecoded (SoA) form of the conditional stream, compiled
     * on first request and cached for the buffer's lifetime (see
     * predecode.hh). Thread-safe on a const buffer: concurrent sweep
     * cells build it once and share it read-only; preload() calls it
     * eagerly so cells never pay the build. Appending more
     * conditional records invalidates the cache (detected by length)
     * and the next request recompiles.
     */
    std::shared_ptr<const PredecodedTrace>
    predecoded() const
    {
        return cacheSlot().get(conditionalView());
    }

    /** The predecoded lanes paired with their AoS fallback span. */
    PredecodedView
    predecodedView() const
    {
        return PredecodedView(conditionalView(), predecoded());
    }

    void
    clear()
    {
        records_.clear();
        conditional_.clear();
        mirrored_ = false;
        mix_ = InstructionMix{};
        if (predecode_)
            predecode_->invalidate();
    }

  private:
    PredecodeCache &
    cacheSlot() const
    {
        // Only a moved-from buffer has a null slot; re-arming it is
        // not thread-safe, but moved-from buffers are by definition
        // not shared yet.
        if (!predecode_)
            predecode_ = std::make_shared<PredecodeCache>();
        return *predecode_;
    }

    std::string name_;
    std::vector<BranchRecord> records_;
    /**
     * Conditional records only, contiguous (conditionalView()); used
     * only once mirrored_ is set.
     */
    std::vector<BranchRecord> conditional_;
    /** True once a non-conditional record was appended. */
    bool mirrored_ = false;
    InstructionMix mix_;
    /** Build-once predecode artifact (shared_ptr keeps us movable). */
    mutable std::shared_ptr<PredecodeCache> predecode_ =
        std::make_shared<PredecodeCache>();
};

} // namespace tlat::trace

#endif // TLAT_TRACE_TRACE_BUFFER_HH
