/**
 * @file
 * In-memory span tracing for the perfbench driver.
 *
 * A span is one timed call into a library layer: the op it belongs
 * to, the layer name, start and end on the steady clock, the span
 * that was open when it began (its parent) and a work count (records,
 * branches, cells). Spans stay in a vector until the run ends; the
 * driver then reduces them to per-layer self times. A layer's self
 * time is its span's duration minus the part of that interval covered
 * by its child spans (children may nest or overlap; the covered part
 * is the union of their intervals, clipped to the parent).
 *
 * TimedChunkStream wraps any trace::ChunkStream and records one
 * "trace.next" span per next() call, so the decode time that the
 * stream's decode-ahead worker does not hide shows up as a child of
 * whatever measuring loop pulls the chunks.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/chunk_stream.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::uint32_t op = 0;
    /** Static string: the layer name ("trace.next", ...). */
    const char *layer = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 for a root. */
    std::int32_t parent = -1;
    /** Work done inside the span (records, branches, cells). */
    std::uint64_t items = 0;
};

/** Records spans on one thread; disabled tracers record nothing. */
class Tracer
{
  public:
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Spans begun from now on belong to op @p op. */
    void setOp(std::uint32_t op) { op_ = op; }

    /** Opens a span; returns its index, or -1 when disabled. */
    std::int32_t
    begin(const char *layer)
    {
        if (!enabled_)
            return -1;
        Span span;
        span.op = op_;
        span.layer = layer;
        span.parent = open_.empty() ? -1 : open_.back();
        span.startNs = nowNs();
        spans_.push_back(span);
        const auto index = static_cast<std::int32_t>(spans_.size() - 1);
        open_.push_back(index);
        return index;
    }

    /** Closes span @p index (the innermost open one). */
    void
    end(std::int32_t index, std::uint64_t items = 0)
    {
        if (index < 0)
            return;
        Span &span = spans_[static_cast<std::size_t>(index)];
        span.endNs = nowNs();
        span.items = items;
        open_.pop_back();
    }

    /** Adds a span timed by the caller to the current op (a root
     *  span: it covers no other span's self time). */
    void
    add(Span span)
    {
        if (!enabled_)
            return;
        span.op = op_;
        span.parent = -1;
        spans_.push_back(span);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_ = false;
    std::uint32_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
};

/** RAII span: begins on construction, ends on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *layer)
        : tracer_(tracer), index_(tracer.begin(layer))
    {
    }
    ~Scope() { tracer_.end(index_, items_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void setItems(std::uint64_t items) { items_ = items; }

  private:
    Tracer &tracer_;
    std::int32_t index_;
    std::uint64_t items_ = 0;
};

/**
 * Self time of every span, in span order: duration minus the union of
 * its children's intervals clipped to its own.
 */
inline std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &span : spans) {
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.startNs, span.endNs);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        auto &intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        std::int64_t covered = 0;
        std::int64_t reach = span.startNs;
        for (const auto &[start, end] : intervals) {
            const std::int64_t from = std::max(start, reach);
            const std::int64_t to = std::min(end, span.endNs);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        self[i] = (span.endNs - span.startNs) - covered;
    }
    return self;
}

/** A ChunkStream that records a "trace.next" span per next(). */
class TimedChunkStream final : public tlat::trace::ChunkStream
{
  public:
    /** @p inner and @p tracer must outlive the wrapper. */
    TimedChunkStream(tlat::trace::ChunkStream &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    const std::string &name() const override { return inner_.name(); }
    const tlat::trace::InstructionMix &
    mix() const override
    {
        return inner_.mix();
    }
    std::uint64_t
    recordCount() const override
    {
        return inner_.recordCount();
    }
    const tlat::trace::TraceChunk *
    next() override
    {
        const std::int32_t span = tracer_.begin("trace.next");
        const tlat::trace::TraceChunk *chunk = inner_.next();
        tracer_.end(span, chunk ? chunk->records.size() : 0);
        return chunk;
    }
    void rewind() override { inner_.rewind(); }
    const std::string &error() const override { return inner_.error(); }

  private:
    tlat::trace::ChunkStream &inner_;
    Tracer &tracer_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
