/**
 * @file
 * Sharded multi-tenant streaming prediction engine — the library
 * behind `tlat serve`.
 *
 * The scenario (ROADMAP item 2): thousands of independent branch
 * streams ("tenants"), each with its own warm predictor and
 * RunMetrics, served by one long-running process. Parallelism here
 * is *across tenants*, not across sweep cells: tenants are assigned
 * to shards, each shard owns one worker thread on the engine's
 * util::ThreadPool and one lock-free SPSC ring (spsc_ring.hh), and
 * the single ingest thread routes each record to its tenant's shard
 * ring. Full rings exert backpressure (the ingest call spins with
 * yield until a slot frees), so memory stays bounded no matter how
 * far the producer runs ahead.
 *
 * Micro-batching: a shard worker does not simulate record-at-a-time.
 * It accumulates each tenant's popped conditionals into a pending
 * buffer and flushes it through the fused simulateBatch path over a
 * per-batch predecoded SoA view, so serving runs the same SoA/SIMD
 * kernels as the offline sweep engine.
 *
 * Determinism contract (pinned by tests/test_serve.cc): a tenant's
 * records are applied in ingest order by exactly one worker at a
 * time, and BranchPredictor::simulateBatch is bit-identical however
 * a record stream is split into batches. Therefore a served stream
 * yields byte-identical checkpoints and metrics JSON to the same
 * trace simulated offline, at any shard count and any batch size.
 * Wall-clock latency is deliberately *not* part of the metrics
 * document — it is run shape, not result.
 *
 * Threading rules (enforced by the drain protocol, documented in
 * DESIGN.md §15): one ingest/control thread drives addTenant /
 * ingest / drain; tenant state is touched only by its shard worker
 * between ingest and drain; every control-plane operation that reads
 * or writes tenant state (snapshot, restore, migrate, reports)
 * requires a drained engine, where the per-shard applied-record
 * counters provide the release/acquire edge that makes the worker's
 * writes visible.
 */

#ifndef TLAT_SERVE_SERVE_ENGINE_HH
#define TLAT_SERVE_SERVE_ENGINE_HH

#include <cstdint>
#include <future>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/branch_predictor.hh"
#include "core/run_metrics.hh"
#include "core/scheme_config.hh"
#include "spsc_ring.hh"
#include "trace/record.hh"
#include "util/json_writer.hh"
#include "util/mutex.hh"
#include "util/stats.hh"
#include "util/thread_annotations.hh"
#include "util/thread_pool.hh"

namespace tlat::serve
{

/**
 * Schema identifier of the serve metrics document
 * (writeMetricsJson). Every field is a pure function of each
 * tenant's record stream — no shard numbers, timestamps or batch
 * sizes — so documents are byte-identical across serving
 * configurations (the contract the CLI integration test pins).
 */
inline constexpr const char *kServeMetricsSchema =
    "tlat-serve-metrics-v1";

/** Engine shape knobs; validate() names the first bad one. */
struct ServeConfig
{
    /** Shard workers (>= 1); tenants hash across them. */
    unsigned shards = 1;
    /** Conditionals per micro-batch flush (>= 1). */
    std::size_t batchRecords = 64;
    /** Per-shard ring capacity; power of two >= 2. */
    std::size_t ringCapacity = 4096;
    /**
     * Record enqueue->applied latency sampling (bench_serve). Off by
     * default: the serving hot path then never reads a clock.
     */
    bool trackLatency = false;

    /** Nullopt-style check: empty string means valid. */
    std::string validate() const;
};

/** Everything the engine reports about one drained tenant. */
struct TenantReport
{
    std::string name;
    /** Records ingested, all branch classes. */
    std::uint64_t records = 0;
    /** Conditional hit/miss tally (accuracy.total() conditionals). */
    AccuracyCounter accuracy;
    /** Predictor-internal counters (collectMetrics snapshot). */
    core::RunMetrics metrics;
};

/**
 * The engine. Construction spins up the shard workers; destruction
 * closes every ring and joins them. See the file comment for the
 * threading rules.
 */
class ServeEngine
{
  public:
    /**
     * @param scheme Parsed scheme every tenant's predictor is built
     *        from (one warm predictor per tenant).
     * @param config Must validate() clean — asserted here.
     */
    ServeEngine(const core::SchemeConfig &scheme,
                const ServeConfig &config);

    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    unsigned shards() const { return config_.shards; }
    const std::string &schemeText() const { return scheme_text_; }

    /**
     * Registers a tenant and returns its handle. The default shard
     * assignment hashes the name, so placement is stable across
     * runs; pass @p shard to place explicitly. Control plane —
     * ingest thread only, but legal while records are in flight
     * (workers touch a tenant only via records routed after its
     * registration).
     */
    std::size_t addTenant(const std::string &name);
    std::size_t addTenant(const std::string &name, unsigned shard);

    std::size_t tenantCount() const;

    /** The shard currently serving @p tenant. */
    unsigned tenantShard(std::size_t tenant) const;

    /**
     * Data plane, single ingest thread: routes one record to the
     * tenant's shard ring, spinning (yield) while the ring is full —
     * the backpressure bound. Never blocks on predictor work.
     */
    void ingest(std::size_t tenant, const trace::BranchRecord &record);

    /** Convenience loop over ingest() for replay/bench drivers. */
    void ingestSpan(std::size_t tenant,
                    std::span<const trace::BranchRecord> records);

    /**
     * Blocks until every ingested record has been applied to its
     * tenant's predictor (pending micro-batches flushed). After
     * drain() the control-plane accessors below are safe. Rethrows
     * the first shard worker failure, if any.
     */
    void drain();

    /**
     * Warm-state snapshot of a drained tenant in the framed
     * checkpoint format (core/checkpoint.hh) — the same bytes an
     * offline predictor over the same stream would save. False when
     * the scheme does not support checkpoints.
     */
    bool snapshotTenant(std::size_t tenant, std::string *bytes) const;

    /**
     * Restores a drained tenant's predictor from snapshot bytes
     * (atomic: untouched on mismatch/corruption). The entry point
     * for warm-state handoff into a fresh engine.
     */
    bool restoreTenant(std::size_t tenant, const std::string &bytes);

    /**
     * Moves a drained tenant to @p new_shard through the checkpoint
     * path: snapshot, rebuild a fresh predictor, restore into it,
     * then reroute — proving the snapshot carries the complete warm
     * state. Schemes without checkpoint support keep their live
     * predictor object and just reroute. False only when a
     * checkpoint round-trip fails (tenant is left untouched).
     */
    bool migrateTenant(std::size_t tenant, unsigned new_shard);

    /** Full report for one drained tenant. */
    TenantReport tenantReport(std::size_t tenant) const;

    /**
     * The tlat-serve-metrics-v1 document over every tenant, sorted
     * by tenant name: schema, scheme, per-tenant accuracy +
     * predictor counters, and stream totals. Requires a drained
     * engine.
     */
    void writeMetricsJson(std::ostream &os) const;
    std::string metricsJsonString() const;

    /**
     * Enqueue->applied latency samples collected so far (empties the
     * store). Meaningful only with config.trackLatency; requires a
     * drained engine. Unsorted nanoseconds.
     */
    std::vector<std::uint64_t> takeLatenciesNs();

    /**
     * Writes one tenant's entry exactly as writeMetricsJson() does —
     * exposed so tests can build the offline twin of a served
     * document from an offline-simulated predictor and compare
     * bytes.
     */
    static void writeTenantJson(JsonWriter &json,
                                const TenantReport &report);

  private:
    struct Tenant;
    struct Shard;

    /** One ring crossing: the tenant plus its next record. */
    struct Item
    {
        Tenant *tenant = nullptr;
        trace::BranchRecord record;
        /** steady-clock ns at enqueue; 0 when latency is off. */
        std::uint64_t enqueueNs = 0;
    };

    void shardLoop(Shard &shard);
    /** Applies one popped item to its tenant (worker context). */
    void applyItem(Shard &shard, const Item &item);
    /** Flushes a tenant's pending micro-batch (worker context). */
    void flushTenant(Shard &shard, Tenant &tenant);
    /** Asserts the drained control-plane precondition. */
    void requireDrained(const char *op) const;

    const core::SchemeConfig scheme_;
    const std::string scheme_text_;
    const ServeConfig config_;

    // Registry mutex: guards the tenant index for the (control
    // thread only, today) registration path; workers reach tenants
    // exclusively through Item::tenant pointers whose visibility
    // rides the ring's release/acquire hand-off, never through this
    // container.
    mutable util::Mutex registry_mutex_;
    std::vector<std::unique_ptr<Tenant>> tenants_
        TLAT_GUARDED_BY(registry_mutex_);

    std::vector<std::unique_ptr<Shard>> shards_;
    /** True when every pushed record is known applied. */
    bool drained_ = true;

    /** Shard-loop completion handles (exceptions surface in drain). */
    std::vector<std::future<void>> workers_;
    /** Declared last: destructs (joins workers) before shard and
     *  tenant state above goes away. */
    util::ThreadPool pool_;
};

} // namespace tlat::serve

#endif // TLAT_SERVE_SERVE_ENGINE_HH
