#include "serve_engine.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "predictors/scheme_factory.hh"
#include "trace/predecode.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace tlat::serve
{

namespace
{

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** FNV-1a over the tenant name — the stable shard placement rule. */
std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : name) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace

std::string
ServeConfig::validate() const
{
    if (shards == 0)
        return "shards must be >= 1";
    if (batchRecords == 0)
        return "batchRecords must be >= 1";
    if (!SpscRing<int>::validCapacity(ringCapacity))
        return "ringCapacity must be a power of two >= 2";
    return {};
}

/**
 * Per-tenant serving state. Ownership protocol: the control thread
 * creates a tenant and from then on touches these fields only while
 * the engine is drained; between ingest() and drain() every field
 * below the predictor is written exclusively by the tenant's shard
 * worker, which reaches the tenant through the ring's Item::tenant
 * pointer (the ring's release/acquire pair is the visibility edge —
 * see spsc_ring.hh).
 */
struct ServeEngine::Tenant
{
    std::string name;
    /** Routing target for *subsequent* ingests (control thread). */
    unsigned shard = 0;
    std::unique_ptr<core::BranchPredictor> predictor;
    /** Conditional tally, worker-owned between drains. */
    AccuracyCounter accuracy;
    /** Records ingested, all classes, worker-owned. */
    std::uint64_t records = 0;
    /** Conditionals awaiting the next micro-batch flush. */
    std::vector<trace::BranchRecord> pending;
    /** Enqueue timestamps of pending[], latency tracking only. */
    std::vector<std::uint64_t> pendingNs;
};

/**
 * Per-shard state. The ring carries records in; `completed` carries
 * progress out (published with release by the worker, observed with
 * acquire by drain() — the edge that makes every tenant field the
 * worker wrote visible to the control thread). Everything else is
 * single-side-owned: `pushed` by the ingest thread, the rest by the
 * shard worker.
 */
struct ServeEngine::Shard
{
    explicit Shard(std::size_t capacity) : ring(capacity) {}

    SpscRing<Item> ring;
    /** Records applied (flushed into a predictor); worker publishes. */
    PaddedAtomicU64 completed;
    /** Latch: nonzero after a worker exception (error has details). */
    PaddedAtomicU64 failed;
    /** Written by the worker before failed is published. */
    std::string error;

    /** Records pushed to this ring; ingest-thread-owned. */
    std::uint64_t pushed = 0;

    // Worker-owned fields (no locks: one consumer per ring).
    std::uint64_t popped = 0;
    std::uint64_t applied = 0;
    /** Tenants with a non-empty pending batch since the last idle
     *  flush (may hold duplicates; empty batches are skipped). */
    std::vector<Tenant *> dirtyTenants;
    /** Enqueue->applied samples, ns; harvested after drain(). */
    std::vector<std::uint64_t> latenciesNs;
};

ServeEngine::ServeEngine(const core::SchemeConfig &scheme,
                         const ServeConfig &config)
    : scheme_(scheme), scheme_text_(scheme.text()), config_(config),
      pool_(config.shards)
{
    const std::string why = config.validate();
    tlat_assert(why.empty(), "bad ServeConfig: ", why);
    // Profile-guided schemes need a training trace before measuring;
    // a live stream has none, so they cannot be served.
    tlat_assert(!predictors::makePredictor(scheme_)->needsTraining(),
                "scheme '", scheme_text_,
                "' requires profile training and cannot be served");
    shards_.reserve(config_.shards);
    for (unsigned i = 0; i < config_.shards; ++i)
        shards_.push_back(
            std::make_unique<Shard>(config_.ringCapacity));
    workers_.reserve(config_.shards);
    for (unsigned i = 0; i < config_.shards; ++i) {
        Shard *shard = shards_[i].get();
        workers_.push_back(
            pool_.submit([this, shard] { shardLoop(*shard); }));
    }
}

ServeEngine::~ServeEngine()
{
    for (const auto &shard : shards_)
        shard->ring.close();
    // pool_ (declared last) joins the shard loops on destruction;
    // waiting here keeps exceptions from escaping the destructor
    // (they were already latched into Shard::failed).
    for (std::future<void> &worker : workers_)
        worker.wait();
}

std::size_t
ServeEngine::addTenant(const std::string &name)
{
    return addTenant(name,
                     static_cast<unsigned>(nameHash(name) %
                                           config_.shards));
}

std::size_t
ServeEngine::addTenant(const std::string &name, unsigned shard)
{
    tlat_assert(shard < config_.shards, "tenant shard out of range");
    auto tenant = std::make_unique<Tenant>();
    tenant->name = name;
    tenant->shard = shard;
    tenant->predictor = predictors::makePredictor(scheme_);
    tenant->predictor->reset();
    const util::MutexLock lock(registry_mutex_);
    tenants_.push_back(std::move(tenant));
    return tenants_.size() - 1;
}

std::size_t
ServeEngine::tenantCount() const
{
    const util::MutexLock lock(registry_mutex_);
    return tenants_.size();
}

unsigned
ServeEngine::tenantShard(std::size_t tenant) const
{
    const util::MutexLock lock(registry_mutex_);
    tlat_assert(tenant < tenants_.size(), "bad tenant handle");
    return tenants_[tenant]->shard;
}

void
ServeEngine::ingest(std::size_t tenant,
                    const trace::BranchRecord &record)
{
    ingestSpan(tenant, {&record, 1});
}

void
ServeEngine::ingestSpan(std::size_t tenant,
                        std::span<const trace::BranchRecord> records)
{
    if (records.empty())
        return;
    Tenant *t;
    {
        const util::MutexLock lock(registry_mutex_);
        tlat_assert(tenant < tenants_.size(), "bad tenant handle");
        t = tenants_[tenant].get();
    }
    Shard &shard = *shards_[t->shard];
    drained_ = false;
    for (const trace::BranchRecord &record : records) {
        Item item;
        item.tenant = t;
        item.record = record;
        item.enqueueNs =
            config_.trackLatency ? steadyNowNs() : 0;
        // Backpressure: a full ring means the shard worker is the
        // bottleneck; yield until it frees a slot rather than grow
        // an unbounded queue.
        while (!shard.ring.tryPush(item))
            std::this_thread::yield();
        ++shard.pushed;
    }
}

void
ServeEngine::drain()
{
    for (const auto &shard : shards_) {
        // `pushed` is ours (ingest thread); `completed` is the
        // worker's release-published progress. Equality plus the
        // acquire load gives the happens-before edge that makes all
        // tenant state written by the worker readable here.
        while (shard->completed.observe() != shard->pushed) {
            if (shard->failed.observe() != 0)
                break;
            std::this_thread::yield();
        }
    }
    for (const auto &shard : shards_) {
        if (shard->failed.observe() != 0)
            throw std::runtime_error("serve shard worker failed: " +
                                     shard->error);
    }
    drained_ = true;
}

void
ServeEngine::requireDrained(const char *op) const
{
    tlat_assert(drained_, op,
                " requires a drained engine (call drain() first)");
}

void
ServeEngine::shardLoop(Shard &shard)
{
    try {
        Item item;
        for (;;) {
            while (shard.ring.tryPop(item))
                applyItem(shard, item);
            // Ring momentarily empty: flush every pending batch so
            // progress (and per-record latency) is bounded by the
            // poll interval, then publish.
            for (Tenant *tenant : shard.dirtyTenants)
                flushTenant(shard, *tenant);
            shard.dirtyTenants.clear();
            shard.completed.publish(shard.applied);
            if (shard.ring.closed()) {
                // close() is release-published after the final push;
                // one more pop round after observing it catches any
                // records that raced the close.
                if (shard.ring.tryPop(item)) {
                    applyItem(shard, item);
                    continue;
                }
                return;
            }
            std::this_thread::yield();
        }
    } catch (const std::exception &error) {
        shard.error = error.what();
    } catch (...) {
        shard.error = "unknown exception";
    }
    // Failure path: latch the error, then keep the ring draining
    // (discarding) so the producer's backpressure loop and drain()
    // terminate instead of spinning forever.
    shard.applied = shard.popped;
    shard.completed.publish(shard.applied);
    shard.failed.publish(1);
    Item item;
    for (;;) {
        while (shard.ring.tryPop(item)) {
            ++shard.popped;
            shard.applied = shard.popped;
        }
        shard.completed.publish(shard.applied);
        if (shard.ring.closed()) {
            while (shard.ring.tryPop(item)) {
                ++shard.popped;
                shard.applied = shard.popped;
            }
            shard.completed.publish(shard.applied);
            return;
        }
        std::this_thread::yield();
    }
}

void
ServeEngine::applyItem(Shard &shard, const Item &item)
{
    Tenant &tenant = *item.tenant;
    ++shard.popped;
    ++tenant.records;
    if (item.record.cls != trace::BranchClass::Conditional) {
        // Non-conditional classes carry no predictor work (exactly
        // like the offline measuring loop): applied immediately.
        ++shard.applied;
        if (config_.trackLatency)
            shard.latenciesNs.push_back(steadyNowNs() -
                                        item.enqueueNs);
        return;
    }
    if (tenant.pending.empty())
        shard.dirtyTenants.push_back(&tenant);
    tenant.pending.push_back(item.record);
    if (config_.trackLatency)
        tenant.pendingNs.push_back(item.enqueueNs);
    if (tenant.pending.size() >= config_.batchRecords) {
        flushTenant(shard, tenant);
        shard.completed.publish(shard.applied);
    }
}

void
ServeEngine::flushTenant(Shard &shard, Tenant &tenant)
{
    const std::span<const trace::BranchRecord> batch(tenant.pending);
    if (batch.empty())
        return;
    // The micro-batch rides the same fused simulateBatch fast paths
    // as the offline sweep engine, through a predecoded view of its
    // own; batch boundaries cannot affect results (the chunk-identity
    // contract).
    tenant.predictor->simulateBatch(
        trace::PredecodedView(
            batch, std::make_shared<const trace::PredecodedTrace>(batch)),
        tenant.accuracy);
    shard.applied += batch.size();
    if (config_.trackLatency) {
        const std::uint64_t now = steadyNowNs();
        for (const std::uint64_t enqueued : tenant.pendingNs)
            shard.latenciesNs.push_back(now - enqueued);
    }
    tenant.pending.clear();
    tenant.pendingNs.clear();
}

bool
ServeEngine::snapshotTenant(std::size_t tenant,
                            std::string *bytes) const
{
    requireDrained("snapshotTenant");
    const util::MutexLock lock(registry_mutex_);
    tlat_assert(tenant < tenants_.size(), "bad tenant handle");
    std::ostringstream os(std::ios::binary);
    if (!tenants_[tenant]->predictor->saveCheckpoint(os))
        return false;
    if (bytes != nullptr)
        *bytes = os.str();
    return true;
}

bool
ServeEngine::restoreTenant(std::size_t tenant,
                           const std::string &bytes)
{
    requireDrained("restoreTenant");
    const util::MutexLock lock(registry_mutex_);
    tlat_assert(tenant < tenants_.size(), "bad tenant handle");
    std::istringstream is(bytes, std::ios::binary);
    return tenants_[tenant]->predictor->loadCheckpoint(is);
}

bool
ServeEngine::migrateTenant(std::size_t tenant, unsigned new_shard)
{
    requireDrained("migrateTenant");
    tlat_assert(new_shard < config_.shards,
                "tenant shard out of range");
    const util::MutexLock lock(registry_mutex_);
    tlat_assert(tenant < tenants_.size(), "bad tenant handle");
    Tenant &t = *tenants_[tenant];
    // Migrate *through the checkpoint format*: the moved tenant's
    // warm state is exactly what a snapshot carries, proving
    // snapshot/restore completeness on every migration. Schemes
    // without checkpoint support keep their live predictor object.
    std::ostringstream os(std::ios::binary);
    if (t.predictor->saveCheckpoint(os)) {
        auto fresh = predictors::makePredictor(scheme_);
        fresh->reset();
        std::istringstream is(os.str(), std::ios::binary);
        if (!fresh->loadCheckpoint(is))
            return false;
        t.predictor = std::move(fresh);
    }
    t.shard = new_shard;
    return true;
}

TenantReport
ServeEngine::tenantReport(std::size_t tenant) const
{
    requireDrained("tenantReport");
    const util::MutexLock lock(registry_mutex_);
    tlat_assert(tenant < tenants_.size(), "bad tenant handle");
    const Tenant &t = *tenants_[tenant];
    TenantReport report;
    report.name = t.name;
    report.records = t.records;
    report.accuracy = t.accuracy;
    t.predictor->collectMetrics(report.metrics);
    return report;
}

void
ServeEngine::writeTenantJson(JsonWriter &json,
                             const TenantReport &report)
{
    json.beginObject();
    json.member("tenant", report.name);
    json.member("records", report.records);
    core::writeAccuracyJson(json, report.accuracy);
    core::writePredictorJson(json, report.metrics);
    json.endObject();
}

void
ServeEngine::writeMetricsJson(std::ostream &os) const
{
    requireDrained("writeMetricsJson");
    // Collect first (tenantReport locks per call), then emit in
    // name order: the document must not depend on registration
    // order, shard placement or batch size.
    std::vector<TenantReport> reports;
    const std::size_t count = tenantCount();
    reports.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        reports.push_back(tenantReport(i));
    std::sort(reports.begin(), reports.end(),
              [](const TenantReport &a, const TenantReport &b) {
                  return a.name < b.name;
              });

    std::uint64_t total_records = 0;
    AccuracyCounter totals;
    for (const TenantReport &report : reports) {
        total_records += report.records;
        totals.merge(report.accuracy);
    }

    JsonWriter json(os);
    json.beginObject();
    json.member("schema", kServeMetricsSchema);
    json.member("scheme", scheme_text_);
    json.key("totals").beginObject();
    json.member("tenants",
                static_cast<std::uint64_t>(reports.size()));
    json.member("records", total_records);
    json.member("conditional_branches", totals.total());
    json.member("hits", totals.hits());
    json.member("misses", totals.misses());
    json.endObject();
    json.key("tenants").beginArray();
    for (const TenantReport &report : reports)
        writeTenantJson(json, report);
    json.endArray();
    json.endObject();
    os << "\n";
}

std::string
ServeEngine::metricsJsonString() const
{
    std::ostringstream os;
    writeMetricsJson(os);
    return os.str();
}

std::vector<std::uint64_t>
ServeEngine::takeLatenciesNs()
{
    requireDrained("takeLatenciesNs");
    std::vector<std::uint64_t> all;
    for (const auto &shard : shards_) {
        all.insert(all.end(), shard->latenciesNs.begin(),
                   shard->latenciesNs.end());
        shard->latenciesNs.clear();
    }
    return all;
}

} // namespace tlat::serve
