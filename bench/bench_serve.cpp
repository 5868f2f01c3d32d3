/**
 * @file
 * Load generator for the multi-tenant serving engine (`src/serve`).
 * Not a paper artifact — a software performance check for the serve
 * path itself, the serving twin of bench_throughput:
 *
 *  - builds one trace per tenant (cycling over the SPEC'89 mirror
 *    workloads, budget from TLAT_BRANCH_BUDGET),
 *  - streams all tenants interleaved through the sharded engine with
 *    per-record latency tracking on,
 *  - reports tenants/sec, records/sec, p50/p99 enqueue-to-applied
 *    latency, the served-vs-offline throughput ratio and peak RSS.
 *
 * The scalars land in BENCH_serve.json ("figure": "serve");
 * tools/check_throughput.py gates tenants_per_sec (downward) and
 * p99_latency_ns (upward) against bench/baselines/serve_baseline.json.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "harness/experiment.hh"
#include "predictors/scheme_factory.hh"
#include "serve/serve_engine.hh"
#include "sim/simulator.hh"
#include "trace/trace_buffer.hh"
#include "util/table_printer.hh"
#include "workloads/workload.hh"

namespace
{

using namespace tlat;

constexpr const char *kScheme = "AT(AHRT(512,12SR),PT(2^12,A2),)";
constexpr unsigned kTenants = 8;
constexpr unsigned kShards = 4;
constexpr std::size_t kBatchRecords = 256;
constexpr std::size_t kInterleaveBlock = 1024;

std::vector<std::pair<std::string, trace::TraceBuffer>>
buildTenantTraces(std::uint64_t budget)
{
    const std::vector<std::string> names =
        workloads::workloadNames();
    std::vector<std::pair<std::string, trace::TraceBuffer>> traces;
    traces.reserve(kTenants);
    for (unsigned i = 0; i < kTenants; ++i) {
        const std::string &bench = names[i % names.size()];
        traces.emplace_back(
            bench + "#" + std::to_string(i),
            sim::collectTrace(
                workloads::makeWorkload(bench)->buildTest(),
                budget));
    }
    return traces;
}

core::SchemeConfig
schemeConfig()
{
    const auto config = core::SchemeConfig::parse(kScheme);
    if (!config) {
        std::cerr << "bad bench scheme\n";
        std::exit(1);
    }
    return *config;
}

/**
 * Offline twin: every tenant stream through harness::measure(), the
 * predecoded-view batch path an offline run takes. Each trace's
 * predecode is built before the clock starts, as the sweep engine
 * builds it once per trace, so the rate is the simulate rate alone.
 */
double
offlineRecordsPerSec(
    const std::vector<std::pair<std::string, trace::TraceBuffer>>
        &traces)
{
    for (const auto &[name, trace] : traces)
        trace.predecoded();
    std::uint64_t records = 0;
    const auto start = std::chrono::steady_clock::now();
    for (const auto &[name, trace] : traces) {
        auto predictor = predictors::makePredictor(schemeConfig());
        predictor->reset();
        harness::measure(*predictor, trace);
        records += trace.size();
    }
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return static_cast<double>(records) / seconds;
}

struct ServeRun
{
    double seconds = 0.0;
    std::uint64_t records = 0;
    std::vector<std::uint64_t> latenciesNs;
};

ServeRun
servedRun(const std::vector<std::pair<std::string,
                                      trace::TraceBuffer>> &traces)
{
    serve::ServeConfig config;
    config.shards = kShards;
    config.batchRecords = kBatchRecords;
    config.trackLatency = true;
    serve::ServeEngine engine(schemeConfig(), config);
    std::vector<std::size_t> handles;
    handles.reserve(traces.size());
    for (const auto &[name, trace] : traces)
        handles.push_back(engine.addTenant(name));

    ServeRun run;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::size_t> next(traces.size(), 0);
    bool advanced = true;
    while (advanced) {
        advanced = false;
        for (std::size_t t = 0; t < traces.size(); ++t) {
            const auto &records = traces[t].second.records();
            if (next[t] >= records.size())
                continue;
            const std::size_t take = std::min(
                kInterleaveBlock, records.size() - next[t]);
            engine.ingestSpan(handles[t],
                              {records.data() + next[t], take});
            next[t] += take;
            run.records += take;
            advanced = true;
        }
    }
    engine.drain();
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    run.latenciesNs = engine.takeLatenciesNs();
    return run;
}

double
percentileNs(std::vector<std::uint64_t> &sorted, double fraction)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t index = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(fraction *
                                 static_cast<double>(sorted.size())));
    return static_cast<double>(sorted[index]);
}

} // namespace

int
main()
{
    using namespace tlat;
    bench::printHeader(
        "serve-path throughput (software check, not a paper figure)",
        "multi-tenant streaming: " + std::to_string(kTenants) +
            " tenants, " + std::to_string(kShards) + " shards, " +
            std::to_string(kBatchRecords) + "-record micro-batches");
    bench::BenchRecorder record("serve");

    const std::uint64_t budget = harness::branchBudgetFromEnv();
    const auto traces = buildTenantTraces(budget);

    const double offline_rps = offlineRecordsPerSec(traces);
    const ServeRun run = servedRun(traces);

    const double served_rps =
        static_cast<double>(run.records) / run.seconds;
    const double tenants_per_sec =
        static_cast<double>(traces.size()) / run.seconds;
    std::vector<std::uint64_t> latencies = run.latenciesNs;
    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentileNs(latencies, 0.50);
    const double p99 = percentileNs(latencies, 0.99);

    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_bytes =
        static_cast<double>(usage.ru_maxrss) * 1024.0;

    TablePrinter table("serve-path throughput");
    table.setHeader({"metric", "value"});
    table.addRow({"tenants", std::to_string(traces.size())});
    table.addRow({"records served", std::to_string(run.records)});
    table.addRow({"tenants/sec", format("%.2f", tenants_per_sec)});
    table.addRow({"records/sec", format("%.3g", served_rps)});
    table.addRow({"offline records/sec",
                  format("%.3g", offline_rps)});
    table.addRow({"served/offline",
                  format("%.3f", served_rps / offline_rps)});
    table.addRow({"p50 latency us", format("%.1f", p50 / 1000.0)});
    table.addRow({"p99 latency us", format("%.1f", p99 / 1000.0)});
    table.addRow({"peak rss MiB",
                  format("%.1f",
                         peak_rss_bytes / (1024.0 * 1024.0))});
    table.print(std::cout);

    record.addScalar("tenants_per_sec", tenants_per_sec);
    record.addScalar("records_per_sec", served_rps);
    record.addScalar("offline_records_per_sec", offline_rps);
    record.addScalar("serve_vs_offline", served_rps / offline_rps);
    record.addScalar("p50_latency_ns", p50);
    record.addScalar("p99_latency_ns", p99);
    record.addScalar("peak_rss_bytes", peak_rss_bytes);
    return 0;
}
