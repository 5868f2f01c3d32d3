/**
 * @file
 * perfbench_driver — the in-process twin of the `tlat` ops that
 * perfbench/run.py times from outside.
 *
 *   perfbench_driver facts
 *       one JSON line: SIMD level, build type, compiler
 *   perfbench_driver golden <plan>
 *       one JSON line per op/cover line of the plan: the expected
 *       result, computed with harness::measureReference
 *   perfbench_driver traced <plan> <seconds>
 *       replays the plan's ops in a closed loop for <seconds> with a
 *       span around every library call, in the order
 *       tools/tlat_cli.cpp makes them; prints one JSON result line per
 *       executed op (checked against the goldens by run.py) and, last,
 *       the per-layer metrics
 *
 * Plan lines are tab-separated:
 *   op      <tlat argv...>             one op of the workload's cycle
 *   cover   <tlat argv...>             run once, for layers the ops
 *                                      never reach
 *   file    <path>                     probe: stream decode rate
 *   collect <benchmark> <set> <budget> probe: workload build, trace
 *                                      collection and predecode
 *
 * Supported tlat argv: `run <scheme> <file.tltr> [--json]`,
 * `compare <scheme>... [--jobs N] [--budget N]` and
 * `serve <scheme> --replay DIR [--shards N] [--batch-records N]
 * [--json]`.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hh"
#include "harness/figure_runner.hh"
#include "harness/metrics_json.hh"
#include "harness/report.hh"
#include "harness/suite.hh"
#include "predictors/scheme_factory.hh"
#include "serve/serve_engine.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "trace/chunk_stream.hh"
#include "trace/predecode.hh"
#include "trace/trace_io.hh"
#include "util/json_writer.hh"
#include "util/simd.hh"
#include "util/string_utils.hh"
#include "util/table_printer.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace
{

using namespace tlat;
using perfbench::Scope;
using perfbench::Span;
using perfbench::Tracer;

/** The title `tlat compare` gives its report. */
const char *const kCompareTitle = "prediction accuracy (percent)";
/** Worker threads for golden computation and preloads. */
constexpr unsigned kSetupThreads = 4;
/** Alternating jobs-1 / jobs-N rounds behind the parallel efficiency. */
constexpr unsigned kEfficiencyRounds = 5;

/** One parsed `tlat` invocation of the plan. */
struct Op
{
    std::string kind; // run | compare | serve
    std::vector<std::string> positional;
    bool json = false;
    unsigned jobs = 0;
    std::uint64_t budget = 300000;
    serve::ServeConfig serve;
    std::string replay;
};

struct PlanLine
{
    std::string tag; // op | cover | file | collect
    std::vector<std::string> fields;
    std::optional<Op> op;
};

/** One line of an op's checked result. */
struct Cell
{
    std::string label;
    std::uint64_t total = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::string accuracyText;
    std::string missText;
};

struct Result
{
    std::vector<Cell> cells;
    /** Exact expected stdout (compare) or empty. */
    std::string text;
};

Cell
makeCell(const std::string &label, const AccuracyCounter &accuracy)
{
    return {label,
            accuracy.total(),
            accuracy.hits(),
            accuracy.misses(),
            TablePrinter::percentCell(accuracy.accuracyPercent()),
            TablePrinter::percentCell(accuracy.missPercent())};
}

std::uint64_t
parseNumber(const std::string &text, const std::string &what)
{
    const auto value = parseSize(text);
    if (!value || *value == 0)
        throw std::runtime_error("bad value '" + text + "' for " + what);
    return *value;
}

Op
parseOp(const std::vector<std::string> &argv)
{
    if (argv.empty())
        throw std::runtime_error("empty op");
    Op op;
    op.kind = argv[0];
    for (std::size_t i = 1; i < argv.size(); ++i) {
        const std::string &arg = argv[i];
        const auto next = [&]() -> const std::string & {
            if (i + 1 >= argv.size())
                throw std::runtime_error("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--json")
            op.json = true;
        else if (arg == "--jobs")
            op.jobs = static_cast<unsigned>(parseNumber(next(), arg));
        else if (arg == "--budget")
            op.budget = parseNumber(next(), arg);
        else if (arg == "--shards")
            op.serve.shards =
                static_cast<unsigned>(parseNumber(next(), arg));
        else if (arg == "--batch-records")
            op.serve.batchRecords = parseNumber(next(), arg);
        else if (arg == "--replay")
            op.replay = next();
        else if (startsWith(arg, "--"))
            throw std::runtime_error("unsupported option " + arg);
        else
            op.positional.push_back(arg);
    }
    const bool shape_ok =
        (op.kind == "run" && op.positional.size() == 2) ||
        (op.kind == "compare" && !op.positional.empty()) ||
        (op.kind == "serve" && op.positional.size() == 1 &&
         !op.replay.empty());
    if (!shape_ok)
        throw std::runtime_error("unsupported op '" + op.kind + "'");
    for (const std::string &scheme :
         op.kind == "run" || op.kind == "serve"
             ? std::vector<std::string>{op.positional[0]}
             : op.positional) {
        const auto config = core::SchemeConfig::parse(scheme);
        if (!config)
            throw std::runtime_error("bad scheme '" + scheme + "'");
        if (config->data == core::DataMode::Diff ||
            (op.kind != "compare" &&
             predictors::makePredictor(*config)->needsTraining()))
            throw std::runtime_error("scheme '" + scheme +
                                     "' trains; not supported");
    }
    if (op.kind == "serve" && !op.serve.validate().empty())
        throw std::runtime_error(op.serve.validate());
    return op;
}

std::vector<PlanLine>
readPlan(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read plan '" + path + "'");
    std::vector<PlanLine> plan;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        PlanLine entry;
        std::stringstream fields(line);
        std::string field;
        std::getline(fields, entry.tag, '\t');
        while (std::getline(fields, field, '\t'))
            entry.fields.push_back(field);
        if (entry.tag == "op" || entry.tag == "cover")
            entry.op = parseOp(entry.fields);
        else if (!((entry.tag == "file" && entry.fields.size() == 1) ||
                   (entry.tag == "collect" && entry.fields.size() == 3)))
            throw std::runtime_error("bad plan line '" + line + "'");
        plan.push_back(std::move(entry));
    }
    return plan;
}

/** Trace files of a replay directory, sorted as `tlat serve` does. */
std::vector<std::filesystem::path>
replayFiles(const std::string &dir)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (entry.is_regular_file() &&
            (endsWith(name, ".tltr") || endsWith(name, ".txt")))
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty())
        throw std::runtime_error("no trace files in '" + dir + "'");
    return files;
}

trace::TraceBuffer
loadOrThrow(const std::string &path)
{
    std::string error;
    auto buffer = trace::loadFromFile(path, &error);
    if (!buffer)
        throw std::runtime_error("cannot load '" + path + "': " + error);
    return std::move(*buffer);
}

/** Discards everything written to it (emit cost without I/O). */
class NullBuffer final : public std::streambuf
{
  protected:
    int_type overflow(int_type c) override { return c; }
    std::streamsize
    xsputn(const char *, std::streamsize count) override
    {
        return count;
    }
};

std::string
resultJson(const char *key, std::size_t index, const Result &result)
{
    std::ostringstream os;
    os << "{\"" << key << "\":" << index << ",\"cells\":[";
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const Cell &cell = result.cells[i];
        os << (i ? "," : "") << "[\""
           << JsonWriter::escape(cell.label) << "\"," << cell.total
           << ',' << cell.hits << ',' << cell.misses << ",\""
           << JsonWriter::escape(cell.accuracyText) << "\",\""
           << JsonWriter::escape(cell.missText) << "\"]";
    }
    os << "],\"text\":\"" << JsonWriter::escape(result.text) << "\"}";
    return os.str();
}

// ---- golden -------------------------------------------------------

/** The reference protocol: fresh predictor, train if needed, measure
 *  with the per-record predict/update loop. */
AccuracyCounter
referenceAccuracy(const std::string &scheme,
                  const trace::TraceBuffer &trace)
{
    auto predictor = predictors::makePredictor(scheme);
    predictor->reset();
    if (predictor->needsTraining())
        predictor->train(trace);
    return harness::measureReference(*predictor, trace);
}

int
cmdGolden(const std::vector<PlanLine> &plan)
{
    util::ThreadPool pool(kSetupThreads);

    // Every trace an op reads, loaded once: files by path, suite
    // traces by budget.
    std::map<std::string, trace::TraceBuffer> files;
    std::map<std::uint64_t, std::unique_ptr<harness::BenchmarkSuite>>
        suites;
    for (const PlanLine &line : plan) {
        if (!line.op)
            continue;
        const Op &op = *line.op;
        if (op.kind == "run")
            files.emplace(op.positional[1], trace::TraceBuffer{});
        if (op.kind == "serve")
            for (const auto &path : replayFiles(op.replay))
                files.emplace(path.string(), trace::TraceBuffer{});
        if (op.kind == "compare" && !suites.count(op.budget))
            suites[op.budget] =
                std::make_unique<harness::BenchmarkSuite>(op.budget);
    }
    std::vector<std::string> paths;
    for (const auto &entry : files)
        paths.push_back(entry.first);
    util::parallelFor(pool, paths.size(), [&paths, &files](std::size_t i) {
        // Distinct map nodes per index: no two tasks touch one value.
        files.at(paths[i]) = loadOrThrow(paths[i]);
    });
    for (auto &entry : suites)
        entry.second->preload(pool, false);

    // Distinct (scheme, trace) reference runs, then one parallel pass.
    struct Task
    {
        std::string scheme;
        const trace::TraceBuffer *trace;
        AccuracyCounter accuracy;
    };
    std::vector<Task> tasks;
    std::map<std::pair<std::string, const trace::TraceBuffer *>,
             std::size_t>
        task_of;
    const auto want = [&](const std::string &scheme,
                          const trace::TraceBuffer &trace) {
        const auto key = std::make_pair(scheme, &trace);
        if (!task_of.count(key)) {
            task_of[key] = tasks.size();
            tasks.push_back({scheme, &trace, {}});
        }
        return task_of[key];
    };
    for (const PlanLine &line : plan) {
        if (!line.op)
            continue;
        const Op &op = *line.op;
        if (op.kind == "run")
            want(op.positional[0], files.at(op.positional[1]));
        if (op.kind == "serve")
            for (const auto &path : replayFiles(op.replay))
                want(op.positional[0], files.at(path.string()));
        if (op.kind == "compare") {
            harness::BenchmarkSuite &suite = *suites.at(op.budget);
            for (const std::string &scheme : op.positional)
                for (const std::string &bench : suite.benchmarks())
                    want(scheme, suite.testTrace(bench));
        }
    }
    util::parallelFor(pool, tasks.size(), [&tasks](std::size_t i) {
        tasks[i].accuracy =
            referenceAccuracy(tasks[i].scheme, *tasks[i].trace);
    });

    std::size_t index = 0;
    for (const PlanLine &line : plan) {
        if (!line.op)
            continue;
        const Op &op = *line.op;
        Result result;
        if (op.kind == "run") {
            const trace::TraceBuffer &trace = files.at(op.positional[1]);
            result.cells.push_back(makeCell(
                trace.name(),
                tasks[want(op.positional[0], trace)].accuracy));
        } else if (op.kind == "serve") {
            for (const auto &path : replayFiles(op.replay))
                result.cells.push_back(makeCell(
                    path.filename().string(),
                    tasks[want(op.positional[0], files.at(path.string()))]
                        .accuracy));
        } else {
            harness::BenchmarkSuite &suite = *suites.at(op.budget);
            harness::AccuracyReport report(
                kCompareTitle, workloads::workloadNames(),
                workloads::floatingPointWorkloadNames());
            for (const std::string &scheme : op.positional) {
                for (const std::string &bench : suite.benchmarks()) {
                    const AccuracyCounter &accuracy =
                        tasks[want(scheme, suite.testTrace(bench))]
                            .accuracy;
                    report.add(bench, scheme, accuracy.accuracyPercent());
                    result.cells.push_back(
                        makeCell(scheme + "|" + bench, accuracy));
                }
            }
            std::ostringstream text;
            report.print(text);
            result.text = text.str();
        }
        std::cout << resultJson("golden", index++, result) << "\n";
    }
    return 0;
}

// ---- traced replay ------------------------------------------------

/** `tlat run <scheme> <file.tltr> [--json]`, streamed path. */
Result
runFileOp(const Op &op, Tracer &tracer)
{
    const Scope root(tracer, "op");
    std::unique_ptr<core::BranchPredictor> predictor;
    {
        const Scope span(tracer, "predictors.make");
        predictor = predictors::makePredictor(
            *core::SchemeConfig::parse(op.positional[0]));
    }
    std::unique_ptr<trace::MmapChunkStream> stream;
    std::string error;
    {
        const Scope span(tracer, "trace.open");
        stream = trace::MmapChunkStream::open(
            op.positional[1], trace::defaultChunkRecords(), &error);
    }
    if (!stream)
        throw std::runtime_error("cannot open '" + op.positional[1] +
                                 "': " + error);
    predictor->reset();
    perfbench::TimedChunkStream timed(*stream, tracer);
    AccuracyCounter accuracy;
    if (op.json) {
        harness::RunMetricsReport report;
        {
            Scope span(tracer, "harness.metrics");
            report = harness::measureStreamWithMetrics(*predictor, timed);
            span.setItems(report.accuracy.total());
        }
        if (!stream->error().empty())
            throw std::runtime_error(stream->error());
        {
            const Scope span(tracer, "harness.emit");
            NullBuffer sink;
            std::ostream os(&sink);
            harness::writeRunMetricsJson(
                report, os, {{"budget", std::to_string(op.budget)}});
        }
        accuracy = report.accuracy;
    } else {
        Scope span(tracer, "core.simulate");
        accuracy = harness::measureStream(*predictor, timed);
        span.setItems(accuracy.total());
    }
    if (!stream->error().empty())
        throw std::runtime_error(stream->error());
    return {{makeCell(stream->name(), accuracy)}, {}};
}

/** `tlat serve <scheme> --replay DIR`, mirroring cmdServe. */
Result
serveOp(const Op &op, Tracer &tracer)
{
    const Scope root(tracer, "op");
    const auto config = core::SchemeConfig::parse(op.positional[0]);
    {
        const Scope span(tracer, "predictors.make");
        if (predictors::makePredictor(*config)->needsTraining())
            throw std::runtime_error("scheme trains");
    }
    const std::vector<std::filesystem::path> files =
        replayFiles(op.replay);

    struct TenantStream
    {
        std::size_t tenant;
        trace::TraceBuffer buffer;
        std::size_t next = 0;
    };
    std::unique_ptr<serve::ServeEngine> engine;
    {
        const Scope span(tracer, "serve.setup");
        engine = std::make_unique<serve::ServeEngine>(*config, op.serve);
    }
    std::vector<TenantStream> streams;
    streams.reserve(files.size());
    for (const std::filesystem::path &path : files) {
        std::optional<trace::TraceBuffer> buffer;
        {
            Scope span(tracer, "trace.load");
            buffer = loadOrThrow(path.string());
            span.setItems(buffer->size());
        }
        std::size_t tenant = 0;
        {
            const Scope span(tracer, "serve.setup");
            tenant = engine->addTenant(path.filename().string());
        }
        streams.push_back({tenant, std::move(*buffer), 0});
    }

    // Same round-robin block interleave as the CLI.
    constexpr std::size_t kInterleaveBlock = 1024;
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    const std::int64_t wall_start = perfbench::nowNs();
    for (bool advanced = true; advanced;) {
        advanced = false;
        for (TenantStream &stream : streams) {
            const auto &records = stream.buffer.records();
            if (stream.next >= records.size())
                continue;
            const std::size_t take = std::min(
                kInterleaveBlock, records.size() - stream.next);
            Scope span(tracer, "serve.ingest");
            engine->ingestSpan(stream.tenant,
                               {records.data() + stream.next, take});
            span.setItems(take);
            stream.next += take;
            advanced = true;
        }
    }
    {
        const Scope span(tracer, "serve.drain");
        engine->drain();
    }
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    const auto cpuNs = [](const rusage &usage) {
        return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
                   std::int64_t{1000000000} +
               (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                   std::int64_t{1000};
    };
    // A root span over ingest+drain whose work count is the CPU time
    // the whole process (ingest thread and shard workers) burned.
    Span cpu;
    cpu.layer = "serve.cpu";
    cpu.startNs = wall_start;
    cpu.endNs = perfbench::nowNs();
    cpu.items = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, cpuNs(after) - cpuNs(before)));
    tracer.add(cpu);
    {
        const Scope span(tracer, "serve.emit");
        NullBuffer sink;
        std::ostream os(&sink);
        if (op.json)
            engine->writeMetricsJson(os);
    }
    std::vector<serve::TenantReport> reports;
    for (const TenantStream &stream : streams)
        reports.push_back(engine->tenantReport(stream.tenant));
    std::sort(reports.begin(), reports.end(),
              [](const auto &a, const auto &b) { return a.name < b.name; });
    Result result;
    for (const serve::TenantReport &report : reports)
        result.cells.push_back(makeCell(report.name, report.accuracy));
    return result;
}

unsigned
opJobs(const Op &op)
{
    return op.jobs != 0 ? op.jobs : util::ThreadPool::hardwareThreads();
}

/**
 * `tlat compare <scheme>...`. The suite is preloaded under its own
 * span first, so runSchemes' internal preload is a cache hit and the
 * sweep span holds only the cells.
 */
Result
compareOp(const Op &op, Tracer &tracer, unsigned sweep_jobs,
          const char *sweep_layer)
{
    const Scope root(tracer, "op");
    harness::BenchmarkSuite suite(op.budget);
    {
        const Scope span(tracer, "harness.preload");
        util::ThreadPool pool(opJobs(op));
        suite.preload(pool, false);
    }
    std::optional<harness::AccuracyReport> report;
    {
        Scope span(tracer, sweep_layer);
        report = harness::runSchemes(suite, kCompareTitle, op.positional,
                                     {}, sweep_jobs);
        span.setItems(op.positional.size() * suite.benchmarks().size());
    }
    std::ostringstream text;
    report->print(text);
    return {{}, text.str()};
}

Result
executeOp(const Op &op, Tracer &tracer)
{
    if (op.kind == "run")
        return runFileOp(op, tracer);
    if (op.kind == "serve")
        return serveOp(op, tracer);
    return compareOp(op, tracer, opJobs(op), "harness.sweep");
}

/** Probe: iterate a stream's chunks with no consumer. */
void
decodeProbe(const std::string &path, Tracer &tracer)
{
    std::string error;
    auto stream = trace::MmapChunkStream::open(
        path, trace::defaultChunkRecords(), &error);
    if (!stream)
        throw std::runtime_error("cannot open '" + path + "': " + error);
    Scope span(tracer, "trace.decode");
    std::uint64_t records = 0;
    while (const trace::TraceChunk *chunk = stream->next())
        records += chunk->records.size();
    span.setItems(records);
}

/** Probe: what `tlat trace` does before writing, plus predecode. */
void
collectProbe(const std::vector<std::string> &fields, Tracer &tracer)
{
    std::optional<isa::Program> program;
    {
        const Scope span(tracer, "workloads.build");
        const auto workload = workloads::makeWorkload(fields[0]);
        program = workload->build(fields[1].empty() ? workload->testSet()
                                                    : fields[1]);
    }
    std::optional<trace::TraceBuffer> buffer;
    {
        Scope span(tracer, "sim.collect");
        buffer = sim::collectTrace(*program,
                                   parseNumber(fields[2], "budget"));
        span.setItems(buffer->mix().total());
    }
    Scope span(tracer, "trace.predecode");
    const trace::PredecodedTrace predecoded(buffer->conditionalView());
    span.setItems(predecoded.size());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

enum class Phase : std::uint8_t
{
    Replay,
    Cover,
    Probe,
    Extra
};

/** Per-execution, per-layer totals reduced from the spans. */
struct LayerTotals
{
    double selfNs = 0;
    double durationNs = 0;
    double items = 0;
    std::uint64_t nonEmptySpans = 0;
};

class Aggregate
{
  public:
    Aggregate(const std::vector<Span> &spans,
              const std::vector<Phase> &phase_of)
        : phase_of_(phase_of)
    {
        const std::vector<std::int64_t> self =
            perfbench::selfTimesNs(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            LayerTotals &totals = by_exec_[spans[i].layer][spans[i].op];
            totals.selfNs += static_cast<double>(self[i]);
            totals.durationNs +=
                static_cast<double>(spans[i].endNs - spans[i].startNs);
            totals.items += static_cast<double>(spans[i].items);
            totals.nonEmptySpans += spans[i].items > 0 ? 1 : 0;
        }
    }

    /**
     * The executions a layer's metric is taken from: the workload's
     * own replayed ops when they reach the layer, else the cover ops,
     * else the probes.
     */
    std::vector<const LayerTotals *>
    select(const std::string &layer, std::string *source) const
    {
        const auto found = by_exec_.find(layer);
        for (const Phase phase :
             {Phase::Replay, Phase::Cover, Phase::Probe}) {
            std::vector<const LayerTotals *> picked;
            if (found != by_exec_.end())
                for (const auto &[exec, totals] : found->second)
                    if (phase_of_[exec] == phase)
                        picked.push_back(&totals);
            if (!picked.empty()) {
                static const char *const kNames[] = {"replay", "cover",
                                                     "probe"};
                *source = kNames[static_cast<int>(phase)];
                return picked;
            }
        }
        *source = "none";
        return {};
    }

  private:
    const std::vector<Phase> &phase_of_;
    std::map<std::string, std::map<std::uint32_t, LayerTotals>> by_exec_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string source;
    std::size_t samples;
};

int
cmdTraced(const std::vector<PlanLine> &plan, double seconds)
{
    Tracer tracer;
    std::vector<Phase> phase_of;
    const auto newExec = [&](Phase phase) {
        tracer.setOp(static_cast<std::uint32_t>(phase_of.size()));
        phase_of.push_back(phase);
    };
    const auto runChecked = [&](std::size_t index, const Op &op,
                                Phase phase) {
        newExec(phase);
        try {
            const Result result = executeOp(op, tracer);
            std::cout << resultJson("result", index, result) << "\n";
        } catch (const std::exception &error) {
            std::cout << "{\"result\":" << index << ",\"error\":\""
                      << JsonWriter::escape(error.what()) << "\"}\n";
        }
    };

    // Op indices count op and cover lines, matching golden's output.
    std::vector<std::pair<std::size_t, const Op *>> ops;
    std::vector<std::pair<std::size_t, const Op *>> covers;
    std::size_t index = 0;
    for (const PlanLine &line : plan) {
        if (line.tag == "op")
            ops.emplace_back(index++, &*line.op);
        else if (line.tag == "cover")
            covers.emplace_back(index++, &*line.op);
    }
    if (ops.empty())
        throw std::runtime_error("plan has no op lines");

    // Probes first: they also warm the page cache for the files.
    tracer.setEnabled(true);
    for (const PlanLine &line : plan) {
        if (line.tag == "file") {
            newExec(Phase::Probe);
            decodeProbe(line.fields[0], tracer);
        } else if (line.tag == "collect") {
            newExec(Phase::Probe);
            collectProbe(line.fields, tracer);
        }
    }

    // Tracing overhead: every op once untraced and once traced, in
    // alternating order so neither side always runs first.
    double untraced_ns = 0;
    double traced_ns = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        for (int pass = 0; pass < 2; ++pass) {
            const bool traced = (pass == 0) == (i % 2 == 1);
            tracer.setEnabled(traced);
            const std::int64_t start = perfbench::nowNs();
            runChecked(ops[i].first, *ops[i].second, Phase::Extra);
            const auto took =
                static_cast<double>(perfbench::nowNs() - start);
            (traced ? traced_ns : untraced_ns) += took;
        }
    }
    tracer.setEnabled(true);

    // The closed-loop replay: one op at a time for the run's seconds.
    const std::int64_t deadline =
        perfbench::nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t i = 0; i == 0 || perfbench::nowNs() < deadline;
         ++i) {
        const auto &[op_index, op] = ops[i % ops.size()];
        runChecked(op_index, *op, Phase::Replay);
    }
    for (const auto &[op_index, op] : covers)
        runChecked(op_index, *op, Phase::Cover);

    // Sweep parallel efficiency: the first compare op, afresh, at its
    // own jobs and at jobs 1 in alternating order; medians of each.
    const std::pair<std::size_t, const Op *> *sweep = nullptr;
    for (const auto *list : {&ops, &covers})
        for (const auto &entry : *list)
            if (entry.second->kind == "compare" && sweep == nullptr)
                sweep = &entry;
    std::uint64_t sweep_jobs = 0;
    std::vector<double> sweep_j1;
    std::vector<double> sweep_jn;
    if (sweep != nullptr) {
        const auto &[op_index, op] = *sweep;
        sweep_jobs = opJobs(*op);
        for (unsigned round = 0; round < kEfficiencyRounds; ++round) {
            for (int pass = 0; pass < 2; ++pass) {
                const bool serial = (pass == 0) == (round % 2 == 1);
                newExec(Phase::Extra);
                const Result result = compareOp(
                    *op, tracer, serial ? 1 : sweep_jobs,
                    serial ? "harness.sweep_j1" : "harness.sweep_jn");
                std::cout << resultJson("result", op_index, result)
                          << "\n";
            }
        }
        for (const Span &span : tracer.spans()) {
            const std::string_view layer(span.layer);
            const auto took = static_cast<double>(span.endNs - span.startNs);
            if (layer == "harness.sweep_j1")
                sweep_j1.push_back(took);
            else if (layer == "harness.sweep_jn")
                sweep_jn.push_back(took);
        }
    }

    // ---- reduce spans to per-layer metrics ------------------------
    const Aggregate aggregate(tracer.spans(), phase_of);
    std::vector<Metric> metrics;
    const auto selfMs = [&](const std::string &name,
                            const std::string &layer) {
        std::string source;
        std::vector<double> values;
        for (const LayerTotals *totals : aggregate.select(layer, &source))
            values.push_back(totals->selfNs / 1e6);
        metrics.push_back(
            {name, median(values), "ms", source, values.size()});
    };
    const auto rate = [&](const std::string &name,
                          const std::vector<std::string> &item_layers,
                          const std::vector<std::string> &time_layers,
                          const std::string &unit, double scale) {
        std::string source;
        double items = 0;
        double time_ns = 0;
        std::size_t samples = 0;
        for (const std::string &layer : item_layers)
            for (const LayerTotals *totals :
                 aggregate.select(layer, &source)) {
                items += totals->items;
                ++samples;
            }
        for (const std::string &layer : time_layers)
            for (const LayerTotals *totals :
                 aggregate.select(layer, &source))
                time_ns += totals->selfNs;
        metrics.push_back({name, time_ns > 0 ? items * scale / time_ns : 0,
                           unit, source, samples});
    };
    std::string source;

    selfMs("trace.open_ms", "trace.open");
    selfMs("trace.next_wait_ms", "trace.next");
    {
        std::vector<double> chunks;
        for (const LayerTotals *totals :
             aggregate.select("trace.next", &source))
            chunks.push_back(static_cast<double>(totals->nonEmptySpans));
        metrics.push_back({"trace.chunks", median(chunks), "count", source,
                           chunks.size()});
    }
    rate("trace.decode_records_per_s", {"trace.decode"}, {"trace.decode"},
         "1/s", 1e9);
    selfMs("trace.predecode_ms", "trace.predecode");
    selfMs("trace.load_ms", "trace.load");
    selfMs("predictors.make_ms", "predictors.make");
    selfMs("core.simulate_ms", "core.simulate");
    rate("core.simulate_branches_per_s", {"core.simulate"},
         {"core.simulate"}, "1/s", 1e9);
    selfMs("harness.metrics_ms", "harness.metrics");
    selfMs("harness.emit_ms", "harness.emit");
    selfMs("workloads.build_ms", "workloads.build");
    selfMs("sim.collect_ms", "sim.collect");
    rate("sim.instructions_per_s", {"sim.collect"}, {"sim.collect"}, "1/s",
         1e9);
    selfMs("harness.preload_ms", "harness.preload");
    selfMs("harness.sweep_ms", "harness.sweep");
    rate("harness.sweep_cells_per_s", {"harness.sweep"}, {"harness.sweep"},
         "1/s", 1e9);
    {
        const double jobs_1 = median(sweep_j1);
        const double jobs_n = median(sweep_jn);
        const double efficiency =
            jobs_n > 0 ? jobs_1 / (static_cast<double>(sweep_jobs) * jobs_n)
                       : 0.0;
        metrics.push_back({"harness.sweep_parallel_eff", efficiency,
                           "ratio", "extra", sweep_jn.size()});
        std::cout << "# harness.sweep_parallel_eff base: jobs 1 took "
                  << jobs_1 / 1e6 << " ms, jobs " << sweep_jobs << " took "
                  << jobs_n / 1e6 << " ms (medians of " << sweep_jn.size()
                  << " alternating rounds)\n";
    }
    selfMs("serve.setup_ms", "serve.setup");
    selfMs("serve.ingest_ms", "serve.ingest");
    selfMs("serve.drain_wait_ms", "serve.drain");
    selfMs("serve.emit_ms", "serve.emit");
    rate("serve.records_per_s", {"serve.ingest"},
         {"serve.ingest", "serve.drain"}, "1/s", 1e9);
    rate("serve.cpu_per_wall", {"serve.cpu"}, {"serve.cpu"}, "ratio", 1.0);
    metrics.push_back(
        {"tracing.overhead_pct",
         untraced_ns > 0 ? 100.0 * (traced_ns / untraced_ns - 1.0) : 0.0,
         "%", "extra", ops.size()});

    std::ostringstream layers;
    layers.precision(10);
    layers << "{\"layers\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &metric = metrics[i];
        std::cout << "# " << metric.name << " = " << metric.value << ' '
                  << metric.unit << "  [" << metric.source << ", "
                  << metric.samples << " samples]\n";
        layers << (i ? "," : "") << "\"" << metric.name << "\":{\"value\":"
               << metric.value << ",\"unit\":\"" << metric.unit
               << "\",\"source\":\"" << metric.source << "\"}";
    }
    layers << "},\"spans\":" << tracer.spans().size() << "}";
    std::cout << layers.str() << "\n";
    return 0;
}

int
cmdFacts()
{
    std::cout << "{\"simd\":\""
              << util::simd::levelName(util::simd::activeLevel())
              << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
              << "\",\"compiler\":\"" << PERFBENCH_COMPILER << "\"}\n";
    return 0;
}

int
usage()
{
    std::cerr << "usage: perfbench_driver facts\n"
                 "       perfbench_driver golden <plan>\n"
                 "       perfbench_driver traced <plan> <seconds>\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 1 && args[0] == "facts")
            return cmdFacts();
        if (args.size() == 2 && args[0] == "golden")
            return cmdGolden(readPlan(args[1]));
        if (args.size() == 3 && args[0] == "traced")
            return cmdTraced(readPlan(args[1]), std::stod(args[2]));
    } catch (const std::exception &error) {
        std::cerr << "perfbench_driver: " << error.what() << "\n";
        return 1;
    }
    return usage();
}
