/**
 * @file
 * tlat — command-line driver for the library.
 *
 *   tlat help                          command summary on stdout
 *                                      (also --help / -h; exit 0)
 *   tlat list                          benchmarks and example schemes
 *   tlat trace <benchmark> [options]   generate a trace file
 *   tlat trace convert <in> --out FILE convert a trace between the
 *                                      text (.txt) and TLTR binary
 *                                      formats, named by extension
 *   tlat stats <benchmark|file>        workload characterization
 *   tlat run <scheme> <benchmark|file> measure a predictor
 *   tlat profile <scheme> <bench|file> per-branch miss breakdown
 *   tlat disasm <benchmark>            dump the workload's micro88
 *   tlat cost <scheme>                 storage cost breakdown
 *   tlat compare <scheme>...           suite-wide accuracy report
 *   tlat ras <benchmark>               return-stack depth sweep
 *   tlat cpi <scheme> <bench|file>     pipeline timing model
 *   tlat serve <scheme> --replay DIR   multi-tenant serving engine:
 *                                      each trace file in DIR becomes
 *                                      one tenant, streams interleave
 *                                      through the sharded engine
 *                                      (--shards N --batch-records N
 *                                      --ring-capacity N); --json
 *                                      emits the tlat-serve-metrics-v1
 *                                      document, byte-identical for
 *                                      every shard count / batch size
 *
 * run, profile and cpi share one input protocol (openInput): ST and
 * Profile schemes train on --train, else on a Diff scheme's workload
 * training set, else on the measured trace (Same). `profile --json`
 * is the `run --json` document.
 *
 * Options (one table, kFlags):
 *   --budget N      conditional-branch budget (default 300000)
 *   --data SET      workload data set (default: the testing set)
 *   --train FILE|BENCH  training trace for ST/Profile schemes
 *   --out FILE      output path for `trace` (.txt text, else TLTR)
 *   --jobs N        sweep worker threads for `compare`, 1..256
 *                   (default: the hardware thread count; results are
 *                   identical for every value)
 *   --json          `run` and `profile` emit one machine-readable
 *                   JSON document (schema tlat-run-metrics-v3) with
 *                   accuracy, predictor counters (including the
 *                   combining chooser block), the warmup curve, the
 *                   top mispredicting branches and the h2p
 *                   hard-to-predict-branch taxonomy
 *
 * TLTR files stream in chunks of TLAT_CHUNK_RECORDS records (default
 * 32768); every output is bit-identical at every chunk size.
 *
 * Exit codes (stable; the CLI integration test pins them):
 *   0  success
 *   1  runtime failure (unloadable trace, unwritable output, Diff
 *      scheme without a training trace, ...)
 *   2  usage error (bad/duplicate/unknown option, bad scheme name,
 *      wrong positionals)
 *   3  unknown command
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_model.hh"
#include "harness/figure_runner.hh"
#include "harness/ras_experiment.hh"
#include "pipeline/pipeline_model.hh"
#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
#include "harness/parallel_sweep.hh"
#include "harness/suite.hh"
#include "isa/disassembler.hh"
#include "predictors/scheme_factory.hh"
#include "serve/serve_engine.hh"
#include "sim/simulator.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "util/string_utils.hh"
#include "util/table_printer.hh"
#include "workloads/workload.hh"

namespace
{

using namespace tlat;

// Stable exit codes — distinct classes so scripts and the CI
// integration test can tell "you called it wrong" from "it failed".
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitUnknownCommand = 3;

struct Options
{
    std::uint64_t budget = 300000;
    std::uint64_t jobs = 0; // 0: harness::defaultJobs()
    bool json = false;
    /** `serve`: shard worker count. */
    std::uint64_t shards = 1;
    /** `serve`: conditionals per micro-batch flush. */
    std::uint64_t batchRecords = 64;
    /** `serve`: per-shard SPSC ring capacity (power of two). */
    std::uint64_t ringCapacity = 4096;
    /** `serve`: directory of trace files to replay as tenants. */
    std::string replay;
    std::string data;
    std::string train;
    std::string out;
    std::vector<std::string> positional;
};

/**
 * One settable flag: exactly one of number/text/toggle names its
 * field. A number must parse and lie in [@c minimum, @c maximum]; a
 * bad one is reported with @c want appended. The maxima bound the
 * threads and ring slots a value can ask for, and are checked before
 * any exists. The serve sizes' other rules live in
 * serve::ServeConfig::validate().
 */
struct Flag
{
    const char *name;
    std::uint64_t Options::*number = nullptr;
    std::string Options::*text = nullptr;
    bool Options::*toggle = nullptr;
    std::uint64_t minimum = 0;
    std::uint64_t maximum = ~std::uint64_t{0};
    const char *want = "";
};

/**
 * The whole option surface; parseOptions() knows no other flag.
 * --jobs and --shards start one thread each, at most 256; a shard's
 * ring holds at most 2^20 slots.
 */
constexpr Flag kFlags[] = {
    {.name = "--budget", .number = &Options::budget},
    {.name = "--jobs", .number = &Options::jobs, .minimum = 1,
     .maximum = harness::kMaxJobs, .want = " (want 1 <= N <= 256)"},
    {.name = "--shards", .number = &Options::shards, .maximum = 256,
     .want = " (want N <= 256)"},
    {.name = "--batch-records", .number = &Options::batchRecords},
    {.name = "--ring-capacity", .number = &Options::ringCapacity,
     .maximum = std::uint64_t{1} << 20, .want = " (want N <= 1048576)"},
    {.name = "--data", .text = &Options::data},
    {.name = "--train", .text = &Options::train},
    {.name = "--out", .text = &Options::out},
    {.name = "--replay", .text = &Options::replay},
    {.name = "--json", .toggle = &Options::json},
};

static_assert(harness::kMaxJobs == 256, "--jobs message names 256");

// One definition of the command surface: `tlat help` prints it to
// stdout (exit 0), error paths print it to stderr (exit 2).
void
printUsage(std::ostream &os)
{
    os
        << "usage: tlat <command> [options]\n"
           "  help                         this summary (also --help)\n"
           "  list                         benchmarks and schemes\n"
           "  trace <benchmark>            generate a trace "
           "(--out file.tltr)\n"
           "  trace convert <in>           convert text<->binary "
           "(--out FILE; .txt is text)\n"
           "  stats <benchmark|file>       workload statistics\n"
           "  run <scheme> <bench|file>    measure a predictor\n"
           "  profile <scheme> <bench|file> per-branch breakdown\n"
           "  disasm <benchmark>           dump micro88 assembly\n"
           "  cost <scheme>                storage cost breakdown\n"
           "  compare <scheme>...          suite-wide report\n"
           "  ras <benchmark>              return-stack sweep\n"
           "  cpi <scheme> <bench|file>    pipeline timing model\n"
           "  serve <scheme> --replay DIR  sharded multi-tenant "
           "serving engine:\n"
           "                               one tenant per trace file "
           "in DIR\n"
           "                               (--shards N "
           "--batch-records N\n"
           "                               --ring-capacity N; --json "
           "emits the\n"
           "                               tlat-serve-metrics-v1 "
           "document)\n"
           "options: --budget N --data SET --train SRC --out FILE "
           "--jobs N --json\n"
           "ST/Profile schemes train on --train, else a Diff scheme's "
           "training set,\nelse the measured trace. TLTR files stream "
           "in TLAT_CHUNK_RECORDS-record\nchunks (default 32768).\n";
}

int
usage()
{
    printUsage(std::cerr);
    return kExitUsage;
}

// One definition of the scheme grammar examples: `tlat list` prints
// it to stdout, bad-scheme-name error paths print it to stderr so
// the user learns the valid spellings from the failure itself.
void
printSchemeExamples(std::ostream &os)
{
    os << "scheme name examples (paper Table 2 notation):\n"
          "  AT(AHRT(512,12SR),PT(2^12,A2),)\n"
          "  AT(IHRT(,8SR),PT(2^8,LT),)\n"
          "  ST(AHRT(512,12SR),PT(2^12,PB),Same)\n"
          "  LS(AHRT(512,A2),,)\n"
          "  GSH(12,A2)\n"
          "  CMB(AT(AHRT(512,12SR),PT(2^12,A2),),LS(AHRT(512,A2),,)"
          ",CT(2^12))\n"
          "  Profile | BTFN | AlwaysTaken | AlwaysNotTaken\n";
}

/** Bad-scheme usage error: names the offender, lists valid names. */
int
badSchemeName(const std::string &name)
{
    std::cerr << "bad scheme name '" << name << "'\n";
    printSchemeExamples(std::cerr);
    return kExitUsage;
}

std::optional<Options>
parseOptions(int argc, char **argv, int first)
{
    Options options;
    std::vector<std::string> seen;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!startsWith(arg, "--")) {
            options.positional.push_back(arg);
            continue;
        }
        if (std::find(seen.begin(), seen.end(), arg) != seen.end()) {
            std::cerr << "duplicate option " << arg << "\n";
            return std::nullopt;
        }
        seen.push_back(arg);
        const Flag *flag = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const Flag &candidate) { return arg == candidate.name; });
        if (flag == std::end(kFlags)) {
            std::cerr << "unknown option " << arg << "\n";
            return std::nullopt;
        }
        if (flag->toggle != nullptr) {
            options.*flag->toggle = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << arg << "\n";
            return std::nullopt;
        }
        const std::string value = argv[++i];
        if (flag->text != nullptr) {
            options.*flag->text = value;
            continue;
        }
        const auto parsed = parseSize(value);
        if (!parsed || *parsed < flag->minimum ||
            *parsed > flag->maximum) {
            std::cerr << "bad value '" << value << "' for " << arg
                      << flag->want << "\n";
            return std::nullopt;
        }
        options.*flag->number = *parsed;
    }
    return options;
}

bool
isBenchmark(const std::string &name)
{
    const auto names = workloads::allWorkloadNames();
    return std::find(names.begin(), names.end(), name) !=
           names.end();
}

/**
 * What a command reads: the measured trace as one chunk stream, and
 * the trace a training scheme learns from.
 */
struct Input
{
    /** The measured trace when resident; null when it streams. */
    std::unique_ptr<trace::TraceBuffer> test;
    /** A training trace apart from the measured one. */
    std::unique_ptr<trace::TraceBuffer> train;
    /** The measured trace's chunks (over `test` when resident). */
    std::unique_ptr<trace::ChunkStream> stream;
};

/**
 * The one input protocol of run, profile and cpi (trace, stats and
 * ras pass no scheme and get the trace resident).
 *
 * Measured trace: a TLTR file streams through MmapChunkStream; a
 * benchmark (--budget, --data), a text file, a scheme that trains on
 * its test trace, or a @p resident caller gets a resident TraceBuffer
 * behind a BufferChunkStream. Both chunk by TLAT_CHUNK_RECORDS, and
 * output is byte-identical either way. Training trace: --train wins;
 * else a Diff scheme uses its workload's training set, a Same scheme
 * the test trace. Returns nullopt (reason on stderr) when a trace
 * cannot be loaded or a Diff scheme has no training trace.
 */
std::optional<Input>
openInput(const Options &options, const std::string &source,
          const core::SchemeConfig *scheme = nullptr,
          const core::BranchPredictor *predictor = nullptr,
          bool resident = true)
{
    const auto load = [&](const std::string &name,
                          const std::string &data_set)
        -> std::unique_ptr<trace::TraceBuffer> {
        if (isBenchmark(name)) {
            const auto workload = workloads::makeWorkload(name);
            auto buffer = std::make_unique<trace::TraceBuffer>(
                sim::collectTrace(
                    workload->build(data_set.empty()
                                        ? workload->testSet()
                                        : data_set),
                    options.budget));
            buffer->setName(name);
            return buffer;
        }
        std::string error;
        auto loaded = trace::loadFromFile(name, &error);
        if (!loaded) {
            std::cerr << "cannot load trace '" << name
                      << "': " << error << "\n";
            return nullptr;
        }
        return std::make_unique<trace::TraceBuffer>(
            std::move(*loaded));
    };

    Input input;
    const bool benchmark = isBenchmark(source);
    if (scheme != nullptr && !options.train.empty()) {
        input.train = load(options.train, options.data);
        if (!input.train)
            return std::nullopt;
    } else if (scheme != nullptr &&
               scheme->data == core::DataMode::Diff) {
        const auto set =
            benchmark ? workloads::makeWorkload(source)->trainSet()
                      : std::nullopt;
        if (!set) {
            std::cerr << "no training data set for " << source
                      << (benchmark ? "" : " (give --train FILE|BENCH)")
                      << "\n";
            return std::nullopt;
        }
        input.train = load(source, *set);
    }

    const bool trains_on_test = predictor != nullptr &&
                                predictor->needsTraining() &&
                                !input.train;
    if (!resident && !benchmark && !endsWith(source, ".txt") &&
        !trains_on_test) {
        std::string error;
        input.stream = trace::MmapChunkStream::open(
            source, trace::defaultChunkRecords(), &error);
        if (!input.stream) {
            std::cerr << "cannot load trace '" << source
                      << "': " << error << "\n";
            return std::nullopt;
        }
        return input;
    }
    input.test = load(source, options.data);
    if (!input.test)
        return std::nullopt;
    input.stream = std::make_unique<trace::BufferChunkStream>(
        *input.test, trace::defaultChunkRecords());
    return input;
}

int
cmdList()
{
    std::cout << "benchmarks (SPEC'89 mirrors):\n";
    for (const std::string &name : workloads::workloadNames()) {
        const auto workload = workloads::makeWorkload(name);
        std::cout << "  " << name << "  (data sets:";
        for (const std::string &set : workload->dataSets())
            std::cout << ' ' << set;
        std::cout << ")\n";
    }
    std::cout << "\nadversarial workloads (analytic branch kernels):\n";
    for (const std::string &name :
         workloads::adversarialWorkloadNames()) {
        const auto workload = workloads::makeWorkload(name);
        std::cout << "  " << name << "  (data sets:";
        for (const std::string &set : workload->dataSets())
            std::cout << ' ' << set;
        std::cout << ")\n";
    }
    std::cout << '\n';
    printSchemeExamples(std::cout);
    return kExitOk;
}

/**
 * `tlat trace convert`: re-encode an existing trace file. Each
 * file's format is its extension (saveToFile/loadFromFile's rule:
 * .txt is text, anything else TLTR binary). Round-trips are lossless
 * in both directions.
 *
 * Binary-to-binary converts stream: the input is pumped through the
 * mmap chunk iterator and each chunk's packed records are appended
 * behind one up-front header, in O(chunk) memory. The wire
 * composition is the same writeBinaryHeader + writeBinaryRecords
 * pair writeBinary() is built from, so the output is byte-identical
 * to the whole-buffer path (the CLI integration test pins this with
 * cmp).
 */
int
convertBinaryStreamed(const std::string &in_path,
                      const std::string &out_path)
{
    std::string error;
    auto stream = trace::MmapChunkStream::open(
        in_path, trace::defaultChunkRecords(), &error);
    if (!stream) {
        std::cerr << "cannot load trace '" << in_path
                  << "': " << error << "\n";
        return kExitRuntime;
    }
    std::ofstream os(out_path, std::ios::binary);
    if (!os || !trace::writeBinaryHeader(os, stream->name(),
                                         stream->mix(),
                                         stream->recordCount())) {
        std::cerr << "cannot write '" << out_path << "'\n";
        return kExitRuntime;
    }
    while (const trace::TraceChunk *chunk = stream->next()) {
        if (!trace::writeBinaryRecords(os, chunk->records)) {
            std::cerr << "cannot write '" << out_path << "'\n";
            return kExitRuntime;
        }
    }
    if (!stream->error().empty()) {
        std::cerr << "cannot load trace '" << in_path
                  << "': " << stream->error() << "\n";
        return kExitRuntime;
    }
    std::cout << "converted " << stream->recordCount()
              << " branch records to " << out_path << "\n";
    return kExitOk;
}

int
cmdTraceConvert(const Options &options)
{
    if (options.positional.size() != 2 || options.out.empty()) {
        std::cerr << "usage: tlat trace convert <in> --out FILE\n";
        return kExitUsage;
    }
    // Binary-to-binary conversions stream chunk-by-chunk; text input
    // cannot (headers like '# name:' may appear anywhere in the
    // file), and text output goes through the one writeText()
    // implementation rather than duplicating its line format here.
    const std::string &in_path = options.positional[1];
    if (!endsWith(in_path, ".txt") && !endsWith(options.out, ".txt"))
        return convertBinaryStreamed(in_path, options.out);
    std::string error;
    const auto buffer = trace::loadFromFile(in_path, &error);
    if (!buffer) {
        std::cerr << "cannot load trace '" << in_path << "': " << error
                  << "\n";
        return kExitRuntime;
    }
    if (!trace::saveToFile(*buffer, options.out)) {
        std::cerr << "cannot write '" << options.out << "'\n";
        return kExitRuntime;
    }
    std::cout << "converted " << buffer->size()
              << " branch records to " << options.out << "\n";
    return kExitOk;
}

int
cmdTrace(const Options &options)
{
    if (!options.positional.empty() &&
        options.positional[0] == "convert")
        return cmdTraceConvert(options);
    if (options.positional.size() != 1 || options.out.empty()) {
        std::cerr << "usage: tlat trace <benchmark> --out FILE\n";
        return kExitUsage;
    }
    const auto input = openInput(options, options.positional[0]);
    if (!input)
        return kExitRuntime;
    const trace::TraceBuffer &buffer = *input->test;
    if (!trace::saveToFile(buffer, options.out)) {
        std::cerr << "cannot write '" << options.out << "'\n";
        return kExitRuntime;
    }
    std::cout << "wrote " << buffer.size() << " branch records ("
              << buffer.conditionalCount() << " conditional) to "
              << options.out << "\n";
    return kExitOk;
}

int
cmdStats(const Options &options)
{
    if (options.positional.size() != 1)
        return usage();
    const auto input = openInput(options, options.positional[0]);
    if (!input)
        return kExitRuntime;
    const trace::TraceBuffer &buffer = *input->test;
    const trace::TraceStats stats = trace::computeStats(buffer);
    TablePrinter table("trace statistics: " + buffer.name());
    table.setHeader({"metric", "value"});
    table.addRow({"dynamic instructions",
                  std::to_string(buffer.mix().total())});
    table.addRow({"branch fraction %",
                  TablePrinter::percentCell(
                      buffer.mix().branchFraction() * 100.0)});
    table.addRow({"dynamic branches",
                  std::to_string(stats.dynamicBranches())});
    table.addRow({"conditional %",
                  TablePrinter::percentCell(
                      stats.classFraction(
                          trace::BranchClass::Conditional) *
                      100.0)});
    table.addRow({"taken %", TablePrinter::percentCell(
                                 stats.takenFraction() * 100.0)});
    table.addRow({"static conditional branches",
                  std::to_string(stats.staticConditionalBranches)});
    table.print(std::cout);
    return kExitOk;
}

/** A predictor, reset and trained, and the input it measures. */
struct Measurement
{
    std::unique_ptr<core::BranchPredictor> predictor;
    Input input;
};

/**
 * The shared front of run, profile and cpi: `<scheme> <source>`
 * positionals, the scheme parse, openInput(), reset and training.
 * Returns kExitOk with @p measured filled, else the exit code.
 */
int
openMeasurement(const Options &options, const std::string &command,
                bool resident, Measurement &measured)
{
    if (options.positional.size() != 2) {
        std::cerr << "usage: tlat " << command
                  << " <scheme> <benchmark|file>\n";
        return kExitUsage;
    }
    // Parse-first: an unknown scheme is a usage error (exit 2), not
    // the fatal abort makePredictor(string) raises.
    const auto config =
        core::SchemeConfig::parse(options.positional[0]);
    if (!config)
        return badSchemeName(options.positional[0]);
    measured.predictor = predictors::makePredictor(*config);
    auto input = openInput(options, options.positional[1], &*config,
                           measured.predictor.get(), resident);
    if (!input)
        return kExitRuntime;
    measured.input = std::move(*input);
    measured.predictor->reset();
    if (measured.predictor->needsTraining())
        measured.predictor->train(measured.input.train
                                     ? *measured.input.train
                                     : *measured.input.test);
    return kExitOk;
}

/** After a measured pass: reports a stream that failed mid-way. */
bool
streamFailed(const Options &options, const Measurement &measured)
{
    const std::string &error = measured.input.stream->error();
    if (error.empty())
        return false;
    std::cerr << "cannot load trace '" << options.positional[1]
              << "': " << error << "\n";
    return true;
}

/**
 * The `context` members of a run document: what was measured. A
 * benchmark is generated under --budget; a trace file is measured
 * whole, so it records its format and record count instead. Nothing
 * about how the file was read (chunk size) appears, so the document
 * is identical on every read path.
 */
std::vector<std::pair<std::string, std::string>>
runContext(const Options &options, const Measurement &measured)
{
    const std::string &source = options.positional[1];
    std::vector<std::pair<std::string, std::string>> context;
    if (isBenchmark(source)) {
        context.emplace_back("budget", std::to_string(options.budget));
    } else {
        context.emplace_back("source",
                             endsWith(source, ".txt") ? "text" : "tltr");
        context.emplace_back(
            "records",
            std::to_string(measured.input.stream->recordCount()));
    }
    if (measured.input.train)
        context.emplace_back("train", measured.input.train->name());
    return context;
}

/**
 * `run --json` and `profile --json`: one tlat-run-metrics-v3
 * document from the metrics loop over the measurement's stream.
 */
int
writeRunJson(const Options &options, Measurement &measured)
{
    const harness::RunMetricsReport report =
        harness::measureStreamWithMetrics(*measured.predictor,
                                          *measured.input.stream);
    if (streamFailed(options, measured))
        return kExitRuntime;
    harness::writeRunMetricsJson(report, std::cout,
                                 runContext(options, measured));
    return kExitOk;
}

int
cmdRun(const Options &options)
{
    Measurement measured;
    if (const int status = openMeasurement(options, "run", false, measured);
        status != kExitOk)
        return status;
    if (options.json)
        return writeRunJson(options, measured);
    const AccuracyCounter accuracy = harness::measureStream(
        *measured.predictor, *measured.input.stream);
    if (streamFailed(options, measured))
        return kExitRuntime;
    std::cout << measured.predictor->name() << " on "
              << measured.input.stream->name() << ":\n"
              << "  conditional branches: " << accuracy.total()
              << "\n"
              << "  accuracy:  "
              << TablePrinter::percentCell(
                     accuracy.accuracyPercent())
              << " %\n"
              << "  miss rate: "
              << TablePrinter::percentCell(accuracy.missPercent())
              << " %\n";
    return kExitOk;
}

int
cmdProfile(const Options &options)
{
    Measurement measured;
    if (const int status =
            openMeasurement(options, "profile", false, measured);
        status != kExitOk)
        return status;
    if (options.json)
        return writeRunJson(options, measured);
    // The table is read off the same metrics report as the JSON
    // document: the 15 worst sites, and the h2p totals for the
    // summary line.
    harness::MetricsOptions metrics;
    metrics.topOffenders = 15;
    const harness::RunMetricsReport report =
        harness::measureStreamWithMetrics(
            *measured.predictor, *measured.input.stream, metrics);
    if (streamFailed(options, measured))
        return kExitRuntime;

    TablePrinter table("worst branches for " + report.scheme + " on " +
                       report.benchmark);
    table.setHeader({"pc", "executions", "misses", "accuracy %",
                     "taken %"});
    std::uint64_t top_ten_misses = 0;
    for (std::size_t i = 0; i < report.topOffenders.size(); ++i) {
        const harness::BranchSite &site = report.topOffenders[i];
        if (i < 10)
            top_ten_misses += site.mispredictions;
        table.addRow({format("0x%llx",
                             static_cast<unsigned long long>(site.pc)),
                      std::to_string(site.executions),
                      std::to_string(site.mispredictions),
                      TablePrinter::percentCell(site.accuracy() *
                                                100.0),
                      TablePrinter::percentCell(site.takenRate() *
                                                100.0)});
    }
    table.print(std::cout);
    const harness::H2pReport &h2p = report.h2p;
    const double top_ten_share =
        h2p.totalMispredictions == 0
            ? 0.0
            : static_cast<double>(top_ten_misses) /
                  static_cast<double>(h2p.totalMispredictions);
    std::cout << "static branches: " << h2p.staticSites
              << ", total miss rate "
              << TablePrinter::percentCell(
                     100.0 *
                     static_cast<double>(h2p.totalMispredictions) /
                     static_cast<double>(h2p.totalExecutions))
              << " %; top-10 sites hold "
              << TablePrinter::percentCell(top_ten_share * 100.0)
              << " % of the misses\n";
    return kExitOk;
}

int
cmdDisasm(const Options &options)
{
    if (options.positional.size() != 1)
        return usage();
    if (!isBenchmark(options.positional[0])) {
        std::cerr << "unknown benchmark '" << options.positional[0]
                  << "'\n";
        return kExitUsage;
    }
    const auto workload =
        workloads::makeWorkload(options.positional[0]);
    const std::string data_set =
        options.data.empty() ? workload->testSet() : options.data;
    std::cout << isa::disassemble(workload->build(data_set));
    return kExitOk;
}

int
cmdCost(const Options &options)
{
    if (options.positional.size() != 1)
        return usage();
    const auto config =
        core::SchemeConfig::parse(options.positional[0]);
    if (!config)
        return badSchemeName(options.positional[0]);
    const core::StorageCost cost = core::storageCost(*config);
    TablePrinter table("storage cost: " + config->text());
    table.setHeader({"component", "bits"});
    table.addRow({"history entries",
                  std::to_string(cost.historyBits)});
    table.addRow({"tag store", std::to_string(cost.tagBits)});
    table.addRow({"LRU state", std::to_string(cost.lruBits)});
    table.addRow({"pattern table",
                  std::to_string(cost.patternBits)});
    table.addRow({"total", std::to_string(cost.total())});
    table.print(std::cout);
    return kExitOk;
}

int
cmdRas(const Options &options)
{
    if (options.positional.size() != 1)
        return usage();
    const auto input = openInput(options, options.positional[0]);
    if (!input)
        return kExitRuntime;
    const trace::TraceBuffer &buffer = *input->test;
    TablePrinter table("return-target hit rate: " + buffer.name());
    table.setHeader({"stack depth", "returns", "hit rate %"});
    for (const std::size_t depth : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
        const harness::RasResult result =
            harness::runRasExperiment(buffer, depth);
        table.addRow({std::to_string(depth),
                      std::to_string(result.returns),
                      TablePrinter::percentCell(result.hitRate() *
                                                100.0)});
    }
    table.print(std::cout);
    return kExitOk;
}

int
cmdCpi(const Options &options)
{
    // The pipeline model walks every record class, so it needs the
    // whole measured trace resident.
    Measurement measured;
    if (const int status = openMeasurement(options, "cpi", true, measured);
        status != kExitOk)
        return status;
    const trace::TraceBuffer &buffer = *measured.input.test;

    pipeline::PipelineConfig config;
    const pipeline::PipelineResult result =
        pipeline::PipelineModel(config).run(buffer, *measured.predictor);
    TablePrinter table("pipeline model: " + measured.predictor->name() +
                       " on " + buffer.name());
    table.setHeader({"metric", "value"});
    table.addRow({"instructions",
                  std::to_string(result.instructions)});
    table.addRow({"cycles", std::to_string(result.cycles)});
    table.addRow({"CPI", format("%.4f", result.cpi())});
    table.addRow({"direction flushes",
                  std::to_string(result.directionFlushes)});
    table.addRow({"BTB bubbles",
                  std::to_string(result.btbBubbles)});
    table.addRow({"indirect stalls",
                  std::to_string(result.indirectStalls)});
    table.addRow({"return mispredicts",
                  std::to_string(result.returnMispredicts)});
    table.print(std::cout);
    return kExitOk;
}

/**
 * `tlat serve --replay`: drive the serving engine from a directory of
 * trace files — the socket-free test/bench entry point. Every *.tltr
 * / *.txt file becomes one tenant (name = file name, sorted so the
 * tenant set is independent of directory enumeration order), and the
 * tenants' streams are ingested interleaved in fixed-size blocks to
 * exercise cross-tenant mixing. The metrics document is defined to be
 * byte-identical for every --shards / --batch-records value.
 */
int
cmdServe(const Options &options)
{
    const auto serveUsage = [] {
        std::cerr << "usage: tlat serve <scheme> --replay DIR "
                     "[--shards N] [--batch-records N]\n"
                     "       [--ring-capacity N] [--json]\n";
        return kExitUsage;
    };
    if (options.positional.size() != 1 || options.replay.empty())
        return serveUsage();
    const auto config =
        core::SchemeConfig::parse(options.positional[0]);
    if (!config)
        return badSchemeName(options.positional[0]);
    // Profile-guided schemes need a training trace before measuring;
    // a served stream has none. Usage error, not the engine's abort.
    if (predictors::makePredictor(*config)->needsTraining()) {
        std::cerr << "scheme '" << config->text()
                  << "' requires profile training and cannot be "
                     "served\n";
        return kExitUsage;
    }
    serve::ServeConfig serve_config;
    serve_config.shards = static_cast<unsigned>(options.shards);
    serve_config.batchRecords = options.batchRecords;
    serve_config.ringCapacity = options.ringCapacity;
    const std::string why = serve_config.validate();
    if (!why.empty()) {
        std::cerr << "bad serve configuration: " << why << "\n";
        return kExitUsage;
    }

    std::vector<std::filesystem::path> files;
    try {
        std::error_code ec;
        std::filesystem::directory_iterator it(options.replay, ec);
        if (ec) {
            std::cerr << "cannot read replay directory '"
                      << options.replay << "': " << ec.message()
                      << "\n";
            return kExitRuntime;
        }
        for (const auto &entry : it) {
            if (!entry.is_regular_file())
                continue;
            const std::string name =
                entry.path().filename().string();
            if (endsWith(name, ".tltr") || endsWith(name, ".txt"))
                files.push_back(entry.path());
        }
    } catch (const std::filesystem::filesystem_error &error) {
        std::cerr << "cannot read replay directory '"
                  << options.replay << "': " << error.what() << "\n";
        return kExitRuntime;
    }
    if (files.empty()) {
        std::cerr << "no trace files (*.tltr, *.txt) in replay "
                     "directory '"
                  << options.replay << "'\n";
        return kExitRuntime;
    }
    std::sort(files.begin(), files.end());

    struct TenantStream
    {
        std::size_t tenant;
        trace::TraceBuffer buffer;
        std::size_t next = 0;
    };
    serve::ServeEngine engine(*config, serve_config);
    std::vector<TenantStream> streams;
    streams.reserve(files.size());
    for (const std::filesystem::path &path : files) {
        std::string error;
        auto buffer = trace::loadFromFile(path.string(), &error);
        if (!buffer) {
            std::cerr << "cannot load trace '" << path.string()
                      << "': " << error << "\n";
            return kExitRuntime;
        }
        const std::size_t tenant =
            engine.addTenant(path.filename().string());
        streams.push_back({tenant, std::move(*buffer), 0});
    }

    // Round-robin block interleave across tenants: per-tenant order
    // is preserved (the determinism contract needs nothing more),
    // while the engine sees a realistically mixed arrival stream.
    constexpr std::size_t kInterleaveBlock = 1024;
    std::uint64_t total_records = 0;
    for (bool advanced = true; advanced;) {
        advanced = false;
        for (TenantStream &stream : streams) {
            const auto &records = stream.buffer.records();
            if (stream.next >= records.size())
                continue;
            const std::size_t take = std::min(
                kInterleaveBlock, records.size() - stream.next);
            engine.ingestSpan(
                stream.tenant,
                {records.data() + stream.next, take});
            stream.next += take;
            total_records += take;
            advanced = true;
        }
    }
    try {
        engine.drain();
    } catch (const std::exception &error) {
        std::cerr << "serve failed: " << error.what() << "\n";
        return kExitRuntime;
    }

    if (options.json) {
        engine.writeMetricsJson(std::cout);
        return kExitOk;
    }
    TablePrinter table("serve replay: " + engine.schemeText());
    table.setHeader({"tenant", "records", "conditionals",
                     "accuracy %"});
    AccuracyCounter totals;
    for (const TenantStream &stream : streams) {
        const serve::TenantReport report =
            engine.tenantReport(stream.tenant);
        totals.merge(report.accuracy);
        table.addRow({report.name, std::to_string(report.records),
                      std::to_string(report.accuracy.total()),
                      TablePrinter::percentCell(
                          report.accuracy.accuracyPercent())});
    }
    table.print(std::cout);
    std::cout << "served " << streams.size() << " tenants ("
              << total_records << " records) across "
              << engine.shards() << " shard"
              << (engine.shards() == 1 ? "" : "s")
              << "; overall accuracy "
              << TablePrinter::percentCell(totals.accuracyPercent())
              << " %\n";
    return kExitOk;
}

int
cmdCompare(const Options &options)
{
    if (options.positional.empty()) {
        std::cerr << "usage: tlat compare <scheme>...\n";
        return kExitUsage;
    }
    for (const std::string &scheme : options.positional) {
        if (!core::SchemeConfig::parse(scheme))
            return badSchemeName(scheme);
    }
    harness::BenchmarkSuite suite(options.budget);
    const harness::AccuracyReport report = harness::runSchemes(
        suite, "prediction accuracy (percent)", options.positional,
        {}, static_cast<unsigned>(options.jobs));
    report.print(std::cout);
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    // Asked-for help is success on stdout; handled before option
    // parsing so `--help` is not rejected as an unknown option.
    if (command == "help" || command == "--help" || command == "-h") {
        printUsage(std::cout);
        return kExitOk;
    }
    const auto options = parseOptions(argc, argv, 2);
    if (!options)
        return usage();

    if (command == "list")
        return cmdList();
    if (command == "trace")
        return cmdTrace(*options);
    if (command == "stats")
        return cmdStats(*options);
    if (command == "run")
        return cmdRun(*options);
    if (command == "profile")
        return cmdProfile(*options);
    if (command == "disasm")
        return cmdDisasm(*options);
    if (command == "cost")
        return cmdCost(*options);
    if (command == "compare")
        return cmdCompare(*options);
    if (command == "ras")
        return cmdRas(*options);
    if (command == "cpi")
        return cmdCpi(*options);
    if (command == "serve")
        return cmdServe(*options);
    std::cerr << "unknown command '" << command << "'\n";
    usage();
    return kExitUnknownCommand;
}
