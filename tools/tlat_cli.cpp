/**
 * @file
 * tlat — command-line driver for the library.
 *
 *   tlat help                          command summary on stdout
 *                                      (also --help / -h; exit 0)
 *   tlat list                          benchmarks and example schemes
 *   tlat trace <benchmark> [options]   generate a trace file
 *   tlat trace convert <in> --out FILE convert a trace between the
 *                                      text and TLTR binary formats
 *                                      (--to-binary / --to-text force
 *                                      a format; default: from the
 *                                      --out extension)
 *   tlat stats <benchmark|file>        workload characterization
 *   tlat run <scheme> <benchmark|file> measure a predictor
 *   tlat profile <scheme> <benchmark>  per-branch miss breakdown
 *   tlat disasm <benchmark>            dump the workload's micro88
 *   tlat cost <scheme>                 storage cost breakdown
 *   tlat compare <scheme>...           suite-wide accuracy report
 *   tlat ras <benchmark>               return-stack depth sweep
 *   tlat cpi <scheme> <benchmark>      pipeline timing model
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
 * Common options:
 *   --budget N      conditional-branch budget (default 300000)
 *   --data SET      workload data set (default: the testing set)
 *   --train FILE|BENCH  training trace for ST/Profile schemes
 *   --out FILE      output path for `trace` (.tltr binary or .txt)
 *   --jobs N        sweep worker threads for `compare` (default: the
 *                   hardware thread count; results are identical for
 *                   every value)
 *   --json          `run` and `profile` emit one machine-readable
 *                   JSON document (schema tlat-run-metrics-v3) with
 *                   accuracy, predictor counters (including the
 *                   combining chooser block), the warmup curve, the
 *                   top mispredicting branches and the h2p
 *                   hard-to-predict-branch taxonomy
 *   --chunk-records N  records per streamed chunk for `run` and
 *                   `trace convert` on TLTR files (default: the
 *                   TLAT_CHUNK_RECORDS environment variable, else
 *                   65536)
 *
 * Exit codes (stable; the CLI integration test pins them):
 *   0  success
 *   1  runtime failure (unloadable trace, unwritable output, ...)
 *   2  usage error (bad/duplicate/unknown option, bad scheme name,
 *      wrong positionals)
 *   3  unknown command
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_model.hh"
#include "harness/branch_profile.hh"
#include "harness/figure_runner.hh"
#include "harness/ras_experiment.hh"
#include "pipeline/pipeline_model.hh"
#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
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
    unsigned jobs = 0; // 0: harness::defaultJobs()
    bool json = false;
    bool toBinary = false;
    bool toText = false;
    /** Records per streamed chunk; 0 defers to TLAT_CHUNK_RECORDS. */
    std::size_t chunkRecords = 0;
    /** `serve`: shard worker count. */
    unsigned shards = 1;
    /** `serve`: conditionals per micro-batch flush. */
    std::size_t batchRecords = 64;
    /** `serve`: per-shard SPSC ring capacity (power of two). */
    std::size_t ringCapacity = 4096;
    /** `serve`: directory of trace files to replay as tenants. */
    std::string replay;
    std::string data;
    std::string train;
    std::string out;
    std::vector<std::string> positional;
};

/** Chunk size for streamed paths: the flag, else the env knob. */
std::size_t
effectiveChunkRecords(const Options &options)
{
    return options.chunkRecords != 0 ? options.chunkRecords
                                     : trace::defaultChunkRecords();
}

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
           "(--out FILE [--to-binary|--to-text])\n"
           "  stats <benchmark|file>       workload statistics\n"
           "  run <scheme> <bench|file>    measure a predictor\n"
           "  profile <scheme> <bench>     per-branch breakdown\n"
           "  disasm <benchmark>           dump micro88 assembly\n"
           "  cost <scheme>                storage cost breakdown\n"
           "  compare <scheme>...          suite-wide report\n"
           "  ras <benchmark>              return-stack sweep\n"
           "  cpi <scheme> <benchmark>     pipeline timing model\n"
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
           "         --chunk-records N  (run / trace convert on "
           ".tltr files:\n"
           "         stream through an mmap chunk iterator in "
           "O(chunk) memory, 65536\n"
           "         records per chunk by default; results are "
           "bit-identical for\n"
           "         every chunk size)\n";
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
        if (startsWith(arg, "--")) {
            if (std::find(seen.begin(), seen.end(), arg) !=
                seen.end()) {
                std::cerr << "duplicate option " << arg << "\n";
                return std::nullopt;
            }
            seen.push_back(arg);
        }
        const auto next = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                return std::nullopt;
            }
            return std::string(argv[++i]);
        };
        if (arg == "--budget") {
            const auto value = next();
            const auto parsed =
                value ? parseSize(*value) : std::nullopt;
            if (!parsed) {
                if (value)
                    std::cerr << "bad value '" << *value
                              << "' for --budget\n";
                return std::nullopt;
            }
            options.budget = *parsed;
        } else if (arg == "--jobs") {
            const auto value = next();
            const auto parsed =
                value ? parseSize(*value) : std::nullopt;
            if (!parsed || *parsed == 0) {
                if (value)
                    std::cerr << "bad value '" << *value
                              << "' for --jobs (want N >= 1)\n";
                return std::nullopt;
            }
            options.jobs = static_cast<unsigned>(*parsed);
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg == "--chunk-records") {
            const auto value = next();
            const auto parsed =
                value ? parseSize(*value) : std::nullopt;
            if (!parsed || *parsed == 0) {
                if (value)
                    std::cerr << "bad value '" << *value
                              << "' for --chunk-records "
                                 "(want N >= 1)\n";
                return std::nullopt;
            }
            options.chunkRecords =
                static_cast<std::size_t>(*parsed);
        } else if (arg == "--shards") {
            const auto value = next();
            const auto parsed =
                value ? parseSize(*value) : std::nullopt;
            if (!parsed || *parsed == 0) {
                if (value)
                    std::cerr << "bad value '" << *value
                              << "' for --shards (want N >= 1)\n";
                return std::nullopt;
            }
            options.shards = static_cast<unsigned>(*parsed);
        } else if (arg == "--batch-records") {
            const auto value = next();
            const auto parsed =
                value ? parseSize(*value) : std::nullopt;
            if (!parsed || *parsed == 0) {
                if (value)
                    std::cerr << "bad value '" << *value
                              << "' for --batch-records "
                                 "(want N >= 1)\n";
                return std::nullopt;
            }
            options.batchRecords =
                static_cast<std::size_t>(*parsed);
        } else if (arg == "--ring-capacity") {
            const auto value = next();
            const auto parsed =
                value ? parseSize(*value) : std::nullopt;
            if (!parsed ||
                !serve::SpscRing<int>::validCapacity(*parsed)) {
                if (value)
                    std::cerr << "bad value '" << *value
                              << "' for --ring-capacity "
                                 "(want a power of two >= 2)\n";
                return std::nullopt;
            }
            options.ringCapacity =
                static_cast<std::size_t>(*parsed);
        } else if (arg == "--replay") {
            const auto value = next();
            if (!value)
                return std::nullopt;
            options.replay = *value;
        } else if (arg == "--to-binary") {
            options.toBinary = true;
        } else if (arg == "--to-text") {
            options.toText = true;
        } else if (arg == "--data") {
            const auto value = next();
            if (!value)
                return std::nullopt;
            options.data = *value;
        } else if (arg == "--train") {
            const auto value = next();
            if (!value)
                return std::nullopt;
            options.train = *value;
        } else if (arg == "--out") {
            const auto value = next();
            if (!value)
                return std::nullopt;
            options.out = *value;
        } else if (startsWith(arg, "--")) {
            std::cerr << "unknown option " << arg << "\n";
            return std::nullopt;
        } else {
            options.positional.push_back(arg);
        }
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

/** Loads a trace from a benchmark name or a trace file path. */
std::optional<trace::TraceBuffer>
loadTrace(const std::string &source, const Options &options)
{
    if (isBenchmark(source)) {
        const auto workload = workloads::makeWorkload(source);
        const std::string data_set =
            options.data.empty() ? workload->testSet() : options.data;
        trace::TraceBuffer buffer = sim::collectTrace(
            workload->build(data_set), options.budget);
        buffer.setName(source);
        return buffer;
    }
    std::string error;
    auto loaded = trace::loadFromFile(source, &error);
    if (!loaded)
        std::cerr << "cannot load trace '" << source
                  << "': " << error << "\n";
    return loaded;
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
 * `tlat trace convert`: re-encode an existing trace file. The output
 * format follows --to-binary/--to-text when given, else the --out
 * extension (saveToFile's rule: .txt is text, anything else TLTR
 * binary). Round-trips are lossless in both directions.
 */
/**
 * Streamed binary-to-binary convert: pump the input through the mmap
 * chunk iterator and append each chunk's packed records behind one
 * up-front header, in O(chunk) memory. The wire composition is the
 * same writeBinaryHeader + writeBinaryRecords pair writeBinary() is
 * built from, so the output is byte-identical to the whole-buffer
 * path (the CLI integration test pins this with cmp).
 */
int
convertBinaryStreamed(const std::string &in_path,
                      const std::string &out_path,
                      std::size_t chunk_records)
{
    std::string error;
    auto stream =
        trace::MmapChunkStream::open(in_path, chunk_records, &error);
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
    if (options.positional.size() != 2 || options.out.empty() ||
        (options.toBinary && options.toText)) {
        std::cerr << "usage: tlat trace convert <in> --out FILE "
                     "[--to-binary|--to-text]\n";
        return kExitUsage;
    }
    // Binary-to-binary conversions stream chunk-by-chunk; text input
    // cannot (headers like '# name:' may appear anywhere in the
    // file), and text output goes through the one writeText()
    // implementation rather than duplicating its line format here.
    const std::string &in_path = options.positional[1];
    const bool in_binary = !endsWith(in_path, ".txt");
    const bool out_text =
        options.toText ||
        (!options.toBinary && endsWith(options.out, ".txt"));
    if (in_binary && !out_text) {
        return convertBinaryStreamed(in_path, options.out,
                                     effectiveChunkRecords(options));
    }
    std::string error;
    const auto buffer =
        trace::loadFromFile(options.positional[1], &error);
    if (!buffer) {
        std::cerr << "cannot load trace '" << options.positional[1]
                  << "': " << error << "\n";
        return kExitRuntime;
    }

    bool written = false;
    if (options.toBinary || options.toText) {
        std::ofstream os(options.out,
                         options.toBinary ? std::ios::binary
                                          : std::ios::out);
        written = os && (options.toBinary
                             ? trace::writeBinary(*buffer, os)
                             : trace::writeText(*buffer, os));
    } else {
        written = trace::saveToFile(*buffer, options.out);
    }
    if (!written) {
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
    const auto buffer = loadTrace(options.positional[0], options);
    if (!buffer)
        return kExitRuntime;
    if (!trace::saveToFile(*buffer, options.out)) {
        std::cerr << "cannot write '" << options.out << "'\n";
        return kExitRuntime;
    }
    std::cout << "wrote " << buffer->size() << " branch records ("
              << buffer->conditionalCount() << " conditional) to "
              << options.out << "\n";
    return kExitOk;
}

int
cmdStats(const Options &options)
{
    if (options.positional.size() != 1)
        return usage();
    const auto buffer = loadTrace(options.positional[0], options);
    if (!buffer)
        return kExitRuntime;
    const trace::TraceStats stats = trace::computeStats(*buffer);
    TablePrinter table("trace statistics: " + buffer->name());
    table.setHeader({"metric", "value"});
    table.addRow({"dynamic instructions",
                  std::to_string(buffer->mix().total())});
    table.addRow({"branch fraction %",
                  TablePrinter::percentCell(
                      buffer->mix().branchFraction() * 100.0)});
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

/**
 * The `context` members of a run document: what was measured. A
 * benchmark is generated under --budget; a trace file is measured
 * whole, so it records its format and record count instead. Nothing
 * about how the file was read (chunk size) appears, so the document
 * is identical on every read path.
 */
std::vector<std::pair<std::string, std::string>>
runContext(const std::string &source, const Options &options,
           std::uint64_t records, const trace::TraceBuffer *train)
{
    std::vector<std::pair<std::string, std::string>> context;
    if (isBenchmark(source)) {
        context.emplace_back("budget", std::to_string(options.budget));
    } else {
        context.emplace_back("source",
                             endsWith(source, ".txt") ? "text" : "tltr");
        context.emplace_back("records", std::to_string(records));
    }
    if (train != nullptr)
        context.emplace_back("train", train->name());
    return context;
}

/** The human-readable `tlat run` result block. */
void
printRunResult(const std::string &scheme,
               const std::string &benchmark,
               const AccuracyCounter &accuracy)
{
    std::cout << scheme << " on " << benchmark << ":\n"
              << "  conditional branches: " << accuracy.total()
              << "\n"
              << "  accuracy:  "
              << TablePrinter::percentCell(
                     accuracy.accuracyPercent())
              << " %\n"
              << "  miss rate: "
              << TablePrinter::percentCell(accuracy.missPercent())
              << " %\n";
}

int
cmdRun(const Options &options)
{
    if (options.positional.size() != 2) {
        std::cerr << "usage: tlat run <scheme> <benchmark|file>\n";
        return kExitUsage;
    }
    const auto config =
        core::SchemeConfig::parse(options.positional[0]);
    if (!config)
        return badSchemeName(options.positional[0]);
    auto predictor = predictors::makePredictor(*config);
    const std::string &source = options.positional[1];

    std::optional<trace::TraceBuffer> train;
    if (!options.train.empty()) {
        train = loadTrace(options.train, options);
        if (!train)
            return kExitRuntime;
    } else if (config->data == core::DataMode::Diff &&
               isBenchmark(source)) {
        const auto workload = workloads::makeWorkload(source);
        if (const auto set = workload->trainSet()) {
            Options train_options = options;
            train_options.data = *set;
            train = loadTrace(source, train_options);
        } else {
            std::cerr << "no training data set for " << source
                      << "\n";
            return kExitRuntime;
        }
    }

    // Every source runs as one chunk stream. TLTR files go through
    // the mmap chunk iterator in O(chunk) memory; benchmarks and text
    // files load the whole buffer and stream over it.
    // Schemes that train on the test trace itself need the whole
    // buffer resident anyway, so they load it too. Output is
    // byte-identical on either path, for every chunk size, since
    // predictor state never lives in the stream.
    std::optional<trace::TraceBuffer> test;
    std::unique_ptr<trace::ChunkStream> stream;
    if (!isBenchmark(source) && !endsWith(source, ".txt") &&
        (!predictor->needsTraining() || train)) {
        std::string error;
        stream = trace::MmapChunkStream::open(
            source, effectiveChunkRecords(options), &error);
        if (!stream) {
            std::cerr << "cannot load trace '" << source
                      << "': " << error << "\n";
            return kExitRuntime;
        }
    } else {
        test = loadTrace(source, options);
        if (!test)
            return kExitRuntime;
        stream = std::make_unique<trace::BufferChunkStream>(
            *test, trace::defaultChunkRecords());
    }
    predictor->reset();
    if (predictor->needsTraining())
        predictor->train(train ? *train : *test);

    std::optional<harness::RunMetricsReport> report;
    AccuracyCounter accuracy;
    if (options.json)
        report = harness::measureStreamWithMetrics(*predictor, *stream);
    else
        accuracy = harness::measureStream(*predictor, *stream);
    if (!stream->error().empty()) {
        std::cerr << "cannot load trace '" << source
                  << "': " << stream->error() << "\n";
        return kExitRuntime;
    }
    if (!report) {
        printRunResult(predictor->name(), stream->name(), accuracy);
        return kExitOk;
    }
    harness::writeRunMetricsJson(
        *report, std::cout,
        runContext(source, options, stream->recordCount(),
                   train ? &*train : nullptr));
    return kExitOk;
}

int
cmdProfile(const Options &options)
{
    if (options.positional.size() != 2) {
        std::cerr << "usage: tlat profile <scheme> <benchmark>\n";
        return kExitUsage;
    }
    // Parse-first: an unknown scheme is a usage error (exit 2), not
    // the fatal abort makePredictor(string) raises.
    const auto config =
        core::SchemeConfig::parse(options.positional[0]);
    if (!config)
        return badSchemeName(options.positional[0]);
    auto predictor = predictors::makePredictor(*config);
    const auto test = loadTrace(options.positional[1], options);
    if (!test)
        return kExitRuntime;
    if (options.json) {
        const harness::RunMetricsReport report =
            harness::runProfiledExperiment(*predictor, *test);
        harness::writeRunMetricsJson(
            report, std::cout,
            runContext(options.positional[1], options, test->size(),
                       nullptr));
        return kExitOk;
    }
    if (predictor->needsTraining())
        predictor->train(*test);
    const harness::BranchProfile profile =
        harness::profileBranches(*predictor, *test);

    TablePrinter table("worst branches for " + predictor->name() +
                       " on " + test->name());
    table.setHeader({"pc", "executions", "misses", "accuracy %",
                     "taken %"});
    for (const harness::BranchSite &site : profile.worstSites(15)) {
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
    std::cout << "static branches: " << profile.staticBranches()
              << ", total miss rate "
              << TablePrinter::percentCell(
                     100.0 *
                     static_cast<double>(
                         profile.totalMispredictions()) /
                     static_cast<double>(profile.totalExecutions()))
              << " %; top-10 sites hold "
              << TablePrinter::percentCell(
                     profile.missConcentration(10) * 100.0)
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
    const auto buffer = loadTrace(options.positional[0], options);
    if (!buffer)
        return kExitRuntime;
    TablePrinter table("return-target hit rate: " + buffer->name());
    table.setHeader({"stack depth", "returns", "hit rate %"});
    for (const std::size_t depth : {1ul, 2ul, 4ul, 8ul, 16ul, 32ul}) {
        const harness::RasResult result =
            harness::runRasExperiment(*buffer, depth);
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
    if (options.positional.size() != 2) {
        std::cerr << "usage: tlat cpi <scheme> <benchmark|file>\n";
        return kExitUsage;
    }
    // Parse-first: an unknown scheme is a usage error (exit 2), not
    // the fatal abort makePredictor(string) raises.
    const auto scheme =
        core::SchemeConfig::parse(options.positional[0]);
    if (!scheme)
        return badSchemeName(options.positional[0]);
    auto predictor = predictors::makePredictor(*scheme);
    const auto buffer = loadTrace(options.positional[1], options);
    if (!buffer)
        return kExitRuntime;
    if (predictor->needsTraining())
        predictor->train(*buffer);

    pipeline::PipelineConfig config;
    const pipeline::PipelineResult result =
        pipeline::PipelineModel(config).run(*buffer, *predictor);
    TablePrinter table("pipeline model: " + predictor->name() +
                       " on " + buffer->name());
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
    serve_config.shards = options.shards;
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
        {}, options.jobs);
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
