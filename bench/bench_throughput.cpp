/**
 * @file
 * google-benchmark microbenchmarks: predict+update throughput of
 * every predictor family on a pre-generated gcc trace, plus the
 * simulator's raw trace-generation rate and the cost of collecting a
 * trace with its record storage. Not a paper artifact — a
 * software performance check for the library itself.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "bench_common.hh"
#include "core/two_level_predictor.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "trace/predecode.hh"
#include "util/simd.hh"
#include "workloads/workload.hh"

namespace
{

using namespace tlat;

const trace::TraceBuffer &
gccTrace()
{
    static const trace::TraceBuffer trace = [] {
        const auto workload = workloads::makeWorkload("gcc");
        return sim::collectTrace(workload->buildTest(), 100000);
    }();
    return trace;
}

void
runPredictorLoop(benchmark::State &state, const std::string &scheme)
{
    const trace::TraceBuffer &trace = gccTrace();
    const auto predictor = predictors::makePredictor(scheme);
    if (predictor->needsTraining())
        predictor->train(trace);

    std::uint64_t branches = 0;
    for (auto _ : state) {
        for (const trace::BranchRecord &record : trace.records()) {
            if (record.cls != trace::BranchClass::Conditional)
                continue;
            benchmark::DoNotOptimize(predictor->predict(record));
            predictor->update(record);
            ++branches;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}

// The same predictors driven through the fused batch API over the
// predecoded SoA view — the BM_*Soa / BM_* pairs are the per-family
// A/B the throughput gate summarizes. The per-trace
// dictionary/outcome/index lanes are built once (outside the timed
// region, matching how the harness shares one artifact across all
// sweep cells) and every pass reuses them.
void
runSoaLoop(benchmark::State &state, const std::string &scheme)
{
    const trace::TraceBuffer &trace = gccTrace();
    const trace::PredecodedView view = trace.predecodedView();
    const auto predictor = predictors::makePredictor(scheme);
    if (predictor->needsTraining())
        predictor->train(trace);

    std::uint64_t branches = 0;
    for (auto _ : state) {
        AccuracyCounter accuracy;
        predictor->simulateBatch(view, accuracy);
        benchmark::DoNotOptimize(accuracy.hits());
        branches += accuracy.total();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(branches));
}

void
BM_TwoLevelAhrt(benchmark::State &state)
{
    runPredictorLoop(state, "AT(AHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelAhrt);

void
BM_TwoLevelAhrtSoa(benchmark::State &state)
{
    runSoaLoop(state, "AT(AHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelAhrtSoa);

void
BM_TwoLevelIhrt(benchmark::State &state)
{
    runPredictorLoop(state, "AT(IHRT(,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelIhrt);

void
BM_TwoLevelIhrtSoa(benchmark::State &state)
{
    runSoaLoop(state, "AT(IHRT(,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelIhrtSoa);

void
BM_TwoLevelHhrt(benchmark::State &state)
{
    runPredictorLoop(state, "AT(HHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelHhrt);

void
BM_TwoLevelHhrtSoa(benchmark::State &state)
{
    runSoaLoop(state, "AT(HHRT(512,12SR),PT(2^12,A2),)");
}
BENCHMARK(BM_TwoLevelHhrtSoa);

void
BM_LeeSmith(benchmark::State &state)
{
    runPredictorLoop(state, "LS(AHRT(512,A2),,)");
}
BENCHMARK(BM_LeeSmith);

void
BM_LeeSmithSoa(benchmark::State &state)
{
    runSoaLoop(state, "LS(AHRT(512,A2),,)");
}
BENCHMARK(BM_LeeSmithSoa);

// Tournament scheme: both components plus the chooser on every
// branch, so the reference loop pays roughly the sum of its parts.
// The batch path instead runs each component's own fused batch and
// replays the chooser over captured correctness lanes.
const char kCombiningScheme[] =
    "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),LS(AHRT(512,A2),,),"
    "CT(2^12))";

void
BM_Combining(benchmark::State &state)
{
    runPredictorLoop(state, kCombiningScheme);
}
BENCHMARK(BM_Combining);

void
BM_CombiningSoa(benchmark::State &state)
{
    runSoaLoop(state, kCombiningScheme);
}
BENCHMARK(BM_CombiningSoa);

void
BM_StaticTraining(benchmark::State &state)
{
    runPredictorLoop(state, "ST(AHRT(512,12SR),PT(2^12,PB),Same)");
}
BENCHMARK(BM_StaticTraining);

void
BM_Btfn(benchmark::State &state)
{
    runPredictorLoop(state, "BTFN");
}
BENCHMARK(BM_Btfn);

void
BM_SimulatorTraceGeneration(benchmark::State &state)
{
    const auto workload = workloads::makeWorkload("matrix300");
    const isa::Program program = workload->buildTest();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        sim::Simulator simulator(program);
        sim::SimOptions options;
        options.maxInstructions = 2000000;
        const sim::SimResult result =
            simulator.run(nullptr, options);
        instructions += result.instructions;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_SimulatorTraceGeneration);

/**
 * What a sweep pays per benchmark before any predictor runs:
 * collectTrace() with record storage, on gcc and fpppp at a 200k
 * conditional budget. Items are simulated instructions; recorded but
 * not gated.
 */
void
BM_CollectTrace(benchmark::State &state, const char *benchmark_name)
{
    const auto workload = workloads::makeWorkload(benchmark_name);
    const isa::Program program = workload->buildTest();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        const trace::TraceBuffer trace =
            sim::collectTrace(program, 200000);
        instructions += trace.mix().total();
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(instructions));
}
BENCHMARK_CAPTURE(BM_CollectTrace, gcc, "gcc")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CollectTrace, fpppp, "fpppp")
    ->Unit(benchmark::kMillisecond);

/**
 * Steady-clock A/B of a scheme: the reference predict()/update()
 * loop and the fused simulateBatch() path over the predecoded view,
 * both over the same gcc trace. These feed the headline scalars the
 * CI throughput gate (tools/check_throughput.py) compares against
 * the committed baseline — the gate checks the speedup ratios
 * (stable across hosts) rather than absolute records/sec. The batch
 * legs reuse the buffer's cached artifact, like the harness does
 * when one trace is shared across all sweep cells.
 */
enum class DriveMode
{
    Reference,
    Batch,
};

/**
 * One drive leg of a scheme, warmed once and then timed repeat by
 * repeat. @p pin_scalar pins SIMD dispatch to the scalar kernels for
 * every pass of the leg.
 */
class TimedLeg
{
  public:
    TimedLeg(const std::string &scheme, DriveMode mode,
             bool pin_scalar = false)
        : trace_(gccTrace()), view_(trace_.predecodedView()),
          predictor_(predictors::makePredictor(scheme)), mode_(mode),
          pin_scalar_(pin_scalar)
    {
        timedPasses(1); // warm tables, caches, and index lanes
    }

    /** Records/sec of one repeat of kPassesPerRepeat passes. */
    double
    repeat()
    {
        return timedPasses(kPassesPerRepeat);
    }

  private:
    static constexpr int kPassesPerRepeat = 4;

    std::uint64_t
    pass()
    {
        AccuracyCounter accuracy;
        switch (mode_) {
        case DriveMode::Batch:
            predictor_->simulateBatch(view_, accuracy);
            break;
        case DriveMode::Reference:
            for (const trace::BranchRecord &record : trace_.records()) {
                if (record.cls != trace::BranchClass::Conditional)
                    continue;
                benchmark::DoNotOptimize(
                    predictor_->predict(record));
                predictor_->update(record);
                accuracy.record(true);
            }
            break;
        }
        return accuracy.total();
    }

    double
    timedPasses(int passes)
    {
        std::optional<util::simd::ScopedLevelOverride> pin;
        if (pin_scalar_)
            pin.emplace(util::simd::Level::Scalar);
        std::uint64_t records = 0;
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < passes; ++i)
            records += pass();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        return static_cast<double>(records) / seconds;
    }

    const trace::TraceBuffer &trace_;
    trace::PredecodedView view_;
    std::unique_ptr<core::BranchPredictor> predictor_;
    DriveMode mode_;
    bool pin_scalar_;
};

/** Repeats of a leg that is recorded but not gated. */
constexpr int kRepeats = 5;
/** Rounds of the gated legs: one sample per gated ratio per round. */
constexpr int kGatedRounds = 9;

double
timedRecordsPerSec(const std::string &scheme, DriveMode mode)
{
    // Best-of-N repeats rather than one long window: on shared CI
    // hosts a neighbour stealing the core mid-window skews whichever
    // leg it lands on. The fastest repeat approximates the
    // uncontended rate of each leg.
    TimedLeg leg(scheme, mode);
    double best = 0.0;
    for (int r = 0; r < kRepeats; ++r)
        best = std::max(best, leg.repeat());
    return best;
}

/** Per-round records/sec of each leg behind a gated ratio. */
struct GatedRates
{
    std::vector<double> reference; ///< AHRT reference loop
    std::vector<double> fused;     ///< AHRT batch
    std::vector<double> simd;      ///< IHRT batch, active SIMD
    std::vector<double> scalar;    ///< IHRT batch, SIMD pinned off
};

/**
 * Times the four gated legs round-robin, each once per round. Each
 * ratio's two legs sit next to each other in the round, so host drift
 * lands on both sides of a sample.
 */
GatedRates
timeGatedLegs(const std::string &ahrt, const std::string &ihrt)
{
    TimedLeg reference(ahrt, DriveMode::Reference);
    TimedLeg fused(ahrt, DriveMode::Batch);
    TimedLeg simd(ihrt, DriveMode::Batch);
    TimedLeg scalar(ihrt, DriveMode::Batch, true);
    GatedRates rates;
    for (int r = 0; r < kGatedRounds; ++r) {
        rates.reference.push_back(reference.repeat());
        rates.fused.push_back(fused.repeat());
        rates.simd.push_back(simd.repeat());
        rates.scalar.push_back(scalar.repeat());
    }
    return rates;
}

double
best(const std::vector<double> &values)
{
    return *std::max_element(values.begin(), values.end());
}

/** Per-round samples of the ratio @p fast / @p slow. */
std::vector<double>
ratioSamples(const std::vector<double> &fast,
             const std::vector<double> &slow)
{
    std::vector<double> samples;
    for (std::size_t r = 0; r < fast.size(); ++r)
        samples.push_back(fast[r] / slow[r]);
    return samples;
}

/** The median, as the gate computes it (mean of the middle two). */
double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 != 0
               ? values[mid]
               : (values[mid - 1] + values[mid]) / 2.0;
}

/**
 * Seconds to build one predecoded artifact (dictionary + outcome
 * bitvector) from scratch for the gcc trace. This is the one-time
 * per-trace cost the sweep amortizes across all cells; the gate
 * reports it relative to a single fused batch pass so a regression
 * that makes predecode slower than the work it saves is visible.
 */
double
timedPredecodeBuildSeconds()
{
    const trace::TraceBuffer &trace = gccTrace();
    constexpr int kBuilds = 20;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kBuilds; ++i) {
        const trace::PredecodedTrace soa(trace.conditionalView());
        benchmark::DoNotOptimize(soa.size());
    }
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return seconds / kBuilds;
}

} // namespace

// Expanded BENCHMARK_MAIN() so the run is wrapped in a BenchRecorder:
// like every other bench binary it leaves a BENCH_throughput.json
// behind (wall time + config fingerprint + the reference-vs-fused
// headline scalars; per-benchmark numbers come from
// --benchmark_format=json if needed).
int
main(int argc, char **argv)
{
    tlat::bench::BenchRecorder record("throughput");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    const std::string ahrt = "AT(AHRT(512,12SR),PT(2^12,A2),)";
    const std::string ihrt = "AT(IHRT(,12SR),PT(2^12,A2),)";
    // The two gated ratios, each recorded as its per-round samples
    // and, in scalars, as their median: the statistic the gate reads
    // and the baseline holds, which one stolen time slice cannot
    // move. The legs' records/sec are the best of their rounds.
    const GatedRates rates = timeGatedLegs(ahrt, ihrt);
    const std::vector<double> fused_samples =
        ratioSamples(rates.fused, rates.reference);
    const std::vector<double> simd_samples =
        ratioSamples(rates.simd, rates.scalar);
    const double reference = best(rates.reference);
    const double fused = best(rates.fused);
    const double fused_speedup = median(fused_samples);
    record.addScalar("reference_records_per_sec", reference);
    record.addScalar("fused_records_per_sec", fused);
    record.addScalar("fused_speedup", fused_speedup);
    record.addSamples("fused_speedup", fused_samples);

    // SIMD A/B on the IHRT scheme: the vector fused kernel (whatever
    // level runtime dispatch picked) against the same run with the
    // level pinned to Scalar, which routes simulateBatch back through
    // the scalar lane-prober path. simd_active records whether a
    // vector level was available at all (the gate relaxes to ~1.0x on
    // scalar-only hosts, where both legs run the same code).
    const double simd_rps = best(rates.simd);
    const double simd_scalar_rps = best(rates.scalar);
    const double simd_speedup = median(simd_samples);
    const bool simd_active =
        util::simd::activeLevel() != util::simd::Level::Scalar;
    record.addScalar("simd_records_per_sec", simd_rps);
    record.addScalar("simd_scalar_records_per_sec",
                     simd_scalar_rps);
    record.addScalar("simd_speedup", simd_speedup);
    record.addSamples("simd_speedup", simd_samples);
    record.addScalar("simd_active", simd_active ? 1.0 : 0.0);

    // Tournament A/B: the combining batch path should recover most
    // of the component fused speedup despite the chooser replay pass.
    const double comb_reference =
        timedRecordsPerSec(kCombiningScheme, DriveMode::Reference);
    const double comb_fused =
        timedRecordsPerSec(kCombiningScheme, DriveMode::Batch);
    record.addScalar("comb_reference_records_per_sec",
                     comb_reference);
    record.addScalar("comb_fused_records_per_sec", comb_fused);
    record.addScalar("comb_fused_speedup",
                     comb_fused / comb_reference);

    // Predecode build cost, expressed in fused-batch-pass units: how
    // many single-scheme passes one build costs. Sweeps run hundreds
    // of cells per trace, so anything well under 1.0 amortizes away.
    const double conditionals = static_cast<double>(
        gccTrace().conditionalView().size());
    const double fused_pass_seconds = conditionals / fused;
    const double predecode_overhead =
        timedPredecodeBuildSeconds() / fused_pass_seconds;
    record.addScalar("predecode_overhead", predecode_overhead);

    // Peak resident set of the whole bench run — the memory-side
    // companion to the throughput scalars, printed (not gated) so a
    // footprint regression in the hot paths shows up in the log.
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_bytes =
        static_cast<double>(usage.ru_maxrss) * 1024.0;
    record.addScalar("peak_rss_bytes", peak_rss_bytes);

    std::cout << "reference: " << reference
              << " records/sec, fused: " << fused
              << " records/sec, speedup: " << fused_speedup
              << "x\n"
              << "combining reference: " << comb_reference
              << " records/sec, fused: " << comb_fused
              << " records/sec, speedup: "
              << comb_fused / comb_reference << "x\n"
              << "predecode build: " << predecode_overhead
              << " fused passes\n"
              << "simd(" << util::simd::levelName(
                     util::simd::activeLevel())
              << "): " << simd_rps << " records/sec, scalar: "
              << simd_scalar_rps << " records/sec, simd_speedup: "
              << simd_speedup << "x\n"
              << "peak rss: " << peak_rss_bytes / (1024.0 * 1024.0)
              << " MiB\n";
    return 0;
}
