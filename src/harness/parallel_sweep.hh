/**
 * @file
 * Deterministic parallel sweep engine for figure and design-space
 * grids.
 *
 * A sweep is a (scheme x benchmark) grid of completely independent
 * cells. Each cell gets its own freshly constructed predictor and
 * reads only immutable traces, so cells can run on any worker in any
 * order without ever influencing each other. Trace generation and
 * cells share one task graph on the pool: each trace releases the
 * cells that read it as soon as it exists. The merge
 * into the AccuracyReport happens single-threaded in a fixed
 * (scheme-major, paper benchmark order) sequence after every cell
 * finished, so column order, cell values and the derived geometric
 * means are bit-identical for every jobs count — `jobs=64` must
 * reproduce `jobs=1` exactly, and tests/test_parallel_sweep.cc holds
 * the engine to that.
 *
 * Determinism rules a cell must obey (enforced by convention and by
 * the serial-equivalence test):
 *  - no shared mutable state: predictor, counters and any scratch are
 *    cell-local; traces are shared read-only;
 *  - any randomness must come from an Rng seeded with
 *    cellSeed(scheme, benchmark) — never from time, thread id or a
 *    shared generator, all of which would tie results to scheduling.
 */

#ifndef TLAT_HARNESS_PARALLEL_SWEEP_HH
#define TLAT_HARNESS_PARALLEL_SWEEP_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "experiment.hh"
#include "report.hh"
#include "suite.hh"

namespace tlat::harness
{

/**
 * The most sweep worker threads TLAT_JOBS and `tlat --jobs` may ask
 * for; larger values are rejected before any thread exists.
 */
inline constexpr unsigned kMaxJobs = 256;

/**
 * Worker count used when the caller passes jobs = 0: the TLAT_JOBS
 * environment variable when set (1..kMaxJobs; anything else is
 * fatal), else the hardware thread count.
 */
unsigned defaultJobs();

/**
 * The per-cell RNG seed: a deterministic function of the scheme name
 * and benchmark name only (FNV-1a over both, finalized with a 64-bit
 * mix). Identical on every platform, for every thread count, in every
 * run — a stochastic predictor variant seeded from this stays
 * bit-reproducible under the parallel engine.
 */
std::uint64_t cellSeed(std::string_view scheme,
                       std::string_view benchmark);

/**
 * Measures every scheme on every benchmark, sharding the grid over
 * @p jobs worker threads (0 = defaultJobs()).
 *
 * Each cell constructs its own predictor from the parsed scheme name,
 * so no cell ever observes another cell's warmed state. Missing
 * traces are generated on the same pool (BenchmarkSuite::
 * streamTraces), and a cell starts as soon as its trace exists — a
 * Diff-data cell once both its testing and training traces do.
 * Diff-data Static Training cells without a training trace are
 * skipped and print as "-", exactly like the serial runner always
 * did.
 *
 * @param column_labels Optional short labels, parallel to
 *        @p scheme_names; empty means use the scheme names.
 * @param metrics_out When non-null, every cell is measured through
 *        the metrics-collecting loop (runProfiledExperiment) and the
 *        per-cell reports are appended in the same fixed scheme-major
 *        cell order as the report merge — so the collected metrics,
 *        like the accuracies, are bit-identical for every jobs count.
 *        Null (the default) keeps the plain zero-overhead loop.
 */
AccuracyReport runSweep(BenchmarkSuite &suite, const std::string &title,
                        const std::vector<std::string> &scheme_names,
                        const std::vector<std::string> &column_labels = {},
                        unsigned jobs = 0,
                        std::vector<RunMetricsReport> *metrics_out =
                            nullptr);

} // namespace tlat::harness

#endif // TLAT_HARNESS_PARALLEL_SWEEP_HH
