#!/usr/bin/env python3
"""Throughput regression gate for the fused simulation fast paths.

Compares the headline scalars bench_throughput records in
BENCH_throughput.json against the committed baseline
(bench/baselines/throughput_baseline.json). Each gated ratio is read
as the median of its per-round samples and fails when that median
falls below its floor: the baseline value less the tolerance (15% by
default; ``TLAT_THROUGHPUT_TOLERANCE`` overrides it), raised, for a
ratio with a hard floor, to that hard floor less the 3% noise band
described below.

Two ratios are gated; both are self-normalizing (measured against a
sibling leg of the same run on the same host), so they only drop when
the fast path itself gets slower relative to its twin — exactly the
regressions these gates exist to catch:

* ``fused_speedup`` — fused simulateBatch records/sec over the
  trace's cached predecoded view against the reference
  predict()/update() loop, AT(AHRT) scheme.
* ``simd_speedup`` — the vectorized fused kernel (runtime-dispatched
  AVX2/NEON) over the same SoA run with the SIMD level pinned to
  Scalar (which routes through the scalar lane-source path), AT
  (IHRT) scheme. On hosts where a vector level is active
  (``simd_active`` == 1) the hard floor is 1.5x: the acceptance bar
  for shipping the vector kernels. On scalar-only hosts both legs
  run the same code, so the ratio is only required to stay near 1.0
  (>= 0.85) and the baseline comparison is skipped.

Each gated ratio is judged on the median of its per-round samples,
the document's ``samples`` object; a document without them is
malformed. bench_throughput times the gated legs round-robin, one
sample per ratio per round, and writes the same median into
``scalars``, so the committed baseline holds the statistic the gate
reads. The hard floors are lowered by an explicit noise band,
``SAMPLE_NOISE_BAND`` (3%): on a 4-CPU AVX2 host nine
``simd_speedup`` samples of one run spanned 1.64-1.79 around a 1.70
median, and a single best-of-5 ratio once read 1.478 against the 1.5
floor with no code change. The band is applied to the median, never
to one sample, so a real regression of more than 3% below a floor
still fails.

``comb_fused_speedup`` (the tournament scheme's fused path over its
reference loop — the chooser-replay design keeps this near the
component speedups) is required to be present and printed, but not
gated yet: the replay pass's share of runtime shifts with component
choice, so the ratio is noisier than the single-scheme twins.
``predecode_overhead`` (one artifact build, in fused-batch-pass units)
is required to be present and is printed for the log, but never
gated: build cost amortizes across every cell sharing the trace.
Absolute records/sec vary wildly across CI hosts and are printed but
never gated.

The serve-path record (BENCH_serve.json, ``"figure": "serve"``) is
gated separately against bench/baselines/serve_baseline.json:
``tenants_per_sec`` may not fall below baseline - tolerance, and
``p99_latency_ns`` may not rise above baseline + tolerance. The
absolute records/sec, the served-vs-offline ratio, p50 and peak RSS
are required to be present and are printed but not gated (they vary
with host core count — a 1-CPU container time-slices the shard
workers, a real host runs them in parallel). The document's
``figure`` field selects the rule set and the default baseline file.

Usage:
    check_throughput.py BENCH_throughput.json [baseline.json]
    check_throughput.py BENCH_serve.json [baseline.json]

Exit codes: 0 ok, 1 regression or malformed input, 2 usage.
"""

import json
import os
import statistics
import sys

DEFAULT_TOLERANCE = 0.15
SIMD_SPEEDUP_HARD_FLOOR = 1.5
# Scalar-only hosts run the same code on both simd legs; the ratio
# must simply not fall materially below parity.
SIMD_INACTIVE_FLOOR = 0.85
# Fraction by which a hard floor is lowered for the median of a gated
# ratio's samples (see the module docstring for the measured spread
# behind it).
SAMPLE_NOISE_BAND = 0.03
GATED_RATIOS = (
    ("fused_speedup", None),
    ("simd_speedup", SIMD_SPEEDUP_HARD_FLOOR),
)


def sample_medians(document):
    """{name: median of its samples} for every gated ratio; raises
    ValueError when the document lacks a ratio's samples."""
    samples = document.get("samples")
    medians = {}
    for name, _ in GATED_RATIOS:
        values = samples.get(name) if isinstance(samples, dict) else None
        if not isinstance(values, list) or not values:
            raise ValueError(f"no samples for '{name}'")
        medians[name] = float(statistics.median(values))
    return medians


def ratio_floor(want, tolerance, hard_floor):
    """The floor a gated ratio's median must reach: baseline minus
    tolerance, raised to the hard floor less the noise band."""
    floor = want * (1.0 - tolerance)
    if hard_floor is not None:
        floor = max(floor, hard_floor * (1.0 - SAMPLE_NOISE_BAND))
    return floor


def load_document(path):
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    scalars = document.get("scalars")
    if not isinstance(scalars, dict):
        raise ValueError(f"{path}: no 'scalars' object")
    return document, scalars


def default_baseline(figure):
    name = ("serve_baseline.json" if figure == "serve"
            else "throughput_baseline.json")
    return os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "..",
        "bench",
        "baselines",
        name,
    )


def check_serve(measured_path, measured, baseline, tolerance):
    """Serve-path gates: throughput down-gated, p99 up-gated."""
    for name in (
        "tenants_per_sec",
        "records_per_sec",
        "offline_records_per_sec",
        "serve_vs_offline",
        "p50_latency_ns",
        "p99_latency_ns",
        "peak_rss_bytes",
    ):
        if name not in measured:
            print(f"error: {measured_path} lacks scalar '{name}'",
                  file=sys.stderr)
            return 1
        print(f"{name}: measured {measured[name]:.4g}"
              + (f", baseline {baseline[name]:.4g}"
                 if name in baseline else ""))

    failed = False
    floor = float(baseline["tenants_per_sec"]) * (1.0 - tolerance)
    got = float(measured["tenants_per_sec"])
    if got < floor:
        print(
            f"REGRESSION: tenants_per_sec {got:.3f} is below "
            f"{floor:.3f} (baseline "
            f"{float(baseline['tenants_per_sec']):.3f} - "
            f"{tolerance:.0%})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"ok: tenants_per_sec {got:.3f} >= floor "
              f"{floor:.3f}")

    ceiling = float(baseline["p99_latency_ns"]) * (1.0 + tolerance)
    got = float(measured["p99_latency_ns"])
    if got > ceiling:
        print(
            f"REGRESSION: p99_latency_ns {got:.4g} is above "
            f"{ceiling:.4g} (baseline "
            f"{float(baseline['p99_latency_ns']):.4g} + "
            f"{tolerance:.0%})",
            file=sys.stderr,
        )
        failed = True
    else:
        print(f"ok: p99_latency_ns {got:.4g} <= ceiling "
              f"{ceiling:.4g}")
    return 1 if failed else 0


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    measured_path = argv[1]

    try:
        document, measured = load_document(measured_path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    figure = document.get("figure", "")
    baseline_path = (argv[2] if len(argv) == 3
                     else default_baseline(figure))
    try:
        _, baseline = load_document(baseline_path)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    tolerance = float(
        os.environ.get("TLAT_THROUGHPUT_TOLERANCE",
                       DEFAULT_TOLERANCE))
    if figure == "serve":
        return check_serve(measured_path, measured, baseline,
                           tolerance)

    for name in (
        "reference_records_per_sec",
        "fused_records_per_sec",
        "fused_speedup",
        "comb_reference_records_per_sec",
        "comb_fused_records_per_sec",
        "comb_fused_speedup",
        "predecode_overhead",
        "simd_records_per_sec",
        "simd_scalar_records_per_sec",
        "simd_speedup",
        "simd_active",
        "peak_rss_bytes",
    ):
        if name not in measured:
            print(f"error: {measured_path} lacks scalar '{name}'",
                  file=sys.stderr)
            return 1
        print(f"{name}: measured {measured[name]:.4g}"
              + (f", baseline {baseline[name]:.4g}"
                 if name in baseline else ""))

    try:
        medians = sample_medians(document)
    except ValueError as error:
        print(f"error: {measured_path}: {error}", file=sys.stderr)
        return 1

    failed = False
    simd_active = float(measured.get("simd_active", 0.0)) >= 0.5
    for name, hard_floor in GATED_RATIOS:
        got = medians[name]
        if name == "simd_speedup" and not simd_active:
            if got < SIMD_INACTIVE_FLOOR:
                print(
                    f"REGRESSION: simd_speedup median {got:.3f} below "
                    f"parity floor {SIMD_INACTIVE_FLOOR:.2f} with "
                    "no vector level active",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(f"ok: simd_speedup median {got:.3f} recorded "
                      "(no vector level active; baseline "
                      "comparison skipped)")
            continue
        want = float(baseline[name])
        floor = ratio_floor(want, tolerance, hard_floor)
        if got < floor:
            print(
                f"REGRESSION: {name} median {got:.3f} is below "
                f"{floor:.3f} (baseline {want:.3f} - {tolerance:.0%}"
                + (f", hard floor {hard_floor:.2f} less "
                   f"{SAMPLE_NOISE_BAND:.0%}"
                   if hard_floor is not None else "")
                + ")",
                file=sys.stderr,
            )
            failed = True
            continue
        print(f"ok: {name} median {got:.3f} >= floor {floor:.3f} "
              f"(baseline {want:.3f}, tolerance {tolerance:.0%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
