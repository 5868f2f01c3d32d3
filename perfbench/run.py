#!/usr/bin/env python3
"""Whole-command benchmark of tlat.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload file_run --seed 1 --seconds 30 --trace 0

The first run builds `tlat` (unmodified) and the in-process driver into
.bench_build/. Each run then prepares seeded inputs (untimed, reported
as setup_s), makes one untimed warm-up op and drives the real `tlat` CLI
as child processes in a closed loop -- one client, one op at a time --
for --seconds. Every op's output is checked against goldens computed
with harness::measureReference. With --trace 1 the same ops are
replayed inside perfbench_driver with spans around each layer call and
the per-layer metrics are reported instead. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "cmake")
WORK_DIR = os.path.join(".bench_build", "work")
TLAT = os.path.join(BUILD_DIR, "tlat", "tools", "tlat")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

SETUP_REPEATS = 5
OP_TIMEOUT_S = 120
TOOL_TIMEOUT_S = 170
SPAWN_SAMPLES = 30
# Conditional branches per generated file (the `tlat trace` budget).
FILE_BUDGET = 2_000_000
COVER_FILE_BUDGET = 1_000_000
SWEEP_BUDGET = 1_000_000
COVER_SWEEP_BUDGET = 100_000

IHRT = "AT(IHRT(,12SR),PT(2^12,A2),)"
AHRT = "AT(AHRT(512,12SR),PT(2^12,A2),)"
LS = "LS(AHRT(512,A2),,)"
CMB = "CMB(AT(AHRT(512,12SR),PT(2^12,A2),),LS(AHRT(512,A2),,),CT(2^12))"
SWEEP_SCHEMES = [AHRT, IHRT, LS, "GSH(12,A2)", CMB,
                 "ST(AHRT(512,12SR),PT(2^12,PB),Same)"]
SERVE_FLAGS = ["--shards", "3", "--batch-records", "64", "--json"]

# File workloads take one (benchmark, data set) pair from each static
# conditional-branch footprint group: gcc's 550 sites overflow the
# 512-entry AHRT, doduc has 97, matrix300 4 (conditional records only)
# and tomcatv 13. Within a group the pairs cost about the same, both to
# run and to generate with `tlat trace` (the set-up), whichever the
# seed picks. Left out: li, eqntott and spice2g6 carry 30-80% extra
# non-conditional records; fpppp takes twice doduc's generation time
# and espresso half matrix300's.
LARGE = [("gcc", "dbxout"), ("gcc", "cexp")]
MEDIUM = [("doduc", "doducin"), ("doduc", "tiny")]
SMALL = [("matrix300", "default"), ("tomcatv", "default")]
SUITE = ["eqntott", "espresso", "gcc", "li", "doduc", "fpppp", "matrix300",
         "spice2g6", "tomcatv"]

END_TO_END = [("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("sim_branches_per_s", "1/s"), ("peak_rss_mb", "MiB"),
              ("ok_op_frac", "ratio"), ("setup_s", "s")]


class BenchError(Exception):
    """A failure that ends the run without a result."""


# ---- pure logic (tested in test_run.py) -------------------------------

def tail_percentile(samples, beyond=10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples_beyond). With n sorted samples
    that is the sample at index n - beyond - 1, which is at percentile
    100 * (n - beyond) / n. With n <= beyond no sample has that many
    above it; the minimum is returned, with the n - 1 it does have.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    index = max(0, len(ordered) - beyond - 1)
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - 1 - index)


def classify(returncode, timed_out, mismatch):
    """Why an op failed, or None when it succeeded."""
    if timed_out:
        return "timeout"
    if returncode != 0:
        return "exit %d" % returncode
    if mismatch:
        return "mismatch: %s" % mismatch
    return None


class Tally:
    """Attempted and failed ops, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def add(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            kind = reason.split(":")[0]
            self.reasons[kind] = self.reasons.get(kind, 0) + 1

    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def cell_key(cell):
    """(label, total, hits, misses) of a golden/driver cell."""
    return (cell[0], cell[1], cell[2], cell[3])


def check_cli(argv, stdout, golden):
    """Compares one CLI op's stdout with its golden; None when equal."""
    kind = argv[0]
    cells = golden["cells"]
    if kind == "compare":
        return None if stdout == golden["text"] else "compare table differs"
    if kind == "run" and "--json" not in argv:
        label, total, _, _, accuracy, miss = cells[0]
        expected = [r"^\S.* on %s:$" % re.escape(label),
                    r"^\s+conditional branches: %d$" % total,
                    r"^\s+accuracy:\s+%s %%$" % re.escape(accuracy.strip()),
                    r"^\s+miss rate:\s+%s %%$" % re.escape(miss.strip())]
        for pattern in expected:
            if not re.search(pattern, stdout, re.M):
                return "run output lacks /%s/" % pattern
        return None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    acc = doc.get("accuracy", {})
    got = [(doc.get("benchmark"), acc.get("conditional_branches"),
            acc.get("hits"), acc.get("misses"))]
    if got != [cell_key(c) for c in cells]:
        return "accuracy differs: %s" % (got,)
    return None


def check_driver(result, golden, kind):
    """Compares one traced-driver result with its golden."""
    if "error" in result:
        return "driver error: %s" % result["error"]
    if kind == "compare":
        return None if result["text"] == golden["text"] else \
            "compare table differs"
    if result["cells"] != golden["cells"]:
        return "accuracy differs"
    return None


def branches_of(golden):
    """Conditional branches predicted by one op."""
    return sum(cell[1] for cell in golden["cells"])


# ---- environment, build and processes -----------------------------------

def child_env():
    """The parent environment without any TLAT_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TLAT_")}


ENV = child_env()


def run_tool(argv, what, timeout=TOOL_TIMEOUT_S):
    """Runs a tool to completion; returns its stdout."""
    try:
        done = subprocess.run(argv, env=ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError("%s timed out" % what) from error
    if done.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" %
                         (what, done.returncode, done.stderr.strip()[-2000:]))
    return done.stdout


def require_sources():
    for path in ("CMakeLists.txt", "src", os.path.join("tools", "tlat_cli.cpp"),
                 os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(path):
            raise BenchError("run from the root of a tlat source checkout "
                             "(missing %s)" % path)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "ab") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, env=ENV, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("configure failed; see " + log_path)
        build_cmd = ["cmake", "--build", BUILD_DIR, "--target", "tlat",
                     "perfbench_driver", "--parallel", "4"]
        if subprocess.run(build_cmd, env=ENV, stdout=log,
                          stderr=subprocess.STDOUT).returncode != 0:
            raise BenchError("build failed; see " + log_path)


class OpRun:
    """One finished child process."""

    def __init__(self, wall_s, returncode, timed_out, maxrss_kib, stdout):
        self.wall_s = wall_s
        self.returncode = returncode
        self.timed_out = timed_out
        self.maxrss_kib = maxrss_kib
        self.stdout = stdout


def spawn(argv, out_path, timeout=OP_TIMEOUT_S):
    """Runs argv, timing spawn to exit; reaps it with wait4 for rusage."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=ENV)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            timed_out = not ready
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as out:
        stdout = out.read()
    return OpRun(wall, proc.returncode, timed_out, usage.ru_maxrss, stdout)


# ---- workloads ------------------------------------------------------------

class Plan:
    """A workload's seeded inputs and ops."""

    def __init__(self):
        self.ops = []      # the op cycle, tlat argv lists
        # Traced run only: covers (one op per unreached layer) and probes.
        self.covers = []
        self.files = []    # decode probes
        self.collects = []  # (benchmark, set, budget) probes
        self.inputs = []   # generated files, for the digest
        self.goldens = []  # per op then cover line
        self.path = None   # the plan file the driver reads

    def lines(self):
        rows = [["op"] + op for op in self.ops]
        rows += [["cover"] + op for op in self.covers]
        rows += [["file", path] for path in self.files]
        rows += [["collect", b, s, str(n)] for b, s, n in self.collects]
        return "".join("\t".join(row) + "\n" for row in rows)


def add_inputs(plan, pairs, budget, directory):
    """Writes one TLTR file per (benchmark, data set) with `tlat trace`."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for bench, data_set in pairs:
        path = os.path.join(directory, "%s-%s.tltr" % (bench, data_set))
        run_tool([TLAT, "trace", bench, "--data", data_set, "--budget",
                  str(budget), "--out", path], "tlat trace")
        plan.inputs.append(path)
        paths.append(path)
    return paths


def serve_op(directory):
    return ["serve", AHRT, "--replay", directory] + SERVE_FLAGS


def compare_op(schemes, budget):
    return ["compare"] + schemes + ["--jobs", "4", "--budget", str(budget)]


def plan_files(rng, work, traced, schemes, flags, cover_scheme, cover_flags):
    """`tlat run` over one seeded file per footprint group; the traced
    run covers the other output mode with one `run` of `cover_scheme`."""
    plan = Plan()
    inputs = os.path.join(work, "files")
    pairs = [rng.choice(LARGE), rng.choice(MEDIUM), rng.choice(SMALL)]
    files = add_inputs(plan, pairs, FILE_BUDGET, inputs)
    plan.ops = [["run", s, f] + flags for s in schemes for f in files]
    rng.shuffle(plan.ops)
    if traced:
        plan.files = files
        plan.collects = [(b, s, FILE_BUDGET) for b, s in pairs]
        plan.covers = [["run", cover_scheme, files[0]] + cover_flags,
                       serve_op(inputs),
                       compare_op(SWEEP_SCHEMES, COVER_SWEEP_BUDGET)]
    return plan


def plan_file_run(rng, work, traced):
    return plan_files(rng, work, traced, (IHRT, AHRT, LS), [],
                      AHRT, ["--json"])


def plan_file_json(rng, work, traced):
    return plan_files(rng, work, traced, (AHRT, CMB), ["--json"], IHRT, [])


def plan_sweep(rng, work, traced):
    plan = Plan()
    for _ in range(3):
        schemes = list(SWEEP_SCHEMES)
        rng.shuffle(schemes)
        plan.ops.append(compare_op(schemes, SWEEP_BUDGET))
    if traced:
        inputs = os.path.join(work, "cover")
        files = add_inputs(plan, [rng.choice(MEDIUM)], COVER_FILE_BUDGET,
                           inputs)
        plan.files = files
        plan.covers = [["run", IHRT, files[0]],
                       ["run", AHRT, files[0], "--json"], serve_op(inputs)]
        # What the sweep's own preload does: build, collect, predecode.
        plan.collects = [(b, "", SWEEP_BUDGET) for b in SUITE]
    return plan


WORKLOADS = {
    "file_run": plan_file_run,
    "file_json": plan_file_json,
    "sweep": plan_sweep,
}


def setup(workload, seed, traced):
    """Generates the inputs and computes the goldens (the timed set-up)."""
    work = os.path.join(WORK_DIR, workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = WORKLOADS[workload](random.Random(seed), work, traced)
    plan_path = os.path.join(work, "plan.tsv")
    with open(plan_path, "w") as out:
        out.write(plan.lines())
    out = run_tool([DRIVER, "golden", plan_path], "golden computation")
    plan.goldens = [json.loads(line) for line in out.splitlines()]
    if len(plan.goldens) != len(plan.ops) + len(plan.covers):
        raise BenchError("golden count does not match the plan")
    plan.path = plan_path
    return plan


def digest(plan):
    sha = hashlib.sha256(plan.lines().encode())
    for path in sorted(plan.inputs):
        with open(path, "rb") as data:
            for block in iter(lambda: data.read(1 << 20), b""):
                sha.update(block)
    return sha.hexdigest()


# ---- the two kinds of run ---------------------------------------------

def timed_run(workload, seed, seconds):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = setup(workload, seed, traced=False)
        setup_times.append(time.perf_counter() - start)
    out_path = os.path.join(WORK_DIR, workload, "op.out")

    def one(index):
        argv = plan.ops[index % len(plan.ops)]
        golden = plan.goldens[index % len(plan.ops)]
        run = spawn([TLAT] + argv, out_path)
        mismatch = None
        if run.returncode == 0 and not run.timed_out:
            mismatch = check_cli(argv, run.stdout, golden)
        return run, classify(run.returncode, run.timed_out, mismatch), golden

    one(0)  # warm-up, not counted; a failing op fails again below
    tally = Tally()
    walls, branches, rss = [], 0, []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        run, reason, golden = one(index)
        tally.add(reason)
        walls.append(run.wall_s * 1e3)
        rss.append(run.maxrss_kib)
        if reason is None:
            branches += branches_of(golden)
        index += 1

    tail, pct, beyond = tail_percentile(walls)
    metrics = {
        "op_p50_ms": statistics.median(walls),
        "op_tail_ms": tail,
        "sim_branches_per_s": branches / (sum(walls) / 1e3),
        "peak_rss_mb": max(rss) / 1024.0,
        "ok_op_frac": 1.0 - tally.failed_frac(),
        "setup_s": statistics.median(setup_times),
    }
    notes = {
        "op_tail_ms": "p%.1f of %d ops, %d beyond" % (pct, len(walls), beyond),
        "ok_op_frac": "failed_op_frac %.4g (%d of %d; %s)" % (
            tally.failed_frac(), tally.failed, tally.attempted,
            tally.reasons or "no failures"),
        "setup_s": "median of %s" % ", ".join("%.3f" % t for t in setup_times),
    }
    print("workload %s, seed %d: %d distinct ops in a closed loop, one client,"
          " %.0f s" % (workload, seed, len(plan.ops), seconds))
    units = dict(END_TO_END)
    for name, _ in END_TO_END:
        print("  %-20s %14.6g %-6s %s" % (name, metrics[name], units[name],
                                         notes.get(name, "")))
    print("# inputs sha256 %s" % digest(plan))
    return tally, {name: {"value": metrics[name], "unit": units[name]}
                   for name, _ in END_TO_END}


def traced_run(workload, seed, seconds):
    plan = setup(workload, seed, traced=True)
    out_path = os.path.join(WORK_DIR, workload, "op.out")
    spawns = [spawn([TLAT, "help"], out_path).wall_s * 1e3
              for _ in range(SPAWN_SAMPLES)]

    # The driver replays for the whole run, then adds the fixed passes.
    out = run_tool([DRIVER, "traced", plan.path, str(seconds)],
                   "traced driver", timeout=seconds + TOOL_TIMEOUT_S)
    kinds = [op[0] for op in plan.ops + plan.covers]
    tally = Tally()
    layers = None
    for line in out.splitlines():
        if line.startswith("#"):
            print(line)
            continue
        doc = json.loads(line)
        if "layers" in doc:
            layers = doc
            continue
        index = doc["result"]
        tally.add(check_driver(doc, plan.goldens[index], kinds[index]))
    if layers is None:
        raise BenchError("traced driver printed no layer metrics")
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in layers["layers"].items()}
    metrics["proc.spawn_ms"] = {"value": statistics.median(spawns),
                                "unit": "ms"}
    print("# proc.spawn_ms = %.4f ms  [median of %d `tlat help` spawns]" %
          (metrics["proc.spawn_ms"]["value"], SPAWN_SAMPLES))
    print("workload %s, seed %d: traced replay of %d ops (%d spans), "
          "failed %d" % (workload, seed, tally.attempted, layers["spans"],
                         tally.failed))
    print("# inputs sha256 %s" % digest(plan))
    return tally, metrics


def host_facts():
    facts = json.loads(run_tool([DRIVER, "facts"], "driver facts"))
    cleared = sorted(k for k in os.environ if k.startswith("TLAT_"))
    return ("# host: nproc %d, simd %s, build %s, compiler %s; "
            "cleared from child env: %s" % (
                len(os.sched_getaffinity(0)), facts["simd"],
                facts["build_type"], facts["compiler"],
                ", ".join(cleared) or "no TLAT_* set"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_sources()
        build()
        print(host_facts())
        run = traced_run if args.trace else timed_run
        tally, metrics = run(args.workload, args.seed, args.seconds)
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
