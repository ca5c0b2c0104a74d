#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and the grunt_perfbench harness
from source (Release), runs one workload repeatedly for a fixed time, checks
every simulation's results, and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --smoke     # self-test at tiny sizes

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); per-run
records stamped with the machine fingerprint, and the traced runs' span
files, are written next to it.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
runs; --trace 1 reports the per-layer metrics from traced runs interleaved
with untraced ones (for the tracing overhead). Each harness process runs the
workload once; a metric is the median over the processes of a run, setup_s
also counts extra set-up-only processes, and the slice percentiles are taken
over each simulated second's mean across the processes. A run is correct
when every simulation kept its invariants, every process produced the same
digest of simulated results (and the same number of slices), and that
digest matches perfbench/digests.json where the seed is pinned there.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_ONLY_PER_REP = 3
MIN_REPS = 3
MIN_TRACED_REPS = 2
# Every harness process of a run must end this long after the run starts
# (the build excluded), so that a hung simulation fails the run in time.
RUN_DEADLINE_S = 170
# Simulations per harness process, by workload (for failure accounting when
# a process dies before reporting).
SIMS_PER_PROCESS = {"table1_campaign": 6, "mubench196_steady": 1,
                    "defended_storm": 1}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds grunt_perfbench in Release; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "grunt_perfbench"],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return os.path.join(out, "grunt_perfbench")


def loadavg():
    try:
        with open("/proc/loadavg") as f:
            return [float(x) for x in f.read().split()[:3]]
    except OSError:
        return None


def git_commit():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


class HarnessError(Exception):
    pass


def run_harness(binary, args, deadline):
    """Runs the harness once and returns its record, with the child's own
    CPU time and peak RSS (from wait4) and its set-up and run times. Kills
    the process if it is still running at `deadline` (time.monotonic())."""
    scratch = os.path.join(build_dir(), "tmp")
    os.makedirs(scratch, exist_ok=True)
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen([binary] + args, stdout=out, stderr=err)
    # Block in wait4 (no polling beside the measured process); a timer
    # kills the child at the deadline, which ends the wait.
    killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                             proc.kill)
    killer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() > deadline:
        raise HarnessError(f"harness timed out: {' '.join(args)}")
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(err_path) as f:
            tail = f.read()[-2000:]
        raise HarnessError(f"harness exited {proc.returncode}: "
                           f"{' '.join(args)}\n{tail}")
    rec = json.loads(lines[-1])
    rec["cpu_s"] = ru.ru_utime + ru.ru_stime
    rec["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    rec["setup_s"] = (rec["first_event_ns"] - spawn_ns) / 1e9
    rec["run_s"] = (rec["end_ns"] - rec["first_event_ns"]) / 1e9
    return rec


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 100]."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = p / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def load_pins():
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        return json.load(f)


class Run:
    """Harness processes of one benchmark run and their correctness."""

    def __init__(self, binary, workload, seed, smoke, pins):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        size = "smoke" if smoke else "full"
        self.pin = pins.get(size, {}).get(workload, {}).get(str(seed))
        self.reps = []        # full runs, untraced
        self.traced = []      # full runs, traced
        self.setup_only = []  # set-up-only processes
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = set()
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def args(self, extra):
        a = ["--workload", self.workload, "--seed", str(self.seed),
             "--specs", os.path.join(ROOT, "specs")]
        if self.smoke:
            a.append("--smoke")
        return a + extra

    def setup(self):
        rec = run_harness(self.binary, self.args(["--setup-only"]),
                          self.deadline)
        self.setup_only.append(rec)

    def full(self, traced, extra=()):
        extra = list(extra)
        if traced:
            os.makedirs(os.path.join(build_dir(), "spans"), exist_ok=True)
            extra += ["--trace", "1", "--spans", os.path.join(
                build_dir(), "spans",
                f"{self.workload}-seed{self.seed}.jsonl")]
        try:
            rec = run_harness(self.binary, self.args(extra), self.deadline)
        except HarnessError as e:
            n = SIMS_PER_PROCESS.get(self.workload, 1)
            self.attempted += n
            self.failed += n
            self.failures.append(str(e))
            log(str(e))
            return None
        self.attempted += rec["sims_attempted"]
        failed = rec["sims_failed"]
        self.failures += rec["failures"]
        self.digests.add(rec["digest"])
        if self.pin is not None and rec["digest"] != self.pin:
            # A digest covers every simulation of the process.
            failed = rec["sims_attempted"]
            self.failures.append(f"digest {rec['digest']} != pinned "
                                 f"{self.pin}")
        if len(self.digests) > 1:
            failed = rec["sims_attempted"]
            self.failures.append(f"digests differ between processes: "
                                 f"{sorted(self.digests)}")
        first = (self.reps + self.traced + [rec])[0]
        if len(rec["slice_ms"]) != len(first["slice_ms"]):
            # Every process simulates the same thing, slice for slice.
            failed = rec["sims_attempted"]
            self.failures.append(f"slice counts differ between processes: "
                                 f"{len(rec['slice_ms'])} != "
                                 f"{len(first['slice_ms'])}")
        self.failed += failed
        (self.traced if traced else self.reps).append(rec)
        return rec


def slice_means(reps):
    """Host ms of each simulated second, as the mean over the processes of
    a run. Every process simulates the same seconds in the same order (the
    table1 jobs' slices are concatenated in job order). Averaging a second
    over processes that ran at different times dilutes a stall of the host
    in one of them, which pooled raw slices let set the tail. A median here
    would flip between the host's fast and slow phases as their share of
    the run crosses one half; the mean moves with that share smoothly."""
    n = min(len(r["slice_ms"]) for r in reps)
    return [statistics.fmean(r["slice_ms"][i] for r in reps)
            for i in range(n)]


def end_to_end_metrics(run):
    reps = run.reps
    slices = slice_means(reps)
    return {
        "setup_s": statistics.median(
            r["setup_s"] for r in run.setup_only + reps),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "sim_req_per_s": statistics.median(
            r["sim_requests"] / r["run_s"] for r in reps),
        "slice_ms_p50": percentile(slices, 50),
        "slice_ms_p95": percentile(slices, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def layer_metrics(rec):
    """Per-layer metrics of one traced harness record."""
    layers = rec["layers"]
    spans = rec["spans"]
    total = spans["total_ms_by_name"]
    events = layers.get("sim.events", 0.0)
    completed = layers.get("microsvc.completed", 0.0)
    run_ms = total.get("sim.RunUntil", 0.0)
    m = {
        "scenario.parse_ms": total.get("scenario.parse", 0.0),
        "scenario.build_ms": total.get("scenario.build", 0.0),
        "sim.run_ms": run_ms,
        "sim.ns_per_event": run_ms * 1e6 / events if events else 0.0,
        "microsvc.events_per_req": events / completed if completed else 0.0,
        "cloud.window_query_ms": total.get("cloud.window", 0.0),
        "telemetry.snapshot_ms": total.get("telemetry.snapshot", 0.0),
        "attack.send_ms": total.get("attack.send", 0.0),
        "attack.self_ms": spans["self_ms_by_name"].get("attack.callback",
                                                        0.0),
        "slice_samples": float(len(rec["slice_ms"])),
        "trace.spans": float(spans["count"]),
    }
    for layer, ms in spans["self_ms_by_layer"].items():
        m[f"self_ms.{layer}"] = ms
    for name, value in layers.items():
        m.setdefault(name, value)
    return m


def per_layer_metrics(run, names):
    per_rec = [layer_metrics(r) for r in run.traced]
    out = {name: statistics.median(m.get(name, 0.0) for m in per_rec)
           for name in names}
    out["trace.overhead"] = (statistics.median(r["run_s"] for r in run.traced)
                             / statistics.median(r["run_s"] for r in run.reps))
    out["failed_frac"] = run.failed / max(1, run.attempted)
    return out


def measure(binary, workload, seed, seconds, trace, smoke, pins,
            inject_failure=False):
    """Repeats (set-up-only processes, untraced run[, traced run]) rounds
    while the next round is expected to end within `seconds`, and at least
    MIN_REPS (traced: MIN_TRACED_REPS) times."""
    run = Run(binary, workload, seed, smoke, pins)
    extra = ["--inject-failure"] if inject_failure else []
    min_reps = MIN_TRACED_REPS if trace else MIN_REPS
    start = time.monotonic()
    reps = 0
    last = 0.0
    while reps < min_reps or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        for _ in range(SETUP_ONLY_PER_REP):
            run.setup()
        run.full(traced=False, extra=extra)
        if trace:
            run.full(traced=True, extra=extra)
        reps += 1
        last = time.monotonic() - t0
    return run


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_line(run, trace, spec):
    metrics = {}
    if run.reps and (run.traced or not trace):
        if trace:
            values = per_layer_metrics(
                run, [m["name"] for m in spec["per_layer"]])
            catalog = spec["per_layer"]
        else:
            values = end_to_end_metrics(run)
            catalog = spec["end_to_end"]
        for m in catalog:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    return {"correct": run.failed == 0 and bool(metrics),
            "attempted": max(1, run.attempted), "failed": run.failed,
            "metrics": metrics}


def record(run, trace, result, load_before, fingerprint):
    """Writes the full record of a run next to the build."""
    path = os.path.join(build_dir(), "results")
    os.makedirs(path, exist_ok=True)
    strip = lambda recs: [{k: v for k, v in r.items() if k != "slice_ms"}
                          for r in recs]
    doc = dict(fingerprint, loadavg_before=load_before,
               loadavg_after=loadavg(), workload=run.workload,
               seed=run.seed, trace=trace, result=result,
               digests=sorted(run.digests), pinned=run.pin,
               failures=run.failures[:50], reps=strip(run.reps),
               traced=strip(run.traced), setup_only=strip(run.setup_only))
    name = f"{run.workload}-seed{run.seed}-trace{trace}.json"
    with open(os.path.join(path, name), "w") as f:
        json.dump(doc, f, indent=1)


def fingerprint_of(run):
    build = (run.reps or run.traced or run.setup_only or [{}])[0].get(
        "build", {})
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "compiler": build.get("compiler"),
            "build_type": build.get("build_type"),
            "git_commit": git_commit()}


def smoke_test(binary, spec):
    """Tiny runs of every workload through every path a benchmark run relies
    on: pinned digests, a forced digest mismatch, failure counting, and the
    output schema of both trace modes. Returns the number of problems."""
    pins = load_pins()
    problems = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    def schema(line, trace):
        want = {m["name"]: m["unit"] for m in
                spec["per_layer" if trace else "end_to_end"]}
        ok = set(line) == {"correct", "attempted", "failed", "metrics"}
        ok = ok and isinstance(line["attempted"], int)
        ok = ok and isinstance(line["failed"], int) and line["attempted"] >= 1
        ok = ok and set(line["metrics"]) == set(want)
        for name, m in line["metrics"].items():
            ok = ok and set(m) == {"value", "unit"}
            ok = ok and m["unit"] == want.get(name)
            ok = ok and isinstance(m["value"], (int, float))
        return ok

    for workload in SIMS_PER_PROCESS:
        for trace in (0, 1):
            run = measure(binary, workload, 0, 0, trace, True, pins)
            line = result_line(run, trace, spec)
            check(schema(line, trace), f"{workload} trace={trace}: schema")
            check(run.pin is not None and line["correct"] and
                  line["failed"] == 0,
                  f"{workload} trace={trace}: pinned digest "
                  f"{sorted(run.digests)} and invariants")
        bad = {"smoke": {workload: {"0": "0" * 16}}}
        run = measure(binary, workload, 0, 0, 0, True, bad)
        line = result_line(run, 0, spec)
        check(not line["correct"] and line["failed"] == line["attempted"],
              f"{workload}: a digest mismatch fails every simulation")
        run = measure(binary, workload, 0, 0, 0, True, pins,
                      inject_failure=True)
        line = result_line(run, 0, spec)
        check(not line["correct"] and line["failed"] == MIN_REPS,
              f"{workload}: an injected invariant failure counts once per "
              f"process ({line['failed']}/{line['attempted']})")
    return len(problems)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test at tiny sizes, then exit")
    opts = ap.parse_args()
    if opts.seed < 0:
        ap.error("--seed must be non-negative")
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not opts.smoke and opts.workload not in names:
        ap.error(f"--workload must be one of {names}")

    load_before = loadavg()
    binary = build()
    if opts.smoke:
        problems = smoke_test(binary, spec)
        log(f"smoke: {problems} problem(s)")
        return 1 if problems else 0

    run = measure(binary, opts.workload, opts.seed, opts.seconds,
                  opts.trace, False, load_pins())
    fingerprint = fingerprint_of(run)
    if fingerprint["build_type"] not in ("Release", "RelWithDebInfo"):
        raise SystemExit(f"perfbench: refusing to record from a "
                         f"{fingerprint['build_type']} build")
    result = result_line(run, opts.trace, spec)
    record(run, opts.trace, result, load_before, fingerprint)
    log(f"fingerprint {json.dumps(fingerprint)} loadavg {load_before} -> "
        f"{loadavg()}; {len(run.reps)} untraced, {len(run.traced)} traced, "
        f"{len(run.setup_only)} set-up-only processes; digests "
        f"{sorted(run.digests)}")
    for f in run.failures[:10]:
        log(f"failure: {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
