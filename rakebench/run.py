#!/usr/bin/env python3
"""The Rake benchmark: one command, three workloads, every metric.

    python3 rakebench/run.py --workload cold_compile|execute|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the repository's libraries and the
benchmark programs (CMake, Release) into .bench_build/rakebench, then
runs the three phases of a run as separate processes:

  compile  the 21 flat + 4 fused benchmarks, cold, on HVX and NEON
  execute  the HVX selections JIT-compiled and run on 1920x1080 frames
  serve    a compile server answering a seeded two-client request stream

The workload's own phase fills the --seconds window; the other two make
a fixed amount of work, so every run reports every end-to-end metric.
With --trace 1 only the workload's phase is measured, layer by layer.

End-to-end timings are scaled to a fixed host speed by probes that run
next to the measured work (rakebench/src/common.h); the figures as
measured are printed on the `unscaled:` line.

Prints the per-benchmark table and the deterministic columns, then as
the last line one JSON object: correct, attempted, failed, metrics.
Deterministic columns are stored per (benchmark binary, workload, seed,
trace) and must repeat exactly on a later run; a mismatch makes the run
incorrect. rakebench/NOTES.md explains the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "rakebench")

FOCUS = {"cold_compile": "compile", "execute": "execute",
         "serve_mixed": "serve"}

END_TO_END = [
    "setup_s", "compile_s.hvx", "compile_s.neon", "speedup_modeled.hvx",
    "speedup_modeled.neon", "serve_p50_us", "serve_p99_us", "serve_rps",
    "run_ms", "speedup_measured", "jit_compile_ms", "code_bytes",
    "peak_rss_mb", "ok_ratio",
]

# Per-layer metric -> unit, in report order. A traced run reports all
# of them; layers its workload does not exercise read 0.
PER_LAYER = {
    "synth.lift.s": "s",
    "synth.lift.s.hvx": "s",
    "synth.lift.s.neon": "s",
    "synth.lift.queries": "count",
    "synth.sketch.s": "s",
    "synth.sketch.s.hvx": "s",
    "synth.sketch.s.neon": "s",
    "synth.sketch.queries": "count",
    "synth.lower.backtracks": "count",
    "synth.swizzle.s": "s",
    "synth.swizzle.s.hvx": "s",
    "synth.swizzle.s.neon": "s",
    "synth.swizzle.queries": "count",
    "synth.swizzle.memo_hit_ratio": "ratio",
    "synth.verify.queries": "count",
    "synth.verify.dedup_skips": "count",
    "synth.verify.ref_cache_hits": "count",
    "hvx.interp.ms": "ms",
    "synth.negotiate.s": "s",
    "synth.negotiate.boundary_swizzles_saved": "count",
    "pipeline.hashcons_hits": "count",
    "sim.s": "s",
    "sim.cycles.rake": "cycles",
    "sim.cycles.baseline": "cycles",
    "baseline.s": "s",
    "serve.rtt_us.memory.p50": "us",
    "serve.rtt_us.memory.p99": "us",
    "serve.rtt_us.disk.p50": "us",
    "serve.rtt_us.disk.p99": "us",
    "serve.rtt_us.rule.p50": "us",
    "serve.rtt_us.rule.p99": "us",
    "serve.rtt_us.cegis.p50": "us",
    "serve.rtt_us.cegis.p99": "us",
    "serve.tier_count.memory": "count",
    "serve.tier_count.disk": "count",
    "serve.tier_count.rule": "count",
    "serve.tier_count.cegis": "count",
    "serve.inflight_dedup": "count",
    "serve.overloaded": "count",
    "serve.protocol.encode_us": "us",
    "serve.protocol.parse_us": "us",
    "synth.persist.load_us": "us",
    "synth.rules.apply_us": "us",
    "jit.compile_ms": "ms",
    "jit.code_bytes": "bytes",
    "jit.run_ms.rake": "ms",
    "jit.run_ms.baseline": "ms",
    "jit.ns_per_pixel": "ns",
    "pipeline.dag_run_ms": "ms",
    "jit.speedup_vs_interp": "x",
    "trace.overhead_pct": "%",
}

# A run must end within 180 s after the build; phases share this budget.
RUN_BUDGET_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build; the build is incremental after the first."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        log("rakebench: no Rake sources next to", HERE)
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "rake_bench", "rake_bench_serve"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("rakebench: build failed:", " ".join(cmd))
            sys.exit(2)


# The phase process running now, so a signal can stop its whole group.
_current = None


def _stop(signum, _frame):
    if _current is not None:
        try:
            os.killpg(_current.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _current.wait()
    sys.exit(128 + signum)


def run_phase(name, args, workdir, focus, deadline, backends="hvx,neon"):
    cmd = [os.path.join(BUILD, "rake_bench"), "--phase", name,
           "--workdir", workdir, "--seed", str(args.seed),
           "--seconds", str(args.seconds if focus else 0),
           "--trace", str(args.trace), "--focus", "1" if focus else "0",
           "--backends", backends,
           "--server", os.path.join(BUILD, "rake_bench_serve")]
    # Own process group, so a timeout also stops the server it spawned.
    global _current
    started = time.time()
    proc = _current = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                       text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("rakebench:", name, "phase ran out of time")
        sys.exit(3)
    finally:
        try:  # a server left behind by a crashed phase
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        log("rakebench:", name, "phase exited with", proc.returncode)
        sys.exit(3)
    for line in lines[:-1]:
        print(line)
    print("%s phase: %.1f s" % (name, time.time() - started))
    return json.loads(lines[-1])


def binary_key():
    h = hashlib.sha256()
    for name in ("rake_bench", "rake_bench_serve"):
        with open(os.path.join(BUILD, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_determinism(args, det):
    """Deterministic columns must repeat exactly for one binary+seed."""
    path = os.path.join(BUILD, "det", binary_key(),
                        "%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                    args.trace))
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before != det:
            diff = sorted(k for k in set(before) | set(det)
                          if before.get(k) != det.get(k))
            log("rakebench: deterministic columns changed:", diff)
            return False
        return True
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(det, f, sort_keys=True, indent=1)
    return True


def print_rows(reports):
    rows = {}
    for rep in reports:
        for bench, cols in rep["rows"].items():
            rows.setdefault(bench, {}).update(cols)
    if not rows:
        return
    cols = ["compile_s.hvx", "compile_s.neon", "speedup_modeled.hvx",
            "speedup_measured", "speedup_modeled.neon", "run_ms.rake",
            "run_ms.baseline"]
    print("%-24s" % "benchmark" + "".join("%21s" % c for c in cols))
    for bench in sorted(rows):
        cells = ""
        for c in cols:
            v = rows[bench].get(c)
            cells += "%21s" % ("-" if v is None else "%.4f" % v)
        print("%-24s" % bench + cells)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(FOCUS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    build()
    # Every phase, and the server the serve phase spawns, runs on one
    # CPU. On a shared host, hand-offs between threads on different
    # vCPUs made serve round trips swing by 2x from one minute to the
    # next; on one CPU they stay within about a sixth. The compile and
    # execute phases are single-threaded and only lose migrations.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.time() + RUN_BUDGET_S
    focus = FOCUS[args.workload]
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        # The compile phase always runs: it makes the selections the
        # other phases start from. A traced run measures only the
        # workload's own phase (execute needs only HVX selections).
        reports = []
        if args.trace and focus == "execute":
            reports.append(run_phase("compile", args, workdir, False,
                                     deadline, "hvx"))
        else:
            reports.append(run_phase("compile", args, workdir,
                                     focus == "compile", deadline))
        for name in ("execute", "serve"):
            if not args.trace or focus == name:
                reports.append(run_phase(name, args, workdir, focus == name,
                                         deadline))
        for name in ("compile", "execute"):
            trace_file = os.path.join(workdir, "trace-%s.json" % name)
            if os.path.exists(trace_file):
                shutil.copy(trace_file, os.path.join(BUILD, "trace-%s.json"
                                                     % args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = all(r["correct"] for r in reports) and failed == 0
    for r in reports:
        for e in r["errors"]:
            log("rakebench:", e)

    det = {}
    for r in reports:
        det.update(r["det"])
    print_rows(reports)
    print("deterministic columns: " + json.dumps(det, sort_keys=True))
    correct = check_determinism(args, det) and correct

    merged = {}
    setup_s = 0.0
    # As measured, before host-speed scaling, and the factors used
    # (reference probe time over probe time now, median over passes).
    unscaled = {"raw.setup_s": 0.0}
    for r in reports:
        for name, (value, unit) in r["metrics"].items():
            if name == "raw.setup_s":
                unscaled[name] += value
            elif name.startswith("raw."):
                unscaled[name] = value
            elif name.startswith("probe."):
                unscaled["%s.%s" % (r["phase"], name)] = value
            elif name == "setup_s":
                setup_s += value
            elif name == "peak_rss_mb":
                if r["phase"] == focus:
                    merged[name] = (value, unit)
            else:
                merged[name] = (value, unit)
    if args.trace:
        metrics = {n: {"value": merged.get(n, (0, u))[0], "unit": u}
                   for n, u in PER_LAYER.items()}
    else:
        merged["setup_s"] = (setup_s, "s")
        merged["ok_ratio"] = ((attempted - failed) / attempted
                              if attempted else 0.0, "ratio")
        missing = [n for n in END_TO_END if n not in merged]
        if missing:
            log("rakebench: phases did not report", missing)
            sys.exit(3)
        metrics = {n: {"value": merged[n][0], "unit": merged[n][1]}
                   for n in END_TO_END}
        print("serve latency samples: %d" %
              int(merged.get("serve_samples", (0, ""))[0]))
        print("unscaled: " + json.dumps(unscaled, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
