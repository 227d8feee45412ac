#!/usr/bin/env python3
"""Certification benchmark for hadforge: time to a certified answer.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are catalog-exact and search (see
workloads.py and BENCHMARK.json).  Every workload is a closed loop: one
client in this process submits items back to back, with HF_THREADS unset
and BLAS threads capped at the number of usable cores.

--trace 0 repeats whole passes over the workload's items while another
pass still fits in --seconds (always at least one; a pass takes 3-5 s,
so a 50 s run makes 9 to 16), and reports the end-to-end metrics as
medians over the run.  Set-up is timed in this process and in fresh
processes started between items, spread over the measured time.
--trace 1 runs one traced pass and reports the per-layer metrics (see
tracing.py); --seconds does not apply.
The last line of standard output is the result JSON; the lines before it
are a readable record.  Per-run details (machine record, items, sample
counts) and the spans of a traced pass are written to .perfbench_out/.

Two more commands:

    python3 perfbench/run.py --report [--seed N] [--seconds S]
        every workload untraced and traced, one table of all metrics
    python3 perfbench/run.py --selfcheck
        the smallest item of each workload, untraced and traced
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9  # set-ups per untraced run (this process and 8 fresh ones)
END_TO_END = ("setup_s", "wall_s", "slowest_item_s", "peak_rss_mb")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
perf = time.perf_counter


def _configure_environment() -> None:
    """HF_THREADS unset; BLAS threads at most the number of usable cores.
    Must run before numpy is imported."""
    os.environ.pop("HF_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        want = os.environ.get(var, "")
        n = int(want) if want.isdigit() and int(want) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.split()[-1]}
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "hf_threads_unset": "HF_THREADS" not in os.environ,
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def _setup(workload: str, seed: int):
    """Import hadforge, build the workload's inputs and warm up; timed by
    the caller from before the import."""
    import workloads

    return workloads.build(workload, seed)


def _setup_sample(args) -> float:
    """Set-up time of a fresh process, import included."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def _run_item(item, tracer=None):
    """Run and check one item; returns (seconds, error or None).  Garbage
    left by earlier items is collected first, outside the timed region."""
    gc.collect()
    t = perf()
    try:
        observed = item.run() if tracer is None else tracer.item(item.name, item.run)
        error = None if observed == item.expect else f"expected {item.expect}, got {observed}"
    except Exception as exc:  # the run goes on; the item counts as failed
        error = f"{type(exc).__name__}: {exc}"
    return perf() - t, error


def _run_pass(items, tracer=None, between=None):
    """One pass; returns (summed item seconds, rows).  `between` runs after
    each item, outside the item times."""
    rows = []
    for item in items:
        rows.append((item.name, *_run_item(item, tracer)))
        if between is not None:
            between()
    return sum(secs for _, secs, _ in rows), rows


def run_once(args) -> int:
    t0 = perf()
    try:
        items = _setup(args.workload, args.seed)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s = perf() - t0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    passes = []
    tracer = None
    setups = [setup_s]
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.append(_run_pass(items, tracer))
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
    else:
        start = perf()

        def sample_setup():
            # fresh-process set-ups fall due evenly over --seconds
            due = 1 + (SETUP_SAMPLES - 1) * min((perf() - start) / args.seconds, 1.0)
            while len(setups) < int(due):
                setups.append(_setup_sample(args))

        while True:
            pass_start = perf()
            passes.append(_run_pass(items, between=sample_setup))
            if 2 * perf() - pass_start - start > args.seconds:
                break  # another pass, with its set-up samples, would not fit
        while len(setups) < SETUP_SAMPLES:
            setups.append(_setup_sample(args))
        per_item = {}
        for _, rows in passes:
            for name, secs, _ in rows:
                per_item.setdefault(name, []).append(secs)
        slowest = max(per_item, key=lambda n: statistics.median(per_item[n]))
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
            "wall_s": {"value": statistics.median(p[0] for p in passes), "unit": "s",
                       "samples": len(passes)},
            "slowest_item_s": {"value": statistics.median(per_item[slowest]), "unit": "s",
                               "samples": len(per_item[slowest]), "item": slowest},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB", "samples": 1},
        }

    rows = [row for _, rs in passes for row in rs]
    failed = [(name, err) for name, _, err in rows if err]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_record(),
        "setup_samples_s": setups,
        "passes_s": [p[0] for p in passes],
        "items": [{"name": n, "seconds": s, "error": e} for n, s, e in rows],
        "check": "pass" if not failed else "FAIL",
        "attempted": len(rows),
        "failed": len(failed),
        "fail_frac": len(failed) / len(rows),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}-spans.json")

    print("machine " + json.dumps(record["machine"]))
    for name, secs, err in rows:
        print(f"item {name:<8} {secs:10.4f} s  {'ok' if err is None else 'FAILED ' + err}")
    print(f"check {record['check']}: {record['failed']} of {record['attempted']} items failed "
          f"(fail_frac {record['fail_frac']:.4g})")
    _print_metrics(metrics)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()
                    if args.trace or k in END_TO_END},
    }))
    return 0


def _print_metrics(metrics: dict, prefix: str = "") -> None:
    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{prefix}{name:<28} {value:>12} {m['unit']:<6} n={m['samples']}")


# ----------------------------------------------------------------------
# --report and --selfcheck
# ----------------------------------------------------------------------

def report(args) -> int:
    import workloads

    ok = True
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{w} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            rec = json.loads((OUT / f"{w}-trace{trace}-seed{args.seed}.json").read_text())
            ok &= rec["check"] == "pass"
            print(f"== {w} trace={trace}: check {rec['check']}, {rec['failed']} of "
                  f"{rec['attempted']} items failed (fail_frac {rec['fail_frac']:.4g})")
            _print_metrics(rec["metrics"], "   ")
    print("machine " + json.dumps(machine_record()))
    return 0 if ok else 1


def selfcheck(args) -> int:
    """Each workload on its smallest item, untraced and traced, in this
    process; checks the outcome and that every metric BENCHMARK.json names
    is produced."""
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if layer != {m[0] for m in tracing.PER_LAYER}:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if e2e != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from the metrics run_once reports")
    for w in workloads.WORKLOADS:
        item = next(i for i in workloads.build(w, args.seed) if i.name == workloads.SMALLEST[w])
        secs, err = _run_item(item)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_secs, traced_err = _run_item(item, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        missing = sorted(n for n, m in metrics.items() if m["value"] is None)
        for e in (err, traced_err):
            if e:
                problems.append(f"{w}/{item.name}: {e}")
        if missing or tracer.missing:
            problems.append(f"{w}: missing boundaries {sorted(tracer.missing)}")
        if not tracer.spans or tracer.spans[0][0] != tracing.ITEM_SPAN:
            problems.append(f"{w}: traced pass recorded no item span")
        print(f"{w:<14} {item.name:<6} untraced {secs:.4f} s, traced {traced_secs:.4f} s, "
              f"{len(tracer.spans)} spans")
    for p in problems:
        print("PROBLEM " + p)
    print("selfcheck " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true", help="every workload, both modes")
    ap.add_argument("--selfcheck", action="store_true", help="smallest item of each workload")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "hadforge" / "__init__.py").is_file():
        print(f"perfbench: no hadforge sources under {SRC}", file=sys.stderr)
        return 2
    _configure_environment()
    if args.selfcheck:
        return selfcheck(args)
    if args.report:
        return report(args)
    if args.workload is None:
        ap.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
