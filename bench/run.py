"""suretune benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload desk --seed 3 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `suretune` from its
`src/` directory; without it the run fails with exit code 2 and prints no
result.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0  end-to-end metrics, tracing off: setup_s (median of this
           process's set-up and eight fresh set-up processes run one after
           another), wall_s (median body time) and peak_rss_mb (ru_maxrss of
           this process plus its children, read before the set-up processes
           start).  Set-up is importing suretune, building the inputs and one
           warm-up call into each module the workload uses.
--trace 1  per-layer metrics from spans around the calls between modules.
           Traced and untraced bodies alternate, so the run also reports
           the tracing overhead.  Spans are written to
           .bench_out/trace-<workload>-seed<seed>.json when the run ends.

Lines before the last one report the body-time distribution, the failed
fraction of operations, the run environment and which layers were absent.
"""

import time

T_START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import tracer as tr
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=("desk", "paper-n5000", "library-mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit (set-up probe)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative (numpy seed sequences reject negative entropy)")
    return args


def import_package():
    src = ROOT / "src"
    if not (src / "suretune" / "__init__.py").is_file():
        print(f"error: no suretune sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import suretune
    import suretune.cli  # noqa: F401  (the package does not import its front end)

    if Path(suretune.__file__).resolve().parent != (src / "suretune").resolve():
        print(f"error: imported suretune from {suretune.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return suretune


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "git_commit": git_commit(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def setup_probes(args):
    """Set-up seconds of fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class BodyError(str):
    """A workload body that raised; all of its operations count as failed."""


def timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failing program is measured, not fatal
        out = BodyError(f"{type(exc).__name__}: {exc}")
    return out, time.perf_counter() - t0


def highest_percentile(times):
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(times)
    ordered = sorted(times)
    if n < 11:
        return "max", ordered[-1]
    q = 100 * (n - 10) // n
    return f"p{q}", ordered[max(0, -(-q * n // 100) - 1)]


def run_loop(wl, seconds, tracer=None):
    """Closed loop until `seconds` pass; traced and untraced bodies alternate."""
    plain, traced, outputs, span_sets = [], [], [], []
    t_loop = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.install()
            try:
                out, dt = timed(wl.body)
            finally:
                tracer.uninstall()
            traced.append(dt)
            span_sets.append(tracer.spans)
        else:
            out, dt = timed(wl.body)
            plain.append(dt)
        outputs.append(out)
        elapsed = time.perf_counter() - t_loop
        need_trace = tracer is not None and not traced
        if elapsed + dt > seconds and not need_trace:
            return plain, traced, outputs, span_sets


def check_outputs(wl, outputs):
    """Failed operations per body; a body must also repeat the first one."""
    failed, messages = 0, []
    first = first_result = None
    for i, out in enumerate(outputs):
        if isinstance(out, BodyError):
            failed += wl.ops_per_body
            messages.append(f"body {i} raised {out}")
            continue
        if first is None:
            first, first_result = out, wl.check(out)
        result = first_result if out == first else {
            op: ["output differs from the first body's output for the same seed"]
            for op in first_result}
        for op, fails in result.items():
            if fails:
                failed += 1
                messages.append(f"body {i} op {op}: {'; '.join(fails)}")
    return failed, messages


def trace_metrics(tracer, plain, traced, span_sets):
    per_body = [tr.layer_metrics(spans) for spans in span_sets]
    metrics = {name: (unit, statistics.median(m[name] for m in per_body))
               for name, (unit, _) in tr.LAYER_METRICS.items()}
    traced_wall, plain_wall = statistics.median(traced), statistics.median(plain)
    metrics["trace.wall_s"] = ("s", traced_wall)
    metrics["trace.untraced_wall_s"] = ("s", plain_wall)
    metrics["trace.overhead_s"] = ("s", traced_wall - plain_wall)
    metrics["trace.spans"] = ("count", statistics.median(len(s) for s in span_sets))
    metrics["trace.absent_targets"] = ("count", len(tracer.absent))
    return metrics


def main(argv=None):
    args = parse_args(argv)
    load_before = os.getloadavg()
    st = import_package()
    wl = workloads.make(args.workload, st, args.seed)
    wl.warm_up()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(f"{setup_s!r}")
        return 0

    tracer = tr.Tracer(st) if args.trace else None
    plain, traced, outputs, span_sets = run_loop(wl, args.seconds, tracer)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    failed, messages = check_outputs(wl, outputs)
    attempted = wl.ops_per_body * len(outputs)

    absent = []
    if args.trace:
        metrics = trace_metrics(tracer, plain, traced, span_sets)
        absent = tr.absent_metrics(tracer.absent)
        print(f"# absent targets: {tracer.absent or 'none'}; absent metrics: {absent or 'none'}")
    else:
        setups = [setup_s] + setup_probes(args)
        metrics = {
            "setup_s": ("s", statistics.median(setups)),
            "wall_s": ("s", statistics.median(plain)),
            "peak_rss_mb": ("MB", rss_kb / 1024.0),
        }

    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    label, high = highest_percentile(plain)
    for line in messages[:20]:
        print(f"# FAILED {line}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"bodies={len(outputs)} (traced {len(traced)})")
    print(f"# wall_s median={statistics.median(plain):.6f} {label}={high:.6f} count={len(plain)}")
    if not args.trace:
        print(f"# setup_s samples={[round(s, 4) for s in setups]}")
    print(f"# ops_failed_frac={failed / attempted:.6g} (failed {failed} of {attempted})")
    for name, (unit, value) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    manifest = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "body_seconds": plain, "traced_body_seconds": traced, "env": env,
                "absent_metrics": absent, **result}
    (OUT_DIR / f"run-{stem}.json").write_text(json.dumps(manifest, indent=1))
    if args.trace:
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "family_module", "count"],
             "bodies": span_sets, "absent_targets": tracer.absent}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
