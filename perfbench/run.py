"""Registration benchmark for fpreg.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
`src/`. One process runs one workload: a warm-up registration on a coarse
copy of the workload, then timed samples for `--seconds` (at least two
registrations; none is started that would, going by the last, end later),
all on the inputs `--seed` generates. Each sample, a set-up or a
registration, runs in a child forked after the warm-up, so no cache that
one sample fills is warm for the next, just as none is for a fresh
`fpreg solve` process.

`--trace 0` prints the end-to-end metrics: medians over the registrations
of the run, with set-up also timed on its own SETUP_SAMPLES times.
`--trace 1` alternates untraced and traced registrations (at least two of
each) and prints the per-layer metrics; the counts among them are exact
and must repeat across the traced registrations of a run. Names and units
of the metrics come from BENCHMARK.json. The last line of standard output
is the result object; the line before it records the environment. A
registration or set-up that raises `SolveFailure` or `CollapseFailure`, or
fails an output check, counts as failed, is left out of the medians and
makes the result read `"correct": false`.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# single-threaded BLAS and OpenMP: set before numpy is first imported
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3  # stand-alone set-ups timed per run, besides the registrations'
MIN_REGISTRATIONS = 2  # least untraced registrations per run
MIN_TRACED = 2  # least traced registrations per run, to compare their counts

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
# counts that must repeat exactly for a fixed seed
EXACT = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def environment(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ[v] for v in THREAD_CAPS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "exact_counts": EXACT,
    }


def in_child(fn):
    """fn() in a forked child process; returns what it returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(fn(), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"sample process ended with status {status}")
    return pickle.loads(data)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def is_failed(r):
    return r["error"] is not None or bool(r["failed_checks"])


def medians(samples, names):
    """Median of each name over the samples; None where none has it."""
    out = {}
    for name in names:
        vals = [s[name] for s in samples if name in s]
        out[name] = statistics.median(vals) if vals else None
    return out


def log_sample(r, traced):
    brief = {k: r[k] for k in ("registration_s", "setup_s", "solve_s",
                               "transport_s", "final_l1", "hausdorff")
             if k in r}
    print(json.dumps({"traced": traced, **brief, "error": r["error"],
                      "failed_checks": r["failed_checks"]}),
          file=sys.stderr, flush=True)


def timed_loop(seconds, once, minimum=1):
    """Call once() `minimum` times, then again while one more call as long
    as the last still ends within `seconds` of the start."""
    start = now = time.perf_counter()
    last = 0.0
    runs = 0
    while runs < minimum or now + last - start <= seconds:
        once()
        runs += 1
        last, now = time.perf_counter() - now, time.perf_counter()


def registration(w, inputs, wl):
    r = wl.register(w, inputs)
    r["peak_rss_mb"] = peak_rss_mb()
    return r


def traced_registration(w, inputs, wl):
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    r = wl.register(w, inputs, span=tracer.span)
    m = tracing.layer_metrics(tracer.spans, tracer.counts)
    m.update({
        "fpsolve.steps": r.get("steps", 0),
        "particles.particle_steps": r.get("particle_steps", 0),
        "particles.exits": r.get("exits", 0),
        "particles.capped_steps": r.get("capped_steps", 0),
        "hausdorff": r.get("hausdorff", float("nan")),
        "lost_frac": r.get("lost_frac", 1.0),
    })
    return r, m


def run_end_to_end(w, inputs, seconds, wl):
    """Medians over the successful registrations of the run; set-up is
    also timed on its own, as it is a small share of a registration."""
    setups = [in_child(lambda: wl.time_setup(w, inputs))
              for _ in range(SETUP_SAMPLES)]
    for r in setups:
        log_sample(r, False)
    results = []

    def once():
        r = in_child(lambda: registration(w, inputs, wl))
        log_sample(r, False)
        results.append(r)

    timed_loop(seconds, once, minimum=MIN_REGISTRATIONS)
    ok = [r for r in results if not is_failed(r)]
    metrics = medians(ok, END_TO_END)
    setup_ok = [r for r in results + setups if not is_failed(r)]
    metrics["setup_s"] = medians(setup_ok, ["setup_s"])["setup_s"]
    print(json.dumps({"setup_s_of_registrations":
                      medians(ok, ["setup_s"])["setup_s"]}), file=sys.stderr)
    return results + setups, metrics, True


def run_traced(w, inputs, seconds, wl):
    """Pairs of an untraced and a traced registration; the difference of
    their medians is the tracing overhead."""
    results, untraced, layers = [], [], []

    def once():
        r = in_child(lambda: registration(w, inputs, wl))
        log_sample(r, False)
        results.append(r)
        if not is_failed(r):
            untraced.append(r)
        r, m = in_child(lambda: traced_registration(w, inputs, wl))
        log_sample(r, True)
        results.append(r)
        if not is_failed(r):
            layers.append(m)

    timed_loop(seconds, once, minimum=MIN_TRACED)

    repeat_ok = True
    for name in EXACT:
        vals = [m[name] for m in layers]
        if len(set(vals)) > 1:
            repeat_ok = False
            print(f"count {name} did not repeat: {vals}", file=sys.stderr)
    metrics = medians(layers, PER_LAYER)
    if layers:
        metrics.update({name: layers[0][name] for name in EXACT})
    if layers and untraced:
        metrics["trace.overhead_s"] = (
            metrics["trace.registration_s"]
            - medians(untraced, ["registration_s"])["registration_s"])
    else:
        metrics["trace.overhead_s"] = None
    metrics["failed_frac"] = sum(map(is_failed, results)) / len(results)
    return results, metrics, repeat_ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fpreg" / "__init__.py").is_file():
        print(f"no fpreg sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(args)}), flush=True)

    inputs = wl.make_inputs(w, args.seed)
    wl.register(wl.warmup_copy(w), inputs)
    run = run_traced if args.trace else run_end_to_end
    results, metrics, repeat_ok = run(w, inputs, args.seconds, wl)

    failed = sum(map(is_failed, results))
    print(json.dumps({
        "correct": failed == 0 and repeat_ok,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
