"""loggad benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth_full --seed 1 --seconds 8 --trace 0

Workloads (see BENCHMARK.json for why each was chosen, and workloads.py for
sizes and rounds):

* ``synth_full``: six synthetic corpora derived from the seed (500
  sequences each, noise 0.1, chronological 80/20 split), one set up and
  trained per round by ``run_pipeline`` in ``full`` mode with seeds
  ``fault0_trap,fault1_trap`` and an output directory, as ``loggad
  train`` runs it; a last round sets up and trains the first corpus again
  to check that it reproduces exactly. After each training both detect
  phases run on that model and its held-out split.
* ``detect_50k``: three rounds, each on its own corpus. Set-up generates
  51,600 synthetic sequences, trains a ``counting``-mode model on the
  first 1,600 and writes the other 50,000 to JSONL. The measured phases
  are (a) ``loggad detect`` file to file and (b) closed loops of 1,000
  ``classifier.predict`` calls on 50-sequence batches.

Each phase makes a fixed number of calls, set for ``--seconds 8`` and
scaled with ``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured untraced. ``--trace 1``
runs the work once untraced and once with every public ``loggad`` function
wrapped in spans (see tracer.py), prints the per-layer metrics, the span
self times and the tracing overhead (traced minus untraced body time),
and writes the spans to ``.bench_out/``. A per-layer metric whose hooked
code no longer exists prints as absent and reads null in the result line.
Output checks that fail count as
failed operations; all metrics are still printed. Scratch files go to
``.bench_work/`` and are removed at exit. BLAS and OpenMP run one thread,
set before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def blas_threads_in_use() -> tuple[str, object]:
    """The loaded OpenBLAS library and the thread count it reports."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(path), fn()
    return "unknown", os.environ.get("OPENBLAS_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    library, threads = blas_threads_in_use()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = library
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_library": library,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["synth_full", "detect_50k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "loggad" / "__init__.py").is_file():
        print(f"error: no loggad sources under {src}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(src), str(HERE)]
    import workloads as wl
    from tracer import summarize

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, checks, tracer = wl.trace_workload(args.workload, args.seed, work)
        else:
            metrics, samples, checks = wl.run_workload(args.workload, args.seed, args.seconds, work)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MiB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    absent = sorted(name for name, (value, _) in metrics.items() if math.isnan(value))
    for name, (value, unit) in metrics.items():
        shown = "absent" if name in absent else f"{value:.6g} {unit}"
        print(f"metric {name} = {shown}")
    if not args.trace:
        print("samples per metric: " + ", ".join(f"{k} {len(v)}" for k, v in samples.items()))
    else:
        ranked = sorted(summarize(tracer.spans).items(), key=lambda item: -item[1]["self_seconds"])
        print("self time by loggad span (top 10; bench.* spans are the benchmark's own work):")
        for name, row in [item for item in ranked if not item[0].startswith("bench.")][:10]:
            print(f"  {name:40s} {row['self_seconds']:9.3f} s  {row['calls']:8d} calls")
        print(f"absent hooks: {tracer.absent}")
        samples = {"self_seconds": {n: r["self_seconds"] for n, r in ranked}, "absent_hooks": tracer.absent}
        tracer.write(out_dir / f"{tag}.spans.jsonl")
    print(f"absent metrics: {absent}")
    for problem in checks.problems:
        print(f"check failed: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": {n: {"value": None if n in absent else v, "unit": u} for n, (v, u) in metrics.items()},
        "samples": samples,
        "problems": checks.problems,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        # a metric whose hooked code is gone reads null, not a number that looks measured
        "metrics": {
            n: {"value": None if n in absent else v, "unit": u} for n, (v, u) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
