"""Self-test of the benchmark at a tiny size, tracer on.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
Exits 0 when every check passes. It checks that:

* both workloads run with no failed output check and emit every
  end-to-end metric in BENCHMARK.json with its unit;
* the traced run emits every per-layer metric in BENCHMARK.json with its
  unit (or reads it as absent), no span has negative self time, no child
  lies outside its parent, and tracing changes no held-out prediction;
* every hook a workload reaches records calls, names imported by name
  and the cached property included, and the two workloads together
  reach every hook;
* a hook whose target does not exist is reported as absent, not raised,
  and uninstalling the tracer restores every patched name;
* the benchmark's copy of the BGL-format stream generator writes the same
  bytes as the acceptance suite's ``synthesize_bgl`` at the suite's seed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# hooks a workload's traced run does not reach; every other hook must record calls
UNREACHED = {
    "synth_full": {"annotator.vote_annotate", "cli.detect", "ingest.read_jsonl", "nn.load_checkpoint"},
    "detect_50k": {
        "annotator.annotate", "annotator.finetune", "annotator.forward",
        "annotator.loss_and_grads", "annotator.pretrain", "evaluation.load_loghub_sample",
        "graph.adjacency", "graph.build", "graph.induce", "graph.transition",
        "ingest.window", "walks.fit_length", "walks.sample",
    },
}


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bgl_stream
    import tracer as tr
    import workloads as wl
    from loggad import graph, pipeline

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def emitted(metrics: dict, wanted: dict, what: str) -> None:
        missing = sorted(set(wanted) - set(metrics))
        wrong = sorted(n for n in wanted if n in metrics and metrics[n][1] != wanted[n])
        expect(not missing and not wrong, f"{what}: all metrics with units {missing or ''}{wrong or ''}")

    base = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT))
    try:
        for name in wl.PREPARE:
            work = base / name
            work.mkdir()
            metrics, _, checks = wl.run_workload(name, 3, 0.0, work, wl.TINY)
            metrics["peak_rss_mb"] = (1.0, "MiB")  # added by run.py
            expect(checks.failed == 0, f"{name} untraced: output checks {checks.problems}")
            emitted(metrics, end_to_end, f"{name} untraced")

            work = base / f"{name}-trace"
            work.mkdir()
            metrics, checks, t = wl.trace_workload(name, 3, work, wl.TINY)
            expect(checks.failed == 0, f"{name} traced: checks incl. span structure {checks.problems}")
            emitted(metrics, per_layer, f"{name} traced")
            expect(not t.absent, f"{name} traced: no hook absent {t.absent}")
            expect(
                not any(math.isnan(v) for v, _ in metrics.values()),
                f"{name} traced: no metric absent",
            )
            expect(
                all(row["self_seconds"] >= -1e-6 for row in tr.summarize(t.spans).values()),
                f"{name} traced: self times non-negative",
            )
            called = tr.summarize(t.spans)
            silent = sorted(set(tr.HOOKS) - UNREACHED[name] - set(t.absent) - set(called))
            expect(not silent, f"{name} traced: every hook it reaches records calls {silent or ''}")

        expect(
            set.intersection(*UNREACHED.values()) == set(),
            "the two workloads together reach every hook",
        )

        original_adjacency = graph.Subgraph.__dict__["adjacency"]
        original_extract = pipeline.extract_top
        hooks = dict(tr.HOOKS)
        tr.HOOKS["graph.gone"] = ("loggad.graph", "no_such_function")
        tr.HOOKS["graph.gone_method"] = ("loggad.graph", "Subgraph.no_such_property")
        try:
            t = tr.Tracer("absent-check")
            t.install()
            t.uninstall()
        finally:
            tr.HOOKS.clear()
            tr.HOOKS.update(hooks)
        expect(
            t.absent == ["graph.gone", "graph.gone_method"],
            f"missing targets reported absent {t.absent}",
        )
        expect(
            graph.Subgraph.__dict__["adjacency"] is original_adjacency
            and pipeline.extract_top is original_extract,
            "uninstall restores patched names",
        )

        suite = ROOT / "tests" / "test_acceptance.py"
        if suite.is_file():
            spec_ = importlib.util.spec_from_file_location("acceptance_suite", suite)
            module = importlib.util.module_from_spec(spec_)
            spec_.loader.exec_module(module)
            module.synthesize_bgl(base / "suite_bgl.log")
            ours = bgl_stream.bgl_stream(13).encode()
            expect(ours == (base / "suite_bgl.log").read_bytes(), "BGL stream copy matches the suite at seed 13")
        else:
            print(f"skip BGL stream comparison: no {suite}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
