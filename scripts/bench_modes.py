"""Held-out quality and wall clock of every annotator mode on three corpora.

Trains counting, no_selfsup and full, and the seed-only control (counting
stopped after iteration 1, which labels by the seed words alone), on the
default, sparse and noisy synthetic corpora (chronological 80/20 split)
with the strong seed words ``fault0_trap,fault1_trap`` and the weak ones
``fault1_trap,fault2_trap``, at config seeds 1 and 2. It scores each run
on the held-out split and writes one JSON file. ``--side`` names the source
tree under test; a run updates only its own side of an existing file, so
two source trees can be compared in one file:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<old>/src python3 scripts/bench_modes.py --side parent --out BENCH.json
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_modes.py --side change --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from loggad import classifier as clf
from loggad import evaluation as ev
from loggad.pipeline import PipelineConfig, run_pipeline, strip_gold

SEED_SETS = {"strong": ["fault0_trap", "fault1_trap"], "weak": ["fault1_trap", "fault2_trap"]}
# grid mode -> the PipelineConfig fields that make it
MODES = {
    "seed_only": {"annotator_mode": "counting", "max_iterations": 1},
    "counting": {"annotator_mode": "counting"},
    "no_selfsup": {"annotator_mode": "no_selfsup"},
    "full": {"annotator_mode": "full"},
}
CONFIG_SEEDS = (1, 2)
CORPORA = {
    "default": {"noise_rate": 0.1},
    "sparse": {"noise_rate": 0.1, "anomaly_token_rate": (0.05, 0.3)},
    "noisy": {"noise_rate": 0.3, "noise_token_rate": 0.5},
}


def run_cell(corpus: str, seeds: str, mode: str, seed: int) -> dict:
    data = ev.generate_synthetic(ev.SyntheticSpec(**CORPORA[corpus]))
    train, test = ev.split_chronological(data, train_fraction=0.8)
    config = PipelineConfig(**MODES[mode], seed=seed, seed_keywords=SEED_SETS[seeds])
    start = time.perf_counter()
    result = run_pipeline(strip_gold(train), config)
    seconds = time.perf_counter() - start
    predictions = {sid: label for sid, label, _ in clf.predict(result.classifier, strip_gold(test))}
    metrics = ev.score(predictions, {s.id: s.gold_label for s in test})
    return {
        "corpus": corpus, "seed_keywords": SEED_SETS[seeds], "mode": mode, "config_seed": seed,
        "precision": round(metrics.precision, 4), "recall": round(metrics.recall, 4),
        "f1": round(metrics.f1, 4), "iterations": len(result.records),
        "seconds": round(seconds, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True, help="name of the source tree under test")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(args.out.read_text()) if args.out.is_file() else {}
    bench.setdefault("setup", {
        "corpora": {name: {k: list(v) if isinstance(v, tuple) else v for k, v in spec.items()}
                    for name, spec in CORPORA.items()},
        "split": "chronological 80/20",
        "seed_keywords": SEED_SETS,
        "modes": MODES,
        "config_seeds": list(CONFIG_SEEDS),
        "other_settings": "PipelineConfig defaults",
    })
    rows = []
    for corpus in CORPORA:
        for seeds in SEED_SETS:
            for mode in MODES:
                for seed in CONFIG_SEEDS:
                    rows.append(run_cell(corpus, seeds, mode, seed))
                    print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    bench.setdefault("sides", {})[args.side] = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "cpus": os.cpu_count(), "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "runs": rows,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
