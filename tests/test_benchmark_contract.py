"""The names the benchmark under perfbench/ hooks and reads still exist.

A simplification that deletes one of them turns a benchmark metric null
or absent without failing any other test, so this guards them here.
"""

import importlib
import importlib.util
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if not (PERFBENCH / "tracer.py").is_file():
    pytest.skip("no perfbench/ in this checkout", allow_module_level=True)

# hooks whose target is known to be gone; the benchmark still lists them
STALE_HOOKS = {"nn.accumulate"}

# what perfbench/workloads.py reads of the package beyond its hooks, as module.attribute
READ_NAMES = [
    "graph.EventGraph.to_json",
    "graph.Subgraph.n_vertices",
    "graph.Subgraph.adjacency",
    "evaluation.sequences_from_records",
    "evaluation.load_loghub_sample",
    "evaluation.generate_synthetic",
    "evaluation.SyntheticSpec",
    "evaluation.score",
    *(f"evaluation.Metrics.{count}" for count in ("tp", "fp", "fn", "tn")),
    *(f"evaluation.Metrics.{ratio}" for ratio in ("precision", "recall", "f1")),
    "pipeline.run_pipeline",
    "pipeline.strip_gold",
    "pipeline.PipelineConfig",
    "pipeline.PipelineError",
    "pipeline.PipelineResult.classifier",
    "pipeline.PipelineResult.records",
    "pipeline.PipelineResult.predictions",
    "pipeline.PipelineResult.pseudo_labels",
    "pipeline.IterationRecord.pretrain_trace",
    "pipeline.IterationRecord.finetune_trace",
    "pipeline.IterationRecord.classifier_trace",
    "classifier.predict",
    "classifier.ClassifierModel.load",
    "ingest.write_jsonl",
    "cli.main",
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def has_name(owner, name: str) -> bool:
    """An attribute, or a dataclass field, which a class need not hold as an attribute."""
    if hasattr(owner, name):
        return True
    return is_dataclass(owner) and name in {f.name for f in fields(owner)}


def test_every_hook_target_resolves_but_the_stale_ones():
    tracer = load_tracer()
    for module_name, _ in tracer.HOOKS.values():
        importlib.import_module(module_name)
    t = tracer.Tracer("contract")
    try:
        t.install()
    finally:
        t.uninstall()
    assert set(t.absent) <= STALE_HOOKS


@pytest.mark.parametrize("name", READ_NAMES)
def test_every_name_the_workloads_read_exists(name):
    module, _, path = name.partition(".")
    owner = importlib.import_module(f"loggad.{module}")
    for part in path.split("."):
        assert has_name(owner, part), f"loggad.{name}: {part} is missing"
        owner = getattr(owner, part, None)
