"""Smoke test: the graph-and-walk demo runs against the current API."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "demos" / "inspect_graph_and_walks.py"


def test_inspect_graph_and_walks_runs():
    spec = importlib.util.spec_from_file_location("inspect_graph_and_walks", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    out = io.StringIO()
    with redirect_stdout(out):
        demo.main()
    text = out.getvalue()
    assert "vertices" in text and "edges" in text
    assert "transition row for" in text and "p=" in text
    assert text.count("start_class=") == 4
