"""The benchmark's tracer still sees the simulator's per-edge entry points.

``perfbench/tracer.py`` counts the per-edge work of a traced pass by
wrapping ``Imu.tick``, ``Coprocessor.tick`` and
``InterruptController.pending_unmasked`` at their class attributes.
The CI benchmark job runs untraced, so if the simulator stopped calling
one of them through that name, its count would read 0 and nothing else
would notice.  This test runs one small cell under an edge pass; it
imports the tracer from its file and changes nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

from repro.exp import cell
from repro.exp.spec import CellConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load_tracer()


def _bindings() -> dict:
    """Every name bound in a ``repro`` module or a class it defines."""
    bound = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in vars(module).items():
            bound[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    bound[(name, key, attr)] = member
    return bound


def test_an_edge_pass_counts_the_per_edge_entry_points():
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install(edges=True)
    try:
        cell.run_cell(CellConfig(app="vadd", input_bytes=1024))
        tracer.end_op()
    finally:
        tracer.uninstall()
    counts = tracer_module.exact_counts(tracer.take_pass())
    for name in ("imu.tick_calls", "coproc.tick_calls", "hw.irq_polls"):
        assert counts[name] > 0, name
    assert counts["imu.tick_calls"] <= counts["imu.ticks"]
    after = _bindings()
    assert [key for key, value in before.items() if after[key] is not value] == []
