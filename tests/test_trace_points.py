"""The benchmark's traced run (`perfbench/run.py --trace 1`) swaps span
wrappers into the program by name. A call site renamed or deleted in the
program breaks only that run, so this checks every name it traces."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_defined():
    spans = load_spans()
    missing = []
    for module, path in spans.TARGETS:
        # the lookup Tracer.install does: the attribute must be defined on
        # its owner itself, not inherited or imported under another name
        try:
            owner, attr = spans.Tracer._resolve(module, path)
        except AttributeError:
            missing.append(f"{module}.{path}")
            continue
        if attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert spans.TARGETS and not missing
