"""The traced benchmark run wraps abtool functions by name
(benchmark/spans.py); every name it patches must exist, and uninstalling
must put each original object back."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_install_and_restore():
    spans = _load_spans()
    originals = {(owner, attr): owner.__dict__[attr]
                 for _, owners, _ in spans.targets() for owner, attr in owners}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
