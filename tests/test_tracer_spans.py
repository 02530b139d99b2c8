"""Every function the benchmark tracer times must exist in the package.

`bench/tracer.py` rebinds each of its SPANS by name when a traced run
starts, so deleting or renaming one of them crashes every traced
benchmark run. The span table is read from the tracer itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a in tracer.SPANS],
                         ids=[span for span, _, _ in tracer.SPANS])
def test_span_target_resolves(module, attr):
    owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    owner_path, _, leaf = attr.rpartition(".")
    if owner_path:
        # methods are rebound in their class's own namespace
        target = vars(getattr(owner, owner_path)).get(leaf)
    else:
        target = getattr(owner, leaf, None)
    assert callable(target), f"{module}.{attr} is gone"
