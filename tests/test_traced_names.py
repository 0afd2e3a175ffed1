"""The benchmark's span tracer wraps reachctl functions by name
(``perfbench/spans.py``, ``LAYERS``); each of them must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _resolves(modname: str, path: str) -> bool:
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, (modname, path) in spans.LAYERS.items()
               if not _resolves(modname, path)]
    assert spans.LAYERS and not missing
