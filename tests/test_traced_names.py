"""Every name the benchmark's tracer wraps still resolves in the library.

``perfbench/tracing.py`` finds each traced function by name; a rename or an
inlined helper would otherwise fail only in a traced benchmark run.  The
module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


@pytest.mark.parametrize("mod_name, qual", [
    (mod, qual) for mod, quals in _traced().items() for qual in quals])
def test_traced_name_resolves(mod_name, qual):
    mod = importlib.import_module(f"bcwitt.{mod_name}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        fn = vars(getattr(mod, cls_name))[meth]
    else:
        fn = getattr(mod, qual)
    assert callable(fn)
