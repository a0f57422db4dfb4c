"""Every function and method that `perfbench/spans.py` wraps must exist in the
package.  The spans resolve their names only when a traced run installs
them, so without this check a refactor that deletes or renames a spanned
function would pass the suite and break only `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
STAGES = [(module, fn) for module, functions in SPANS.STAGES.items() for fn in functions]
KERNELS = [
    (module, cls, attr)
    for (module, cls), metrics in SPANS.KERNELS.items()
    for attrs in metrics.values()
    for attr in attrs
]


@pytest.mark.parametrize("module,fn", STAGES, ids=[f"{m}.{f}" for m, f in STAGES])
def test_spanned_stage_resolves(module, fn):
    assert callable(getattr(importlib.import_module(f"painleve.{module}"), fn))


@pytest.mark.parametrize("module,cls,attr", KERNELS, ids=[".".join(k) for k in KERNELS])
def test_counted_kernel_resolves(module, cls, attr):
    owner = getattr(importlib.import_module(f"painleve.{module}"), cls)
    assert callable(getattr(owner, attr))
