"""Guard: no bare ``np.unique`` in the production layer.

A bare ``np.unique(keys)`` (no ``return_*`` keyword) takes NumPy's hash
path, which costs up to ~40x a sort on the int64 keys this package
dedups (see :mod:`repro.util.setops`).  This test scans the source
tree and fails on any such call outside ``repro/util/setops.py``.  Calls with a
``return_*`` keyword take NumPy's sort path and pass.  The paper-layer
engines are fixed reproduction artefacts and sit on an explicit
allow-list.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Paper-layer modules and packages (relative to ``src/repro``), left
#: exactly as the reproduction wrote them.
PAPER_LAYER = (
    "core/machine.py",
    "core/vectorized.py",
    "core/batched.py",
    "core/row_machine.py",
    "gca/",
    "pram/",
    "hirschberg/reference.py",
)

SETOPS = "util/setops.py"


def bare_unique_calls(source: str) -> Iterator[int]:
    """Line numbers of ``np.unique(...)`` calls without a ``return_*``
    keyword, under any alias ``numpy`` or ``numpy.unique`` is bound to."""
    tree = ast.parse(source)
    modules = {"numpy"}
    functions = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    modules.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name == "unique":
                    functions.add(alias.asname or "unique")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        hit = (
            isinstance(func, ast.Attribute)
            and func.attr == "unique"
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ) or (isinstance(func, ast.Name) and func.id in functions)
        if hit and not any(
            kw.arg is not None and kw.arg.startswith("return_")
            for kw in node.keywords
        ):
            yield node.lineno


def _allowed(relative: str) -> bool:
    return relative == SETOPS or any(
        relative == entry or (entry.endswith("/") and relative.startswith(entry))
        for entry in PAPER_LAYER
    )


def test_no_bare_np_unique_in_production_layer():
    offenders: List[Tuple[str, int]] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()
        if _allowed(relative):
            continue
        for line in bare_unique_calls(path.read_text(encoding="utf-8")):
            offenders.append((relative, line))
    assert not offenders, (
        "bare np.unique takes NumPy's hash path; use repro.util.setops "
        f"(sorted_unique / unique_pairs / distinct_count): {offenders}"
    )


def test_allow_list_names_existing_modules():
    for entry in PAPER_LAYER:
        assert (PACKAGE / entry).exists(), entry


@pytest.mark.parametrize(
    "source,lines",
    [
        ("import numpy as np\nnp.unique(a)\n", [2]),
        ("import numpy\nx = numpy.unique(a).size\n", [2]),
        ("from numpy import unique as u\nu(a)\n", [2]),
        ("import numpy as np\nnp.unique(a, return_counts=True)\n", []),
        ("import numpy as np\nnp.unique(a, return_inverse=True)\n", []),
        ("import numpy as np\nnp.unique(a, axis=0)\n", [2]),
        ("import numpy as np\nnp.union1d(a, b)\n", []),
    ],
)
def test_scanner(source, lines):
    assert list(bare_unique_calls(source)) == lines
