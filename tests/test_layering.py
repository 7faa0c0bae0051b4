"""Import layering: the arithmetic substrate (rings, series), the
fixed-point value type (hrat) and the cohomology and fixed-point data
(cohomology) sit below the verifier side of the package and must not
import from it.  And importing the CLI pays for no module that only
generated code needs."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qgr"
LOWER = ("rings", "series", "hrat", "cohomology")
UPPER = {"residues", "verifier", "operators", "cli"}


def _imported_modules(path: Path) -> set[str]:
    """qgr modules named by any import in the file, at any nesting."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("qgr.")]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("qgr"):
                continue
            base = (node.module or "").removeprefix("qgr").lstrip(".")
            names = [f"{base}.{a.name}" if base else a.name for a in node.names]
            names.append(base)
        else:
            continue
        out.update(n.removeprefix("qgr.").split(".")[0] for n in names if n)
    return out


def test_layering_guard_sees_every_import_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .residues import x\nfrom . import cli\nimport qgr.verifier\n"
                   "def f():\n    from qgr.operators import y\nfrom fractions import Fraction\nimport math\n")
    assert _imported_modules(src) == UPPER


@pytest.mark.parametrize("name", LOWER)
def test_lower_layers_do_not_import_verifier_side(name):
    assert (SRC / f"{name}.py").is_file()
    assert not _imported_modules(SRC / f"{name}.py") & UPPER


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every CLI call and benchmark job imports qgr afresh, and dataclasses
    # brings inspect, ast, dis and tokenize; typing is needed by no
    # annotation, as none is evaluated; -S keeps site hooks out
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qgr.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
