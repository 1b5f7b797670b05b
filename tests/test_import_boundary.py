"""Import boundary: the verification reference stays off shipped paths.

``repro.verify.reference`` holds the scalar machine stepper and the
per-tick grid loop that the oracles compare the shipped code against.
Shipped code must never run it, so this walks every module's AST —
function-level (lazy) imports included — and fails when:

* any module outside ``repro/verify/`` imports ``repro.verify.reference``;
* ``repro.sim``, ``repro.serve``, ``repro.perf`` or ``repro.experiments``
  import ``repro.verify`` at all.

The tool's ``verify`` subcommand dispatch in ``repro.core.cli`` imports
``repro.verify.cli`` and stays allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
REFERENCE = "repro.verify.reference"
NO_VERIFY = ("repro.sim", "repro.serve", "repro.perf", "repro.experiments")


def _module_name(path: Path, root: Path = SRC) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imports(path: Path, root: Path = SRC) -> set[str]:
    """Every module ``path`` imports, as absolute dotted names; a
    ``from X import y`` yields both ``X`` and ``X.y`` (y may be a module)."""
    module = _module_name(path, root)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _modules() -> list[Path]:
    return sorted(PACKAGE.rglob("*.py"))


def test_walk_sees_the_whole_package():
    names = {_module_name(p) for p in _modules()}
    assert {"repro.sim.machine", "repro.core.cli", REFERENCE} <= names


@pytest.mark.parametrize(
    "path", _modules(), ids=lambda p: _module_name(p)
)
def test_reference_stays_off_shipped_paths(path):
    module = _module_name(path)
    imported = _imports(path)
    if not _under(module, "repro.verify"):
        leaks = sorted(n for n in imported if _under(n, REFERENCE))
        assert not leaks, f"{module} imports the verification reference: {leaks}"
    if any(_under(module, pkg) for pkg in NO_VERIFY):
        leaks = sorted(n for n in imported if _under(n, "repro.verify"))
        assert not leaks, f"{module} imports repro.verify: {leaks}"


def test_boundary_check_catches_a_leak(tmp_path):
    """The walker sees lazy and relative imports (guards the test itself)."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    leak = pkg / "leaky.py"
    leak.write_text(
        "def f():\n"
        "    from ..verify import reference\n"
        "    import repro.verify.reference as r\n"
    )
    assert REFERENCE in _imports(leak, root=tmp_path)
    leak.write_text("from ..verify import reference\n")
    assert REFERENCE in _imports(leak, root=tmp_path)
