"""The CI install lines must cover every third-party module the code imports.

A clean CI runner has only what ``.github/workflows/ci.yml`` installs, so a
module imported by the package, the tests, the benchmarks or the examples
but missing from an install line fails there (at collection, for a test
module) while passing on a machine that happens to have it.
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "examples")
INSTALL = re.compile(r"python -m pip install (.+)$")


def _install_lines() -> list[set[str]]:
    """The packages of every ``pip install`` line, as import-style names."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    return [
        {name.lower().replace("-", "_") for name in match.group(1).split()}
        for match in map(INSTALL.search, workflow.splitlines())
        if match
    ]


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level modules imported outside the stdlib, ``repro`` and local helpers."""
    found: dict[str, set[str]] = {}
    for directory in SCANNED:
        for path in sorted((REPO / directory).rglob("*.py")):
            # Sibling modules and packages (conftest, oracles, ...) are local.
            local = {p.stem for p in path.parent.glob("*.py")}
            local |= {p.name for p in path.parent.iterdir() if (p / "__init__.py").is_file()}
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.split(".")[0]
                    if top in sys.stdlib_module_names or top in local:
                        continue
                    if top in ("repro", "__future__"):
                        continue
                    found.setdefault(top, set()).add(str(path.relative_to(REPO)))
    return found


def test_ci_install_lines_cover_every_third_party_import():
    lines = _install_lines()
    assert lines, "no 'python -m pip install' line in .github/workflows/ci.yml"
    imports = _third_party_imports()
    for installed in lines:
        missing = {
            module: sorted(paths)[0]
            for module, paths in imports.items()
            if module not in installed
        }
        assert not missing, f"CI installs {sorted(installed)} but the code imports {missing}"
