"""Documentation guards: every public item must be documented.

These tests keep the documentation deliverable honest: every module under
``repro`` carries a module docstring, every name exported through an
``__all__`` resolves and is documented, and the README's claims about
entry points stay true.
"""

import argparse
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def _walk_modules():
    prefix = repro.__name__ + "."
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


class TestModuleDocs:
    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_module_has_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), (
            f"{module.__name__} is missing a module docstring"
        )

    @pytest.mark.parametrize(
        "module", ALL_MODULES, ids=[m.__name__ for m in ALL_MODULES]
    )
    def test_exports_resolve_and_are_documented(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ lists missing name {name!r}"
            )
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__ and obj.__doc__.strip(), (
                    f"{module.__name__}.{name} has no docstring"
                )


class TestPublicApiSurface:
    def test_top_level_exports(self):
        for name in ("Box", "RobustnessProperty", "verify", "Verifier",
                     "DomainSpec", "analyze", "VerifierConfig"):
            assert name in repro.__all__

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


class TestRepositoryDocs:
    def test_required_documents_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO_ROOT / doc
            assert path.exists(), f"missing {doc}"
            assert path.stat().st_size > 1000, f"{doc} looks empty"

    def test_readme_examples_exist(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for line in readme.splitlines():
            line = line.strip()
            if line.startswith("python examples/"):
                script = line.split()[1]
                assert (REPO_ROOT / script).exists(), f"README references {script}"

    def test_every_benchmark_file_maps_to_design(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in design, (
                f"{bench.name} is not indexed in DESIGN.md"
            )

    def test_examples_have_docstrings(self):
        for script in sorted((REPO_ROOT / "examples").glob("*.py")):
            first = script.read_text().lstrip()
            assert first.startswith('"""'), f"{script.name} lacks a docstring"


def _verb_flags(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """``{verb: its option strings}`` for every (nested) subcommand."""
    verbs = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                verbs[prefix + name] = set(sub._option_string_actions)
                verbs.update(_verb_flags(sub, f"{prefix}{name} "))
    return verbs


def _readme_flag_rows() -> list[tuple[str, set]]:
    """``(flag cell, {commands})`` per row of README's CLI flag table."""
    readme = (REPO_ROOT / "README.md").read_text()
    table = readme.split("## CLI flags", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        if line.startswith("| `-"):
            flag, commands = (cell.strip() for cell in line.split("|")[1:3])
            rows.append((flag, set(commands.split(", "))))
    return rows


class TestReadmeFlagTable:
    def test_each_row_names_the_verbs_that_take_its_flag(self):
        verbs = _verb_flags(build_parser())
        rows = _readme_flag_rows()
        assert rows
        for flag, commands in rows:
            assert flag.count("`") == 2, f"one flag per row: {flag}"
            name = flag.strip("`")
            takes = {verb for verb, flags in verbs.items() if name in flags}
            assert commands == takes, name


#: Every runnable file shipped next to the library.  All of them guard
#: their work behind ``if __name__ == "__main__"``, so importing one only
#: resolves its imports — which is what catches a deleted library name.
RUNNABLE = sorted((REPO_ROOT / "examples").glob("*.py")) + sorted(
    (REPO_ROOT / "scripts").glob("*.py")
)


class TestExamplesAndScriptsImport:
    @pytest.mark.parametrize(
        "path", RUNNABLE, ids=[f"{p.parent.name}/{p.name}" for p in RUNNABLE]
    )
    def test_imports_by_path(self, path, monkeypatch):
        # Scripts import their siblings, exactly as ``python scripts/x.py``
        # would find them.
        monkeypatch.syspath_prepend(str(path.parent))
        spec = importlib.util.spec_from_file_location(
            f"runnable_{path.parent.name}_{path.stem}", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(getattr(module, "main", None)), (
            f"{path.name} has no main()"
        )
