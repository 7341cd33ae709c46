"""Checks on the files around the package.

The test dependencies are pinned twice, in the ``test`` extra of
pyproject.toml and in the CI workflow's install step; both must name the
same versions.  Read with a regex: Python 3.10 has no tomllib.

The benchmark's tracer wraps the package functions that
``perfbench/spans.py`` names; each name must resolve, or a traced run stops
at ``Tracer.install``.  Its workloads and runner call the package as
``kc.<module>.<name>``; each of those must resolve too, or the benchmark
fails where the tests passed."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def pins(path: Path) -> dict:
    """Each ``name==version`` pin of pytest and hypothesis in ``path``."""
    text = path.read_text()
    found = {}
    for name in ("pytest", "hypothesis"):
        versions = set(re.findall(rf"\b{name}==([0-9][0-9A-Za-z.]*)", text))
        assert len(versions) == 1, f"{path.name} pins {name} as {versions}"
        found[name] = versions.pop()
    return found


def test_test_extra_and_workflow_pin_the_same_versions():
    assert (pins(ROOT / "pyproject.toml")
            == pins(ROOT / ".github" / "workflows" / "tests.yml"))


def span_boundaries() -> tuple:
    """The ``BOUNDARIES`` table of perfbench/spans.py, read from its source
    without running it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "BOUNDARIES"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no BOUNDARIES")


BOUNDARIES = span_boundaries()


@pytest.mark.parametrize("module, attr, span", BOUNDARIES,
                         ids=[span for _, _, span in BOUNDARIES])
def test_benchmark_span_names_resolve(module, attr, span):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr} (span {span}) is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def benchmark_package_names() -> list:
    """Each (module, name) of ``perfbench/workloads.py`` and
    ``perfbench/run.py`` read as ``kc.<module>.<name>``, or as
    ``<alias>.<name>`` after ``<alias> = kc.<module>`` in the same function
    (``kc`` is always a function's parameter or local), from their source
    without running it."""
    found = set()
    for path in ("workloads.py", "run.py"):
        tree = ast.parse((ROOT / "perfbench" / path).read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.FunctionDef):
                continue
            aliases = {}
            for node in ast.walk(scope):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and isinstance(node.value, ast.Attribute)
                        and getattr(node.value.value, "id", None) == "kc"):
                    aliases[node.targets[0].id] = node.value.attr
            for node in ast.walk(scope):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = node.value
                if (isinstance(owner, ast.Attribute)
                        and getattr(owner.value, "id", None) == "kc"):
                    found.add((owner.attr, node.attr))
                elif getattr(owner, "id", None) in aliases:
                    found.add((aliases[owner.id], node.attr))
    return sorted(found)


BENCHMARK_NAMES = benchmark_package_names()


def test_benchmark_reads_package_names():
    # the reader finds the benchmark's calls at all
    assert ("acsearch", "search") in BENCHMARK_NAMES
    assert ("presentations", "ak_presentation") in BENCHMARK_NAMES


@pytest.mark.parametrize("module, name", BENCHMARK_NAMES,
                         ids=[f"{m}.{n}" for m, n in BENCHMARK_NAMES])
def test_benchmark_package_names_resolve(module, name):
    owner = importlib.import_module(f"kirbycalc.{module}")
    assert hasattr(owner, name), f"kirbycalc.{module}.{name} is gone"
