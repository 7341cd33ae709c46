"""Checks on the files around the package.

The test dependencies are pinned twice, in the ``test`` extra of
pyproject.toml and in the CI workflow's install step; both must name the
same versions.  Read with a regex: Python 3.10 has no tomllib.

The benchmark's tracer wraps the package functions that
``perfbench/spans.py`` names; each name must resolve, or a traced run stops
at ``Tracer.install``."""

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
