"""Checks on the files around the package.

The test dependencies are pinned twice, in the ``test`` extra of
pyproject.toml and in the CI workflow's install step; both must name the
same versions.  Read with a regex: Python 3.10 has no tomllib.

The benchmark's tracer wraps the package functions that
``perfbench/spans.py`` names; each name must resolve, or a traced run stops
at ``Tracer.install``.  Its workloads and runner call the package as
``kc.<module>.<name>``; each of those must resolve too, or the benchmark
fails where the tests passed.

Every docstring example in the package runs, and every JSON example under
the README's "File formats" reads through its reader and survives a JSON
round trip."""

import ast
import doctest
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import kirbycalc
from kirbycalc.framedlinks import FramedLinkModel
from kirbycalc.presentations import Presentation
from kirbycalc.wirtinger import PDCode

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


MODULES = sorted(m.name for m in pkgutil.walk_packages(kirbycalc.__path__,
                                                       "kirbycalc."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_docstring_examples_are_found():
    # the finder reaches the one example the package has today
    finder = doctest.DocTestFinder()
    words = importlib.import_module("kirbycalc.words")
    assert any(t.examples for t in finder.find(words))


def file_format_examples() -> list:
    """The ```json blocks of the README's "File formats" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### File formats", 1)[1]
    section = re.split(r"^#{1,3} ", section, flags=re.M)[0]
    return [json.loads(block)
            for block in re.findall(r"```json\n(.*?)```", section, re.S)]


# each file format's reader, known by the fields of its record
READERS = {frozenset({"generators", "relators"}): Presentation,
           frozenset({"components", "linking"}): FramedLinkModel,
           frozenset({"crossings", "components"}): PDCode}
EXAMPLES = file_format_examples()


def test_every_file_format_has_an_example():
    assert {frozenset(data) for data in EXAMPLES} == set(READERS)


@pytest.mark.parametrize("data", EXAMPLES,
                         ids=[READERS[frozenset(d)].__name__ for d in EXAMPLES])
def test_file_format_example_round_trips(data):
    reader = READERS[frozenset(data)]
    value = reader.from_json(data)
    again = json.loads(json.dumps(value.to_json()))
    assert reader.from_json(again).to_json() == again == value.to_json()
