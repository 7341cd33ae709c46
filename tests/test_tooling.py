"""The test dependencies are pinned twice, in the ``test`` extra of
pyproject.toml and in the CI workflow's install step; both must name the
same versions.  Read with a regex: Python 3.10 has no tomllib."""

import re
from pathlib import Path

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
