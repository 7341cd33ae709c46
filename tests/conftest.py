"""Test-session set-up shared by every test module."""

import warnings

# Hypothesis imports hypothesis.extra._patching, and through it libcst,
# only when it reports a failing test.  Where that import chain raises a
# DeprecationWarning in a dependency (mypy_extensions.TypedDict), a
# ``pytest -W error`` run turns the report of one failing test into an
# INTERNALERROR that ends the session, and every later test goes
# unreported; an ini ``filterwarnings`` entry cannot help, as ``-W error``
# overrides it.  Importing the module once here, with only that category
# ignored and only for this import, makes the later import a cache lookup.
# No warning that kirbycalc or the tests raise is affected.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
