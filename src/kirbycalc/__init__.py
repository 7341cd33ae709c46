"""Symbolic workbench for framed-link calculus, Andrews-Curtis search, and
slope enumeration on the 4-punctured sphere."""

__version__ = "0.2.0"
