"""The rules for input read from outside the program: JSON records, both
calculi's move records, indices, integer bounds and framings.  Each rule
raises the caller's own ValueError subclass, in one message format."""

from __future__ import annotations


def json_object(data, what: str, error: type) -> None:
    """Require ``data``, a ``what``, to be a JSON object."""
    if not isinstance(data, dict):
        raise error(f"a {what} is a JSON object, got {type(data).__name__}")


def json_field(record: dict, what: str, name: str, error: type):
    """``record[name]``, which a JSON ``what`` must hold."""
    if name not in record:
        raise error(f"{what} JSON missing field: {name!r}")
    return record[name]


def json_list(record: dict, what: str, name: str, error: type) -> list:
    """``record[name]``, which a JSON ``what`` must hold as a list."""
    value = json_field(record, what, name, error)
    if not isinstance(value, list):
        raise error(f"{what} field {name!r} must be a list")
    return value


def check_int(value, least: int, what: str, error: type) -> None:
    """Require ``value``, a ``what``, to be an int, not a bool, >= least."""
    if type(value) is not int or value < least:
        raise error(f"{what} must be an integer >= {least}, got {value!r}")


def check_framing(value, error: type) -> None:
    """Require ``value``, a framing, to be an int, not a bool; any sign."""
    if type(value) is not int:
        raise error(f"framing must be an integer, got {value!r}")


def check_index(i, count: int, what: str, error: type) -> None:
    """Require ``i`` to index one of ``count`` ``what``s."""
    check_int(i, 0, f"{what} index", error)
    if i >= count:
        raise error(f"{what} index {i} out of range for {count} {what}s")


def apply_move(target, move, table: dict, error: type):
    """Apply the move record ``{"move": kind, ...}`` to ``target``.
    ``table`` maps each kind to its function and the function's parameters
    after ``target``, in call order: a name, or a ``(name, default)`` pair."""
    json_object(move, "move", error)
    kind = move.get("move")
    # a string test first: the kind may be any JSON value, a list included
    if not isinstance(kind, str) or kind not in table:
        raise error(f"unknown move kind {kind!r} (expected one of {tuple(table)})")
    function, params = table[kind]
    args = []
    for param in params:
        name, *default = (param,) if isinstance(param, str) else param
        if name not in move and not default:
            raise error(f"move {kind!r} is missing parameter {name!r}")
        args.append(move.get(name, *default))
    return function(target, *args)
