"""Streamed JSON output, byte-identical to json.dumps(doc, indent=2) + "\\n".

CPython's C encoder runs only when `indent` is None, so json.dumps with
an indent encodes every value in Python.  Here an array whose items are
all scalars, and an object whose keys are all `str` and whose values are
all scalars, is rendered by one C-level join: `str` by the C string
encoder, `int` by its repr, `bool`, `None` and floats by their JSON
text.  Scalars are matched by exact type, so a `bool` is never an int.
Chunks are written as they are produced, so no document is ever one
string, and any iterator is written as an array: rows can stream from a
generator without ever being a list.  A `JoinedRows` value is an array
of arrays whose rows come as text, with their items already joined.
"""

from __future__ import annotations

from collections.abc import Iterator
from json import dumps
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Callable, Iterable

INDENT = "  "


def _float(value: float) -> str:
    # json.dumps writes NaN and the infinities as NaN, Infinity, -Infinity.
    return repr(value) if isfinite(value) else dumps(value)


# The JSON text of each scalar type, by exact type.
_RENDER = {
    str: _quote,
    int: repr,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_SCALARS = frozenset(_RENDER)
_STR_KEYS = {str}
_END = object()


class JoinedRows:
    """An array of arrays of scalars, given by `texts(separator)`: an
    iterable of one string per inner array, its items' JSON texts joined
    by `separator`.  write_json passes the separator of the array's
    depth and writes the brackets, so a row is one string, not one per
    item."""

    __slots__ = ("texts",)

    def __init__(self, texts: Callable[[str], Iterable[str]]) -> None:
        self.texts = texts


def write_json(doc, write: Callable[[str], object]) -> None:
    """Write json.dumps(doc, indent=2) and a newline through `write`,
    in chunks; iterators are written as arrays."""
    _value(doc, write, "\n")
    write("\n")


def _scalar(value) -> str:
    return _RENDER[type(value)](value)


def _texts(values, kinds: set) -> Iterable[str] | None:
    """The JSON texts of `values`, whose exact types are `kinds`; None
    unless every kind is a scalar type."""
    if not kinds <= _SCALARS:
        return None
    return map(_RENDER[kinds.pop()] if len(kinds) == 1 else _scalar, values)


def _key(key) -> str:
    """An object key as json.dumps writes it: str as is; int, float,
    bool and None by their JSON text, quoted."""
    if isinstance(key, str):
        return _quote(key)
    if key is None or isinstance(key, (int, float)):
        return _quote(dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _value(value, write, newline: str) -> None:
    """Write one value whose first line is already indented; `newline`
    is a newline followed by the indentation of its level."""
    kind = type(value)
    render = _RENDER.get(kind)
    if render is not None:
        write(render(value))
    elif kind is dict:
        _object(value, write, newline)
    elif kind is list or kind is tuple or isinstance(value, Iterator):
        _array(value, write, newline)
    elif kind is JoinedRows:
        _joined_rows(value.texts, write, newline)
    else:
        # Newlines occur only between tokens, so re-indenting is a replace.
        write(dumps(value, indent=2).replace("\n", newline))


def _array(items, write, newline: str) -> None:
    inner = newline + INDENT
    if type(items) is list or type(items) is tuple:
        if not items:
            write("[]")
            return
        texts = _texts(items, set(map(type, items)))
        if texts is not None:
            write("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
    items = iter(items)
    first = next(items, _END)
    if first is _END:
        write("[]")
        return
    write("[" + inner)
    _value(first, write, inner)
    for item in items:
        write("," + inner)
        _value(item, write, inner)
    write(newline + "]")


def _joined_rows(texts, write, newline: str) -> None:
    inner = newline + INDENT
    item = inner + INDENT
    separator = "[" + inner
    for text in texts("," + item):
        if text:
            write(separator + "[" + item)
            write(text)
            write(inner + "]")
        else:
            write(separator + "[]")
        separator = "," + inner
    # The separator still opens the array when there was no row.
    write("[]" if separator[0] == "[" else newline + "]")


def _object(obj: dict, write, newline: str) -> None:
    if not obj:
        write("{}")
        return
    inner = newline + INDENT
    if set(map(type, obj)) == _STR_KEYS:
        texts = _texts(obj.values(), set(map(type, obj.values())))
        if texts is not None:
            pairs = zip(map(_quote, obj), texts)
            write("{" + inner + ("," + inner).join(map(": ".join, pairs)) + newline + "}")
            return
    separator = "{" + inner
    for key, value in obj.items():
        write(separator + _key(key) + ": ")
        _value(value, write, inner)
        separator = "," + inner
    write(newline + "}")
