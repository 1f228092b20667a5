"""Frozen copy of the original per-token parsers, the reference for the
differential test of the bulk parsers in setcoverlab.instance.

Each token's line and column are computed up front, one token at a time;
the messages, positions and the order in which errors are found define the
parsers' contract.  Do not edit: the differential test compares against
exactly this behaviour.
"""

from fractions import Fraction

from setcoverlab.errors import ScpSyntaxError, UnionNotUniverse
from setcoverlab.instance import (
    NATIVE_MAGIC,
    NATIVE_VERSION,
    Instance,
    SetEntry,
    parse_weight,
    validate,
)


class _Tokens:
    """Whitespace token stream with 1-based line/column positions."""

    def __init__(self, text: str):
        self.items: list[tuple[str, int, int]] = []
        for ln, line in enumerate(text.splitlines(), start=1):
            col = 1
            for piece in line.split():
                col = line.index(piece, col - 1) + 1
                self.items.append((piece, ln, col))
                col += len(piece)
        self.pos = 0

    def next(self, what: str) -> tuple[str, int, int]:
        if self.pos >= len(self.items):
            last = self.items[-1] if self.items else ("", 1, 1)
            raise ScpSyntaxError(f"unexpected end of input, expected {what}",
                                 line=last[1], column=last[2])
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def next_int(self, what: str) -> tuple[int, int, int]:
        tok, ln, col = self.next(what)
        try:
            return int(tok), ln, col
        except ValueError:
            raise ScpSyntaxError(f"expected {what}, got {tok!r}", ln, col) from None

    def next_weight(self, what: str) -> tuple[Fraction, int, int]:
        tok, ln, col = self.next(what)
        try:
            return parse_weight(tok), ln, col
        except (ValueError, ZeroDivisionError):
            raise ScpSyntaxError(f"expected {what}, got {tok!r}", ln, col) from None

    def at_end(self) -> bool:
        return self.pos >= len(self.items)


# ---------------------------------------------------------------------------
# native format (frozen)


def parse_native(text: str, name: str | None = None) -> Instance:
    """Parse the native "scp 1" format; the result is validated."""
    toks = _Tokens(text)
    magic, ln, col = toks.next("format magic")
    if magic != NATIVE_MAGIC:
        raise ScpSyntaxError(f"expected {NATIVE_MAGIC!r} header, got {magic!r}", ln, col)
    version, ln, col = toks.next("format version")
    if version != NATIVE_VERSION:
        raise ScpSyntaxError(f"unsupported version {version!r}", ln, col)
    m, _, _ = toks.next_int("universe size m")
    n, _, _ = toks.next_int("set count n")
    sets = []
    for i in range(n):
        w, _, _ = toks.next_weight(f"weight of set {i}")
        k, ln, col = toks.next_int(f"cardinality of set {i}")
        if k < 0:
            raise ScpSyntaxError(f"negative cardinality for set {i}", ln, col)
        elements = []
        seen = set()
        for j in range(k):
            e, ln, col = toks.next_int(f"element {j} of set {i}")
            if e in seen:
                raise ScpSyntaxError(f"duplicate element {e} in set {i}", ln, col)
            seen.add(e)
            elements.append(e)
        sets.append(SetEntry(tuple(sorted(elements)), w))
    if not toks.at_end():
        tok, ln, col = toks.next("end of input")
        raise ScpSyntaxError(f"trailing token {tok!r}", ln, col)
    instance = Instance(m=m, sets=tuple(sets), name=name)
    validate(instance)
    return instance



def parse_orlib(text: str, name: str | None = None) -> Instance:
    """Parse the OR-Library set-covering format into a set-major Instance."""
    toks = _Tokens(text)
    m, _, _ = toks.next_int("row count m")
    n, _, _ = toks.next_int("column count n")
    if m < 1 or n < 1:
        raise ScpSyntaxError("m and n must be positive")
    costs = []
    for i in range(n):
        w, _, _ = toks.next_weight(f"cost of column {i}")
        costs.append(w)
    columns: list[list[int]] = [[] for _ in range(n)]
    for row in range(1, m + 1):
        c, _, _ = toks.next_int(f"cover count of row {row}")
        if c < 1:
            raise UnionNotUniverse(
                f"element {row} is covered by no column", missing_element=row
            )
        seen = set()
        for j in range(c):
            col_idx, ln, col = toks.next_int(f"column {j} covering row {row}")
            if not 1 <= col_idx <= n:
                raise ScpSyntaxError(
                    f"column index {col_idx} outside 1..{n}", ln, col
                )
            if col_idx in seen:
                raise ScpSyntaxError(
                    f"row {row} lists column {col_idx} twice", ln, col
                )
            seen.add(col_idx)
            columns[col_idx - 1].append(row)
    if not toks.at_end():
        tok, ln, col = toks.next("end of input")
        raise ScpSyntaxError(f"trailing token {tok!r}", ln, col)
    sets = tuple(
        SetEntry(tuple(sorted(els)), w) for els, w in zip(columns, costs)
    )
    instance = Instance(m=m, sets=sets, name=name)
    validate(instance)
    return instance
