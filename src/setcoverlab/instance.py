"""Weighted set-cover instance model, validation and file I/O.

An instance is a universe {1..m} together with an ordered collection of
weighted subsets whose union is the whole universe.  Weights are exact
rationals (fractions.Fraction) so that every bound comparison downstream
is an exact comparison, never a float one.

Two file formats are supported:

* native ("scp 1"): whitespace-separated tokens::

      scp 1
      m n
      w_1 k_1 e_1 ... e_k1
      ...

  with 1-based element ids and weights written as decimals or "p/q".

* OR-Library set-covering format (read-only): "m n", then n column costs,
  then for each of the m rows a count c_j followed by c_j 1-based column
  indices.  Rows are elements and columns are sets; parsing transposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import lt

import numpy as np

from .errors import (
    ElementOutOfRange,
    EmptySet,
    IndexOutOfRange,
    InvalidInstance,
    NegativeWeight,
    NonPositiveWeight,
    ScpSyntaxError,
    UnionNotUniverse,
)

NATIVE_MAGIC = "scp"
NATIVE_VERSION = "1"


@dataclass(frozen=True)
class SetEntry:
    """One candidate set: a sorted tuple of element ids plus its weight."""

    elements: tuple[int, ...]
    weight: Fraction

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Instance:
    """A validated-on-demand set-cover instance over the universe {1..m}.

    Memos (validation with masks and integer weights, incidence) live in
    __dict__, not in the fields.
    """

    m: int
    sets: tuple[SetEntry, ...]
    name: str | None = None

    @property
    def n(self) -> int:
        return len(self.sets)

    def __getstate__(self):
        return {"m": self.m, "sets": self.sets, "name": self.name}


@dataclass(frozen=True)
class Cover:
    """A subcollection (by 0-based set index) whose union is the universe."""

    set_indices: tuple[int, ...]
    weight: Fraction


def make_instance(m, sets, name=None) -> Instance:
    """Build an Instance from (elements, weight) pairs; elements get sorted."""
    entries = tuple(
        SetEntry(tuple(sorted(set(els))), Fraction(w)) for els, w in sets
    )
    return Instance(m=m, sets=entries, name=name)


def validate(instance: Instance) -> None:
    """Raise the first invariant violation, or return None if all hold.

    Checked per set, in order: element range, non-emptiness, weight sign;
    then global coverage of the universe.  Success is memoized, with masks
    and the weights as integers over their common denominator.
    """
    if "_view" in instance.__dict__:
        return
    m = instance.m
    if m < 1:
        raise InvalidInstance(f"universe size must be >= 1, got {m}")
    if not instance.sets:
        raise InvalidInstance("instance has no sets")
    for i, entry in enumerate(instance.sets):
        els = entry.elements
        if not els:
            raise EmptySet(f"set {i} is empty", set_index=i)
        if not (1 <= els[0] and els[-1] <= m and all(map(lt, els, els[1:]))):
            prev = 0  # find the first violation in reading order
            for e in els:
                if not 1 <= e <= m:
                    raise ElementOutOfRange(f"set {i} contains element {e} outside 1..{m}",
                                            set_index=i)
                if e <= prev:
                    raise InvalidInstance(f"set {i} elements not sorted/duplicate-free",
                                          set_index=i)
                prev = e
        if entry.weight < 0:
            raise NegativeWeight(
                f"set {i} has negative weight {entry.weight}", set_index=i
            )
    entries = sum(entry.size for entry in instance.sets)
    if entries < m:  # some element is missing: find the lowest without masks
        present = {e for entry in instance.sets for e in entry.elements if e <= entries + 1}
        missing = min(set(range(1, entries + 2)) - present)
    else:
        masks = _build_masks(instance)
        union = 0
        for mask in masks:
            union |= mask
        # lowest clear bit of the union; no integer wider than the largest element
        missing = ((union + 1) & ~union).bit_length()
    if missing <= m:
        raise UnionNotUniverse(
            f"element {missing} is covered by no set", missing_element=missing
        )
    weights, denom = _over_lcm([entry.weight for entry in instance.sets])
    instance.__dict__["_view"] = (masks, tuple(weights), denom)


def _build_masks(instance: Instance) -> list[int]:
    """Per-set bitmasks from one vectorized O(size) pass over all elements."""
    sets = instance.sets
    if instance.m <= 64:  # one-word masks: plain shifts beat numpy's fixed cost
        return [sum(1 << (e - 1) for e in entry.elements) for entry in sets]
    sizes = np.fromiter(map(len, (entry.elements for entry in sets)), np.int64, len(sets))
    pos = np.fromiter(chain.from_iterable(entry.elements for entry in sets),
                      np.int32, int(sizes.sum()))  # temporaries: about 10 bytes per element
    pos -= 1
    if pos.size and pos.min() < 0:
        raise ValueError("element ids must be positive")
    width = int(pos.max()) // 8 + 1 if pos.size else 1  # bytes per mask
    bit = np.left_shift(np.uint8(1), pos.astype(np.uint8) & 7)
    pos >>= 3  # now the byte of each element within its set's mask
    packed = np.zeros((len(sets), width), np.uint8)
    np.bitwise_or.at(packed, (np.repeat(np.arange(len(sets), dtype=np.int32), sizes), pos), bit)
    raw = packed.tobytes()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def element_masks(instance: Instance) -> list[int]:
    """Per-set bitmasks with bit (e-1) set for each element e.

    A validated instance hands out the masks validation built; every call
    returns a fresh list the caller may mutate.
    """
    view = instance.__dict__.get("_view")
    return _build_masks(instance) if view is None else list(view[0])


def element_sets(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Entry e-1 lists the sets holding element e, ascending; built once."""
    validate(instance)
    holders = instance.__dict__.get("_holders")
    if holders is None:
        lists = [[] for _ in range(instance.m)]
        for i, entry in enumerate(instance.sets):
            for e in entry.elements:
                lists[e - 1].append(i)
        holders = instance.__dict__["_holders"] = tuple(map(tuple, lists))
    return holders


def require_positive_weights(instance: Instance) -> tuple[tuple[int, ...], int]:
    """The validated weights as integers over their common denominator.

    Raises NonPositiveWeight for the first weight <= 0.
    """
    validate(instance)
    _, weights, denom = instance.__dict__["_view"]
    if 0 in weights:  # validation rejected negative weights
        i = weights.index(0)
        raise NonPositiveWeight(f"set {i} has non-positive weight {instance.sets[i].weight}")
    return weights, denom


def _over_lcm(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def is_cover(instance: Instance, set_indices) -> bool:
    """True iff the union of the chosen sets equals {1..m}."""
    masks = element_masks(instance)
    union = 0
    for i in set_indices:
        if not 0 <= i < instance.n:
            raise IndexOutOfRange(f"set index {i} outside 0..{instance.n - 1}")
        union |= masks[i]
    return union == (1 << instance.m) - 1


def cover_weight(instance: Instance, set_indices) -> Fraction:
    return sum((instance.sets[i].weight for i in set_indices), Fraction(0))


def make_cover(instance: Instance, set_indices) -> Cover:
    """Build a Cover after checking it actually covers the universe."""
    idx = tuple(set_indices)
    if not is_cover(instance, idx):
        raise InvalidInstance("chosen sets do not cover the universe")
    return Cover(set_indices=idx, weight=cover_weight(instance, idx))


# ---------------------------------------------------------------------------
# weight scalars


def parse_weight(token: str) -> Fraction:
    """Parse a weight token: decimal ("5", "3.5") or rational ("7/2")."""
    return Fraction(token)


def format_weight(w: Fraction) -> str:
    """Integral weights print bare; everything else prints as "p/q"."""
    if w.denominator == 1:
        return str(w.numerator)
    return f"{w.numerator}/{w.denominator}"


# ---------------------------------------------------------------------------
# tokenizer shared by both parsers


class _Tokens:
    """Whitespace token stream; positions are worked out only for errors."""

    def __init__(self, text: str):
        self.text = text
        self.items = text.split()
        self.pos = 0

    def error(self, message: str, index: int | None = None) -> ScpSyntaxError:
        """An error at token `index` (default: the last read), located by a re-scan."""
        index = self.pos - 1 if index is None else index
        count = 0
        for ln, line in enumerate(self.text.splitlines(), start=1):
            col = 1
            for piece in line.split():
                col = line.index(piece, col - 1) + 1
                if count == index:
                    return ScpSyntaxError(message, ln, col)
                count += 1
                col += len(piece)
        return ScpSyntaxError(message, 1, 1)

    def next(self, what: str) -> str:
        if self.pos >= len(self.items):
            raise self.error(f"unexpected end of input, expected {what}",
                             len(self.items) - 1)
        self.pos += 1
        return self.items[self.pos - 1]

    def next_value(self, what: str, convert=int):
        tok = self.next(what)
        try:
            return convert(tok)
        except (ValueError, ZeroDivisionError):
            raise self.error(f"expected {what}, got {tok!r}") from None

    def peek_ints(self, count: int) -> list[int] | None:
        """The next `count` tokens (fewer at the end) as ints, unread; None on a non-int."""
        try:
            return list(map(int, self.items[self.pos:self.pos + count]))
        except ValueError:
            return None

    def at_end(self) -> bool:
        return self.pos >= len(self.items)


# ---------------------------------------------------------------------------
# native format


def parse_native(text: str, name: str | None = None) -> Instance:
    """Parse the native "scp 1" format; the result is validated."""
    toks = _Tokens(text)
    magic = toks.next("format magic")
    if magic != NATIVE_MAGIC:
        raise toks.error(f"expected {NATIVE_MAGIC!r} header, got {magic!r}")
    version = toks.next("format version")
    if version != NATIVE_VERSION:
        raise toks.error(f"unsupported version {version!r}")
    m = toks.next_value("universe size m")
    n = toks.next_value("set count n")
    sets = []
    for i in range(n):
        w = toks.next_value(f"weight of set {i}", parse_weight)
        k = toks.next_value(f"cardinality of set {i}")
        if k < 0:
            raise toks.error(f"negative cardinality for set {i}")
        elements = toks.peek_ints(k)
        if elements is None or len(set(elements)) < k:
            seen = set()  # re-read one at a time: raises the first error in order
            for j in range(k):
                e = toks.next_value(f"element {j} of set {i}")
                if e in seen:
                    raise toks.error(f"duplicate element {e} in set {i}")
                seen.add(e)
        toks.pos += k
        sets.append(SetEntry(tuple(sorted(elements)), w))
    if not toks.at_end():
        tok = toks.next("end of input")
        raise toks.error(f"trailing token {tok!r}")
    instance = Instance(m=m, sets=tuple(sets), name=name)
    validate(instance)
    return instance


def write_native(instance: Instance) -> str:
    """Emit the native format; inverse of parse_native on valid instances."""
    validate(instance)
    lines = [f"{NATIVE_MAGIC} {NATIVE_VERSION}", f"{instance.m} {instance.n}"]
    for entry in instance.sets:
        parts = [format_weight(entry.weight), str(entry.size)]
        parts.extend(str(e) for e in entry.elements)
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# OR-Library format (element-major; transposed on read)


def parse_orlib(text: str, name: str | None = None) -> Instance:
    """Parse the OR-Library set-covering format into a set-major Instance."""
    toks = _Tokens(text)
    m = toks.next_value("row count m")
    n = toks.next_value("column count n")
    if m < 1 or n < 1:
        raise ScpSyntaxError("m and n must be positive")
    costs = [toks.next_value(f"cost of column {i}", parse_weight) for i in range(n)]
    columns: list[list[int]] = [[] for _ in range(n)]
    for row in range(1, m + 1):
        c = toks.next_value(f"cover count of row {row}")
        if c < 1:
            raise UnionNotUniverse(
                f"element {row} is covered by no column", missing_element=row
            )
        cols = toks.peek_ints(c)
        if cols is None or len(set(cols)) < c or not 1 <= min(cols) <= max(cols) <= n:
            seen = set()  # re-read one at a time: raises the first error in order
            for j in range(c):
                col_idx = toks.next_value(f"column {j} covering row {row}")
                if not 1 <= col_idx <= n:
                    raise toks.error(f"column index {col_idx} outside 1..{n}")
                if col_idx in seen:
                    raise toks.error(f"row {row} lists column {col_idx} twice")
                seen.add(col_idx)
        toks.pos += c
        for col_idx in cols:
            columns[col_idx - 1].append(row)
    if not toks.at_end():
        tok = toks.next("end of input")
        raise toks.error(f"trailing token {tok!r}")
    sets = tuple(SetEntry(tuple(els), w) for els, w in zip(columns, costs))
    instance = Instance(m=m, sets=sets, name=name)
    validate(instance)
    return instance


def detect_format(text: str) -> str:
    """Sniff "native" vs "orlib" from the first token."""
    head = text.lstrip()[: len(NATIVE_MAGIC)]
    return "native" if head == NATIVE_MAGIC else "orlib"
