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

Both parsers read a well-formed file in bulk: one str.split(), a walk over
the weight and count tokens alone (n sets, or m rows), and one numpy pass
from the element tokens to a flat int64 array (for OR-Library, transposed
by a stable argsort).  A plain ASCII "p" or "p/q" weight is read by int();
other weights go through parse_weight.  When the bulk read finds anything
out of place, a token walk re-reads the text only to raise the first
error, with the message, line and column the per-token parser gave.
validate() checks the flat arrays vectorized, names a violation by an
ordered scan of the sets, builds the bitmasks from the arrays and drops
them.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from functools import reduce
from operator import lt, or_
from typing import NoReturn

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
    __dict__, not in the fields.  A parser leaves its flat element arrays
    there for validate, which drops them.
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
    then global coverage of the universe.  Past m = 64 the checks run
    vectorized over the flat element arrays (the parser's, or built from
    the sets), and the ordered per-set scan runs only to name the first
    violation; up to 64 the scan and one-word masks are cheaper than
    numpy's fixed cost.  Success is memoized, with masks and the weights as
    integers over their common denominator; the arrays are dropped.
    """
    memo = instance.__dict__
    if "_view" in memo:
        return
    flat = memo.pop("_flat", None)
    m = instance.m
    if m < 1:
        raise InvalidInstance(f"universe size must be >= 1, got {m}")
    if not instance.sets:
        raise InvalidInstance("instance has no sets")
    weights, denom = _over_lcm([entry.weight for entry in instance.sets])
    masks = None
    if m <= 64:
        _raise_first_violation(instance)
        masks = [sum(1 << (e - 1) for e in entry.elements) for entry in instance.sets]
        union = reduce(or_, masks)
        missing = ((union + 1) & ~union).bit_length()  # the lowest clear bit
    else:
        try:
            indptr, elements = flat or _flatten(instance.sets)
        except OverflowError:  # an id past int64 is out of range, or m is past int64 too
            _raise_first_violation(instance)
            indptr, elements = _flatten(instance.sets, cap=2**62)
        if not np.diff(indptr).all() or int(elements.min()) < 1 \
                or int(elements.max()) > m or min(weights) < 0 or _unsorted(indptr, elements):
            _raise_first_violation(instance)
        # flags for 1..min(m, entries + 1), never m of them: fewer entries
        # than m leave a gap at or below entries + 1
        bound = min(m, elements.size + 1)
        present = np.zeros(bound + 2, bool)
        present[0] = True
        present[elements[elements <= bound]] = True
        missing = int(present.argmin())  # bound + 1 when 1..bound are all held
    if missing <= m:
        raise UnionNotUniverse(
            f"element {missing} is covered by no set", missing_element=missing
        )
    if masks is None:
        masks = _masks(indptr, elements)
    memo["_view"] = (masks, tuple(weights), denom)


def _raise_first_violation(instance: Instance) -> None:
    """Scan the sets in order and raise the first per-set violation, if any."""
    m = instance.m
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


def _flatten(sets, cap=None) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, elements): set i holds elements[indptr[i]:indptr[i + 1]].

    Ids past int64 raise OverflowError, unless `cap` is given: then every
    id above it reads as `cap`.
    """
    indptr = _sizes_to_indptr(np.fromiter(map(len, (entry.elements for entry in sets)),
                                          np.int64, len(sets)))
    ids = chain.from_iterable(entry.elements for entry in sets)
    if cap is not None:
        ids = (min(e, cap) for e in ids)
    return indptr, np.fromiter(ids, np.int64, int(indptr[-1]))


def _unsorted(indptr: np.ndarray, elements: np.ndarray) -> bool:
    """True if some set's elements do not strictly increase."""
    step = np.diff(elements)
    cuts = indptr[1:-1]
    step[cuts[(cuts > 0) & (cuts < elements.size)] - 1] = 1  # steps from one set to the next
    return bool((step <= 0).any())


def _masks(indptr: np.ndarray, elements: np.ndarray) -> list[int]:
    """Per-set bitmasks, each packed over its own byte span and shifted into place.

    The buffer holds one byte per set plus the bytes of the spans, so a
    far singleton costs no more than the mask it becomes.
    """
    pos = elements - 1
    if pos.size and pos.min() < 0:
        raise ValueError("element ids must be positive")
    bits = np.left_shift(np.uint8(1), pos.astype(np.uint8) & 7)
    pos >>= 3  # now the byte of each element within its mask
    sizes = np.diff(indptr)
    full = sizes > 0
    lo = np.zeros(sizes.size, np.int64)
    width = np.zeros(sizes.size, np.int64)  # empty sets span no bytes
    starts = indptr[:-1][full]
    lo[full] = np.minimum.reduceat(pos, starts)
    width[full] = np.maximum.reduceat(pos, starts) - lo[full] + 1
    offset = _sizes_to_indptr(width)
    pos += np.repeat(offset[:-1] - lo, sizes)  # now the byte within the buffer
    packed = np.zeros(int(offset[-1]), np.uint8)
    np.bitwise_or.at(packed, pos, bits)
    raw = packed.tobytes()
    bounds = offset.tolist()
    return [int.from_bytes(raw[a:b], "little") << shift
            for a, b, shift in zip(bounds, bounds[1:], (lo << 3).tolist())]


def element_masks(instance: Instance) -> list[int]:
    """Per-set bitmasks with bit (e-1) set for each element e.

    A validated instance hands out the masks validation built; every call
    returns a fresh list the caller may mutate.
    """
    view = instance.__dict__.get("_view")
    return _masks(*_flatten(instance.sets)) if view is None else list(view[0])


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
    """Parse a weight token: decimal ("5", "3.5", "1e3") or rational ("7/2").

    An exponent past sys.get_int_max_str_digits() is refused, as int()
    refuses that many digits: 10**exponent would take seconds to build.
    """
    if "e" in token or "E" in token:
        limit = sys.get_int_max_str_digits()
        try:
            exponent = int(token.lower().rpartition("e")[2])
        except ValueError:
            exponent = 0  # not a number's exponent: Fraction rejects the literal
        if limit and abs(exponent) > limit:
            raise ValueError(f"exponent of {token!r} is past the {limit}-digit limit")
    return Fraction(token)


def format_weight(w: Fraction) -> str:
    """Integral weights print bare; everything else prints as "p/q"."""
    if w.denominator == 1:
        return str(w.numerator)
    return f"{w.numerator}/{w.denominator}"


def decode_text(data: bytes) -> str:
    """A file's bytes as text: both formats are UTF-8, and other bytes are a parse error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScpSyntaxError(f"not UTF-8: byte 0x{data[exc.start]:02x} "
                             f"at offset {exc.start}") from None


# ---------------------------------------------------------------------------
# bulk reads shared by both parsers


def _ints(tokens: list[str]) -> np.ndarray | None:
    """The tokens as int() reads them, in one int64 array; None if one is not
    an integer or lies past int64."""
    text = " ".join(tokens)
    values = None
    if "-" not in text and "+" not in text:  # numpy reads a lone sign as 0
        try:
            with warnings.catch_warnings():
                # numpy stops at the first token that is not a number: by
                # version it warns (DeprecationWarning) or raises ValueError
                warnings.simplefilter("error", DeprecationWarning)
                values = np.fromstring(text, dtype=np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            pass
    if values is None or values.size != len(tokens) or (values.size and values.max() >= 2**62):
        # int() reads signs, "_" and non-ASCII digits; numpy saturates past int64
        try:
            values = np.array(list(map(int, tokens)), dtype=np.int64)
        except (ValueError, OverflowError):
            return None
    return values


def _weights(tokens) -> list[Fraction]:
    """parse_weight of each token, worked out once per distinct token; a
    plain ASCII "p" or "p/q" is read by int() alone."""
    tokens = list(tokens)
    value = {}
    for tok in set(tokens):
        p, slash, q = tok.partition("/")
        if p.isascii() and p.isdigit() and (not slash or q.isascii() and q.isdigit()):
            value[tok] = Fraction(int(p), int(q) if slash else 1)
        else:
            value[tok] = parse_weight(tok)
    return list(map(value.__getitem__, tokens))


def _tokens_at(items: list[str], starts: list[int], sizes: list[int]) -> list[str]:
    """items[a:a + k] for each start a and size k, end to end."""
    return list(chain.from_iterable(items[a:a + k] for a, k in zip(starts, sizes)))


def _sizes_to_indptr(sizes) -> np.ndarray:
    indptr = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def _parsed(m, weights, indptr, elements, name) -> Instance:
    """The parsed instance; its flat arrays stay for validate, which drops them."""
    values = iter(elements.tolist())
    sets = tuple(SetEntry(tuple(islice(values, k)), w)
                 for k, w in zip(np.diff(indptr).tolist(), weights))
    instance = Instance(m=m, sets=sets, name=name)
    instance.__dict__["_flat"] = (indptr, elements)
    return instance


class _Tokens:
    """Whitespace token stream for the error walks; positions are worked out
    only for the error raised."""

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

    def end(self) -> None:
        if self.pos < len(self.items):
            tok = self.next("end of input")
            raise self.error(f"trailing token {tok!r}")


# ---------------------------------------------------------------------------
# native format


def parse_native(text: str, name: str | None = None) -> Instance:
    """Parse the native "scp 1" format; the result is validated."""
    instance = _read_native(text, name)
    if instance is None:
        _walk_native(text)
    validate(instance)
    return instance


def _read_native(text: str, name: str | None) -> Instance | None:
    """The bulk read; None when a token is out of place or not a number."""
    items = text.split()
    if items[:2] != [NATIVE_MAGIC, NATIVE_VERSION]:
        return None
    try:
        m, n = int(items[2]), int(items[3])
        starts, sizes = [], []  # of each set's elements
        at = 4
        for _ in range(n):
            k = int(items[at + 1])
            if k < 0:
                return None
            starts.append(at + 2)
            sizes.append(k)
            at += 2 + k
        weights = _weights(items[a - 2] for a in starts)
    except (IndexError, ValueError, ZeroDivisionError):
        return None
    elements = _ints(_tokens_at(items, starts, sizes)) if at == len(items) else None
    del items  # the token strings outweigh the instance built below
    if elements is None:
        return None
    indptr = _sizes_to_indptr(sizes)
    if _unsorted(indptr, elements):  # each set is sorted; a repeated element is an error
        elements = elements[np.lexsort((elements, np.repeat(np.arange(n), sizes)))]
        if _unsorted(indptr, elements):
            return None
    return _parsed(m, weights, indptr, elements, name)


def _walk_native(text: str) -> NoReturn:
    """Raise the first error of a text the bulk read rejected, token by token."""
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
        elements = set()
        for j in range(k):
            e = toks.next_value(f"element {j} of set {i}")
            if e in elements:
                raise toks.error(f"duplicate element {e} in set {i}")
            elements.add(e)
        sets.append(SetEntry(tuple(sorted(elements)), w))
    toks.end()
    # an element past int64 gets here with no syntax error; validation names it
    validate(Instance(m=m, sets=tuple(sets)))
    raise AssertionError("the bulk read rejected a valid native text")


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
    instance = _read_orlib(text, name)
    if instance is None:
        _walk_orlib(text)
    validate(instance)
    return instance


def _read_orlib(text: str, name: str | None) -> Instance | None:
    """The bulk read; None when a token is out of place or not a number, a
    column index is out of range or repeated in a row, or a row is uncovered."""
    items = text.split()
    try:
        m, n = int(items[0]), int(items[1])
        if m < 1 or n < 1 or len(items) < 2 + n:
            return None
        costs = _weights(items[2:2 + n])
        starts, counts = [], []  # of each row's columns
        at = 2 + n
        for _ in range(m):
            c = int(items[at])
            if c < 1:
                return None
            starts.append(at + 1)
            counts.append(c)
            at += 1 + c
    except (IndexError, ValueError, ZeroDivisionError):
        return None
    cols = _ints(_tokens_at(items, starts, counts)) if at == len(items) else None
    del items  # the token strings outweigh the instance built below
    if cols is None or not 1 <= int(cols.min()) <= int(cols.max()) <= n:
        return None
    cols -= 1
    # rows ascend, so a stable sort by column lists each column's rows in order
    rows = np.repeat(np.arange(1, m + 1), counts)
    elements = rows[np.argsort(cols, kind="stable")]
    indptr = _sizes_to_indptr(np.bincount(cols, minlength=n))
    if _unsorted(indptr, elements):  # a row lists a column twice
        return None
    return _parsed(m, costs, indptr, elements, name)


def _walk_orlib(text: str) -> NoReturn:
    """Raise the first error of a text the bulk read rejected, token by token."""
    toks = _Tokens(text)
    m = toks.next_value("row count m")
    n = toks.next_value("column count n")
    if m < 1 or n < 1:
        raise ScpSyntaxError("m and n must be positive")
    for i in range(n):
        toks.next_value(f"cost of column {i}", parse_weight)
    for row in range(1, m + 1):
        c = toks.next_value(f"cover count of row {row}")
        if c < 1:
            raise UnionNotUniverse(
                f"element {row} is covered by no column", missing_element=row
            )
        seen = set()
        for j in range(c):
            col_idx = toks.next_value(f"column {j} covering row {row}")
            if not 1 <= col_idx <= n:
                raise toks.error(f"column index {col_idx} outside 1..{n}")
            if col_idx in seen:
                raise toks.error(f"row {row} lists column {col_idx} twice")
            seen.add(col_idx)
    toks.end()
    # the bulk read rejects only what this walk raises on: a column index
    # past int64 is out of range here too
    raise AssertionError("the bulk read rejected a valid OR-Library text")


def detect_format(text: str) -> str:
    """Sniff "native" vs "orlib" from the first token."""
    head = text.lstrip()[: len(NATIVE_MAGIC)]
    return "native" if head == NATIVE_MAGIC else "orlib"
