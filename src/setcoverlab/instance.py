"""Weighted set-cover instance model, validation and file I/O.

An instance is a universe {1..m} together with an ordered collection of
weighted subsets whose union is the whole universe.  Weights are integer
numerators over one (least common) denominator, so that every comparison
downstream is exact, never a float one; Fractions exist only at the API.

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

Each format has one reader, a numpy scan of an ASCII stand-in of the text
(_Scan) in blocks of SCAN_BLOCK bytes cut after a separator, so its arrays
per byte and per token stay block-sized.  It keeps the value of each plain
token (1 to 18 ASCII digits, read eight at a time) and the spans of the
others, with p and q of a "p/q" read the same way.  A walk over the count
tokens places the weights, one p/q per distinct value, and a mask takes
the elements (OR-Library's transposed by one in-place sort); int() and
parse_weight read the tokens that are not plain.  The reader raises the
first fault its checks find in reading order, with its line and column;
it checks the header (magic, version, m and n; OR-Library's m and n) on
the first block, before it scans the rest, since no fault can come before
a header token's.  write_native writes the ids in blocks too (_id_text).

Every instance is read as flat arrays and weights (_arrays): a parsed or
generated one holds them and builds its SetEntry tuple only when .sets is
first read; one built from SetEntry tuples flattens them once.  Each view is
built from the arrays once, on first use, by its owner: validate() only
checks them and keeps the weights, element_masks() builds the bitmasks,
and element_sets() the holders, in the element-major order (_by_element)
the LP's sums also use.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, pairwise
from numbers import Integral
from operator import itemgetter, lt

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


@dataclass(frozen=True, slots=True)
class SetEntry:
    """One candidate set: a sorted tuple of element ids plus its weight."""

    elements: tuple[int, ...]
    weight: Fraction

    @property
    def size(self) -> int:
        return len(self.elements)

    def __setstate__(self, state):
        # a pickle written before the slots holds the entry's __dict__
        if isinstance(state, dict):
            state = (state["elements"], state["weight"])
        object.__setattr__(self, "elements", state[0])
        object.__setattr__(self, "weight", state[1])


@dataclass(frozen=True)
class Instance:
    """A validated-on-demand set-cover instance over the universe {1..m}.

    Memos live in __dict__, not in the fields: the flat arrays and weights
    (numerators, denominator) "_csr", the same weights once valid
    "_int_weights", the bitmasks "_masks" and the holders "_holders".  A
    parsed or generated instance holds its sets only as "_csr", and builds
    the sets field from it on first read; one built from sets adds "_csr".
    """

    m: int
    sets: tuple[SetEntry, ...]
    name: str | None = None

    @property
    def n(self) -> int:
        csr = self.__dict__.get("_csr")  # so a bad weight fails in validate, not here
        return len(self.sets) if csr is None else csr[0].size - 1

    def __getattr__(self, attr):
        # only a missing attribute gets here: the sets of a parsed instance
        if attr != "sets" or "_csr" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        sets = self.__dict__["sets"] = _entries(*self._csr)
        return sets

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

    Checked per set, in order: non-emptiness, each element an integer in
    range and above the one before, weight sign; then global coverage of the
    universe.  The checks run vectorized over the flat arrays, and the
    ordered per-set scan runs only to name the first violation.  Success is
    memoized as the weights, integers over their least common denominator.
    """
    memo = instance.__dict__
    if "_int_weights" in memo:
        return
    m = instance.m
    if m < 1:
        raise InvalidInstance(f"universe size must be >= 1, got {m}")
    if not instance.n:
        raise InvalidInstance("instance has no sets")
    indptr, elements, weights = _arrays(instance)
    if not (indptr[1:] > indptr[:-1]).all() or int(elements.min()) < 1 \
            or int(elements.max()) > m or min(weights[0]) < 0 or _falls(indptr, elements).any():
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
    memo["_int_weights"] = weights


def _raise_first_violation(instance: Instance) -> None:
    """Scan the sets in order and raise the first per-set violation, if any."""
    m = instance.m
    for i, entry in enumerate(instance.sets):
        els = entry.elements
        if not els:
            raise EmptySet(f"set {i} is empty", set_index=i)
        if not (all(isinstance(e, Integral) for e in els) and 1 <= els[0] and els[-1] <= m
                and all(map(lt, els, els[1:]))):
            prev = 0  # find the first violation in reading order
            for e in els:
                if not isinstance(e, Integral):
                    raise InvalidInstance(f"set {i} contains element {e!r}, not an integer",
                                          set_index=i)
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


def _arrays(instance: Instance) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(indptr, elements, (numerators, denom)): a parser's or generator's, or the sets' once."""
    memo = instance.__dict__
    if "_csr" not in memo:
        sets = instance.sets
        memo["_csr"] = (*_flatten(sets), _over_lcm([entry.weight for entry in sets]))
    return memo["_csr"]


def _flatten(sets) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, elements): set i holds elements[indptr[i]:indptr[i + 1]].

    An id that is not an integer, or is past int64, reads as 0: validate's
    range check then hands the sets to the ordered scan, which names the id,
    and an id past int64 that is in range lies above any gap coverage finds.
    """
    indptr = _sizes_to_indptr([len(entry.elements) for entry in sets])
    ids = list(chain.from_iterable(entry.elements for entry in sets))
    try:
        if type(sum(ids)) is int:  # not for a float, Fraction or numpy id; a str raises
            return indptr, np.fromiter(ids, np.int64, len(ids))
    except (TypeError, OverflowError):  # a str id; an id past int64
        pass
    return indptr, np.fromiter((e if isinstance(e, Integral) and -2**63 <= e < 2**63 else 0
                                for e in ids), np.int64, len(ids))


def _falls(indptr: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """falls[i]: element i is not above element i - 1 of its set; one more entry, False."""
    falls = np.zeros(elements.size + 1, bool)
    np.less_equal(elements[1:], elements[:-1], out=falls[1:-1])
    falls[indptr] = False  # the first element of each set
    return falls


MASK_BLOCK = 1 << 16  # span bytes packed at a time by _masks


def _masks(indptr: np.ndarray, elements: np.ndarray) -> list[int]:
    """Per-set bitmasks, each packed over its own byte span and shifted into place.

    The spans are packed by np.packbits from one bool per bit, a block of
    sets at a time, so the bools stay near 8 x MASK_BLOCK (or one set's
    span) while the packed bytes hold only the spans: a far singleton
    costs no more than the mask it becomes.  When no set is empty and no
    element is past 64, each mask is one word, ORed in place.
    """
    pos = elements - 1
    if pos.size and pos.min() < 0:
        raise ValueError("element ids must be positive")
    sizes = indptr[1:] - indptr[:-1]
    full = sizes > 0
    if pos.size and pos.max() < 64 and full.all():  # one word per mask: OR each set's bits
        return np.bitwise_or.reduceat(np.left_shift(np.uint64(1), pos.astype(np.uint64)),
                                      indptr[:-1]).tolist()
    lo = np.zeros(sizes.size, np.int64)  # each span's first byte
    width = np.zeros(sizes.size, np.int64)  # empty sets span no bytes
    starts = indptr[:-1][full]
    lo[full] = np.minimum.reduceat(pos, starts) >> 3
    width[full] = (np.maximum.reduceat(pos, starts) >> 3) - lo[full] + 1
    offset = _sizes_to_indptr(width)
    pos += ((offset[:-1] - lo) << 3).repeat(sizes)  # now the bit within the buffer
    bounds = offset.tolist()
    # a block ends at the last set whose span ends in each MASK_BLOCK of bytes
    cuts = [0, *(np.flatnonzero(np.diff(offset[1:] // MASK_BLOCK)) + 1).tolist(), sizes.size]
    packed = np.empty(bounds[-1], np.uint8)
    for a, b in zip(cuts, cuts[1:]):
        bits = np.zeros(8 * (bounds[b] - bounds[a]), bool)
        bits[pos[indptr[a]:indptr[b]] - 8 * bounds[a]] = True
        packed[bounds[a]:bounds[b]] = np.packbits(bits, bitorder="little")
    raw = packed.tobytes()
    return [int.from_bytes(raw[a:b], "little") << shift
            for a, b, shift in zip(bounds, bounds[1:], (lo << 3).tolist())]


def element_masks(instance: Instance) -> list[int]:
    """Per-set bitmasks with bit (e-1) set for each element e.

    Built from the flat arrays on the first call; every call returns a
    fresh list the caller may mutate.
    """
    memo = instance.__dict__
    if "_masks" not in memo:
        memo["_masks"] = _masks(*_arrays(instance)[:2])
    return list(memo["_masks"])


def _by_element(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(holders, starts): holders[starts[e - 1]:starts[e]] are the sets
    holding element e, ascending; one stable argsort of a validated
    instance's flat elements."""
    indptr, elements, _ = _arrays(instance)
    # the set of each entry in element-major order, in few numpy calls:
    # on small instances each costs 5-25 us when cold (after a gc pass)
    holders = indptr[1:].searchsorted(np.argsort(elements, kind="stable"), "right")
    return holders, np.bincount(elements, minlength=instance.m + 1).cumsum()


def element_sets(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Entry e-1 lists the sets holding element e, ascending; built once."""
    validate(instance)
    holders = instance.__dict__.get("_holders")
    if holders is None:
        flat, starts = _by_element(instance)
        flat = flat.tolist()
        holders = instance.__dict__["_holders"] = tuple(
            tuple(flat[a:b]) for a, b in pairwise(starts.tolist()))
    return holders


def _set_loads(instance: Instance, values) -> np.ndarray:
    """Per set, the sum of values[e - 1] over its elements e.

    The sums run over an object array, so Python ints stay exact.  Reads
    the flat arrays of a validated instance (no set is empty).
    """
    indptr, elements, _ = _arrays(instance)
    return np.add.reduceat(np.array(values, object)[elements - 1], indptr[:-1])


def _element_coverage(instance: Instance, values) -> np.ndarray:
    """Per element, the sum of values[i] over the sets i holding it.

    Exact for Python ints, like _set_loads; every element of a validated
    instance has a holder.
    """
    holders, starts = _by_element(instance)
    return np.add.reduceat(np.array(values, object)[holders], starts[:-1])


def set_sizes(instance: Instance) -> list[int]:
    """The number of elements of each set, in order."""
    return np.diff(_arrays(instance)[0]).tolist()


def require_positive_weights(instance: Instance) -> tuple[tuple[int, ...], int]:
    """The validated weights, (numerators, least common denominator); raises
    NonPositiveWeight for the first weight 0."""
    validate(instance)
    weights, denom = instance.__dict__["_int_weights"]
    if 0 in weights:  # validation rejected negative weights
        raise NonPositiveWeight(f"set {weights.index(0)} has non-positive weight 0")
    return weights, denom


def _over_lcm(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over their least common denominator."""
    pairs = [v.as_integer_ratio() for v in values]
    denom = math.lcm(*[d for _, d in pairs])
    return tuple([p * (denom // d) for p, d in pairs]), denom


def is_cover(instance: Instance, set_indices) -> bool:
    """True iff the union of the chosen sets equals {1..m}; validates the instance."""
    validate(instance)
    masks = element_masks(instance)
    union = 0
    for i in set_indices:
        if not 0 <= i < instance.n:
            raise IndexOutOfRange(f"set index {i} outside 0..{instance.n - 1}")
        union |= masks[i]
    return union == (1 << instance.m) - 1


def cover_weight(instance: Instance, set_indices) -> Fraction:
    """The total weight of the chosen sets; validates the instance."""
    validate(instance)
    weights, denom = instance.__dict__["_int_weights"]
    return Fraction(sum(weights[i] for i in set_indices), denom)


def make_cover(instance: Instance, set_indices) -> Cover:
    """Build a Cover after checking it actually covers the universe."""
    idx = tuple(set_indices)
    if not is_cover(instance, idx):
        raise InvalidInstance("chosen sets do not cover the universe")
    return Cover(set_indices=idx, weight=cover_weight(instance, idx))


# ---------------------------------------------------------------------------
# weight scalars


_DIGIT_RUN = re.compile(r"\d[\d_]*")  # digits, and the "_" int() takes between them


def parse_weight(token: str) -> Fraction:
    """Parse a weight token: decimal ("5", "3.5", "1e3") or rational ("7/2").

    A run of digits past sys.get_int_max_str_digits() is refused at once, as
    int() refuses it (Fraction builds 10**len(digits) of a fraction first);
    so is an exponent past it, since 10**exponent would take seconds to build.
    """
    limit = sys.get_int_max_str_digits()
    if limit and len(token) > limit and any(
            len(run) - run.count("_") > limit for run in _DIGIT_RUN.findall(token)):
        raise ValueError(f"a run of digits is past the {limit}-digit limit")
    if limit and ("e" in token or "E" in token):
        try:
            exponent = int(token.lower().rpartition("e")[2])
        except ValueError:
            exponent = 0  # not a number's exponent: Fraction rejects the literal
        if abs(exponent) > limit:
            raise ValueError(f"exponent of {token!r} is past the {limit}-digit limit")
    return Fraction(token)


def format_weight(w: Fraction | int, denom: int = 1) -> str:
    """w / denom, reduced by one gcd: integral ones print bare, others as "p/q"."""
    p, q = w.numerator, w.denominator * denom
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def decode_text(data: bytes) -> str:
    """A file's bytes as text: both formats are UTF-8, and other bytes are a parse error."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScpSyntaxError(f"not UTF-8: byte 0x{data[exc.start]:02x} "
                             f"at offset {exc.start}") from None


# ---------------------------------------------------------------------------
# the byte scan both parsers read with

# the ASCII bytes str.split() separates at, and those str.splitlines() breaks
# lines at; bytes.translate tables: 1 for such a separator, and 1 for a byte
# that is neither a separator nor a digit
_SEPARATORS = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e"
_SEPARATOR = bytes(chr(b) in _SEPARATORS for b in range(256))
_OTHER = bytes(not (_SEPARATOR[b] or 48 <= b <= 57) for b in range(256))
_NEXT_SEPARATOR = re.compile(f"[{re.escape(_SEPARATORS)}]")
_TOKEN = re.compile(f"[^{re.escape(_SEPARATORS)}]+")
# the characters past ASCII str.isspace() holds for; the first three break lines
_WIDE_SPACE = re.compile("[\x85\u2028\u2029\xa0\u1680\u2000-\u200a\u202f\u205f\u3000]")
_PLAIN_DIGITS = 18  # 10**18 - 1 < 2**63: every plain token fits in int64
_LONGEST_READ = 2 * _PLAIN_DIGITS + 1  # a "p/q"; no longer token is plain or read as one
# _KEEP[j][k]: for a run of k digits, a mask of the low nibbles of its bytes
# in the word (8 bytes) that ends 8 * j bytes before the run does
_KEEP = tuple(np.array([0x0F0F0F0F0F0F0F0F << 8 * (8 - min(k - 8 * j, 8)) & 2**64 - 1
                        if k > 8 * j else 0 for k in range(_PLAIN_DIGITS + 1)], np.uint64)
              for j in range(3))
SCAN_BLOCK = 1 << 16  # bytes of text per block of the scan


def _blocks(text: str):
    """(offset, values, odd) of each block of an ASCII text, in order: the
    block's _scan_block, with token indices and spans counted from its start.

    A block is SCAN_BLOCK bytes cut just after its last separator, so no
    token spans two; it is longer only to end a token longer than that.  A
    token longer than both SCAN_BLOCK and _LONGEST_READ is one block with
    no arrays per byte: one token that is not plain, its span, and no p/q.
    The last block is the rest of the text, which may be empty.
    """
    at = 0
    while at + SCAN_BLOCK < len(text):
        raw = text[at:at + SCAN_BLOCK].encode("ascii")
        seps = raw.translate(_SEPARATOR)
        cut = seps.rfind(1) + 1
        if not cut:  # one token, longer than the block, starts at `at`
            after = _NEXT_SEPARATOR.search(text, at + SCAN_BLOCK)
            cut = (after.start() if after else len(text)) - at
            if cut > max(SCAN_BLOCK, _LONGEST_READ):
                span = np.array([[0], [0], [cut], [-1], [-1]], np.int64)  # as _scan_block's odd
                yield at, np.full(1, -1, np.int64), span
                at += cut
                continue
            raw = text[at:at + cut].encode("ascii")
            seps = raw.translate(_SEPARATOR)
        yield at, *_scan_block(raw[:cut], seps[:cut])
        at += cut
    raw = text[at:].encode("ascii")
    yield at, *_scan_block(raw, raw.translate(_SEPARATOR))


def _scan_block(raw: bytes, seps: bytes) -> tuple[np.ndarray, np.ndarray]:
    """_Scan.read's (values, odd) for one block, with token indices and
    spans counted from its start."""
    sep = np.frombuffer(b"\x01" + seps + b"\x01", bool)  # byte i + 1 is raw[i]
    edges = (sep[1:] != sep[:-1]).nonzero()[0]
    starts, ends = edges[::2], edges[1::2]
    size = ends - starts
    other = np.frombuffer(raw.translate(_OTHER), bool).nonzero()[0]
    token = ends.searchsorted(other, "right")  # the token of each such byte
    size[token] = 0
    ratio = None
    if b"/" in raw:
        # a "p/q" token whose only byte that is no digit is the "/": p and q
        # are read as two more runs of digits, after the tokens
        slash = ((np.bincount(token)[token] == 1) & (np.frombuffer(raw, np.uint8)[other] == 47)
                 ).nonzero()[0]
        pos, ratio = other[slash], token[slash]
        last = ends[ratio]
        size = np.concatenate([size, pos - starts[ratio], last - pos - 1])
        ends = np.concatenate([ends, pos, last])
    size[size > _PLAIN_DIGITS] = 0  # a run of 0 digits, or of more than 18, is not read
    values = _decode(raw, ends, size)
    tokens = values[:starts.size]
    at = (tokens < 0).nonzero()[0]
    odd = np.full((5, at.size), -1, np.int64)
    odd[0] = at
    odd[1] = starts[at]
    odd[2] = ends[at]
    if ratio is not None:
        odd[3:, at.searchsorted(ratio)] = values[starts.size:].reshape(2, -1)
    return tokens, odd


def _decode(raw: bytes, ends: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The integer of each run of size[i] ASCII digits that ends just before
    raw[ends[i]], or -1 where size[i] is 0; no size is past 18.

    Eight digits at a time, in a few calls for any mix of lengths: the
    eight bytes before a run's end are loaded as one little-endian word,
    the bytes left of the run are masked off, and three multiply-shift
    steps fold the digits into their value (Lemire's SWAR parse of eight
    digits, as in simdjson).
    """
    words = np.ndarray((len(raw) + 1,), "<u8", b"\0" * 8 + raw, 0, (1,))  # word i ends at raw[i]
    values = _fold(words[ends] & _KEEP[0][size])
    for j in (1, 2):  # the runs of more than 8, then of more than 16 digits
        long = (size > 8 * j).nonzero()[0]
        if not long.size:
            break
        values[long] += _fold(words[ends[long] - 8 * j] & _KEEP[j][size[long]]) * 10 ** (8 * j)
    values = values.view(np.int64)
    values[size == 0] = -1
    return values


def _fold(word: np.ndarray) -> np.ndarray:
    """The value of the eight decimal digits in the bytes of each word, the
    first in the lowest byte."""
    word = (word * 2561) >> 8  # 10 * 2**8 + 1: each byte pair, as 0..99
    word = ((word & 0x00FF00FF00FF00FF) * 6553601) >> 16  # 100 * 2**16 + 1: 0..9999
    return ((word & 0x0000FFFF0000FFFF) * 42949672960001) >> 32  # 10000 * 2**32 + 1


def _weights(text: str, values, odd, at) -> tuple[tuple[int, ...], int]:
    """The weights in tokens `at`, up to the first that does not parse, over
    one common denominator: each distinct one read once, a plain token or a
    "p/q" from the integers the scan read, any other by parse_weight on its
    text."""
    first, last, num, den = map(memoryview, odd[1:])
    value = {}
    keys = []
    # col is the scan's column of a token that is not plain
    for v, col in zip(values[at].tolist(), odd[0].searchsorted(at).tolist()):
        if v >= 0:
            key = v
        else:
            p, q = num[col], den[col]
            key = (p, q) if p >= 0 < q else text[first[col]:last[col]]  # p/0 is read as text
        if key not in value:
            try:
                value[key] = ((key, 1) if type(key) is int else key if type(key) is tuple
                              else parse_weight(key).as_integer_ratio())
            except (ValueError, ZeroDivisionError):
                break
        keys.append(key)
    denom = math.lcm(*[q for _, q in value.values()])
    scaled = {key: p * (denom // q) for key, (p, q) in value.items()}
    return tuple(map(scaled.__getitem__, keys)), denom


def _sizes_to_indptr(sizes) -> np.ndarray:
    indptr = np.zeros(len(sizes) + 1, np.int64)
    indptr[1:] = sizes
    return indptr.cumsum(out=indptr)


def _parsed(m, indptr, elements, weights, name) -> Instance:
    """An instance held as flat arrays and weights, numerators over one common
    denominator (or a list of rationals), which it puts over the least one;
    its sets stay flat arrays until .sets is read."""
    nums, denom = _over_lcm(weights) if type(weights) is list else weights
    g = math.gcd(denom, *nums)  # denom / g is the least common denominator
    weights = (tuple(nums), denom) if g == 1 else (tuple([p // g for p in nums]), denom // g)
    instance = Instance.__new__(Instance)
    vars(instance).update(m=m, name=name, _csr=(indptr, elements, weights))
    return instance


def _entries(indptr, elements, weights) -> tuple[SetEntry, ...]:
    values, denom = iter(elements.tolist()), weights[1]
    return tuple(SetEntry(tuple(islice(values, k)), Fraction(p, denom))
                 for k, p in zip(np.diff(indptr).tolist(), weights[0]))


class _Scan:
    """A text's tokens as read() scans them from an ASCII stand-in with the
    text's length, tokens and line breaks (past ASCII, a space that breaks
    lines reads as "\\x0b", which no "\\r" pairs with, any other space as " "
    and any other character as "?"), and what naming a fault needs: a
    token's text, from the text itself, and its line and column."""

    def __init__(self, text: str, head: int):
        self.text = self.ascii = text
        if not text.isascii():
            raw = bytearray(text, "ascii", "replace")  # one "?" per character past ASCII
            for space in _WIDE_SPACE.finditer(text):
                raw[space.start()] = 11 if space.group() in "\x85\u2028\u2029" else 32
            self.ascii = raw.decode("ascii")
            del raw  # the scan needs the room
        self.blocks = []
        self._rest = _blocks(self.ascii)
        self.read(head)

    def read(self, tokens: float = math.inf) -> None:
        """Scan on until `tokens` tokens are read, or to the end of the text.

        values holds the integer of each plain token (1 to 18 ASCII digits), and
        -1 for every other token.  odd has a column for each token that is not
        plain, in order: its index, its start and end in the text, and the p and
        q of a "p/q" whose only byte that is no digit is the "/", each -1 unless
        it is 1 to 18 digits.  blocks lists the first token and offset of each
        block (_blocks): the arrays per byte and per token of one block are freed
        before the next, so the scan holds little besides its result.
        """
        values, odd = ([self.values], [self.odd]) if self.blocks else ([], [])
        count = values[0].size if values else 0  # the tokens of the blocks before
        for offset, block, spans in self._rest:
            self.blocks.append((count, offset))
            if offset:
                spans[0] += count
                spans[1:3] += offset
            count += block.size
            values.append(block)
            odd.append(spans)
            if count >= tokens:
                break
        if len(values) == 1:
            self.values, self.odd = values[0], odd[0]
        else:
            self.values, self.odd = np.concatenate(values), np.concatenate(odd, axis=1)

    def span(self, i: int) -> tuple[int, int]:
        """The start and end of token i, found from the start of its block."""
        first, at = self.blocks[bisect_right(self.blocks, (i, math.inf)) - 1]
        return next(islice(_TOKEN.finditer(self.ascii, at), i - first, None)).span()

    def token(self, i: int, what: str = "") -> str:
        """The text of token i; past the last, raises the end of input, expected `what`."""
        if i >= self.values.size:
            raise self.expected(i, what)
        return self.text[slice(*self.span(i))]

    def number(self, i: int, what: str = "") -> int | None:
        """int() of token i, which is `what`: if it is missing or int() refuses
        it, raises the error, or returns None if no `what` is given."""
        try:
            value = int(self.values[i])
            return value if value >= 0 else int(self.token(i))  # not plain: int() of its text
        except (IndexError, ValueError):
            if what:
                raise self.expected(i, what) from None
            return None

    def error(self, message: str, i: int) -> ScpSyntaxError:
        """The error `message` at token i."""
        start, text = self.span(i)[0], self.ascii
        line = sum(text.count(c, 0, start) for c in _LINE_BREAKS) - text.count("\r\n", 0, start)
        column = start - max(text.rfind(c, 0, start) for c in _LINE_BREAKS)
        return ScpSyntaxError(message, line + 1, column)

    def expected(self, i: int, what: str) -> ScpSyntaxError:
        """The error of token i, which is not `what`, or just past the last, of the end of input."""
        if i < self.values.size:
            return self.error(f"expected {what}, got {self.token(i)!r}", i)
        message = f"unexpected end of input, expected {what}"
        return self.error(message, i - 1) if i else ScpSyntaxError(message, 1, 1)

    def records(self, at: int, count: int, lead: int, least: int, role, small):
        """(members, indptr, heads, faults) of `count` records from token `at`:
        `lead` tokens, a count c >= `least` and c members.

        The counts are walked through a memoryview, which gives Python ints,
        up to the first fault (a count, the end of input, a token past the
        records).  members holds int() of the members walked up to the first
        int() refuses (in an object array if one is past int64); heads, the
        first token of each record walked or whose count faults; faults,
        (token, error) of the walk's fault and of that member.  `role(r, k)`
        names token k of record r; `small(r, i)` is the error for count token i below `least`."""
        tokens = memoryview(self.values)
        size = len(tokens)
        sizes, faults, end = [], [], at
        try:
            for _ in range(count):
                c = tokens[end + lead]
                if c < least:  # not plain, or below least
                    i, r = end + lead, len(sizes)
                    c = self.number(i)
                    if c is None or c < least:
                        faults.append((i, small(r, i) if c is not None
                                       else self.expected(i, role(r, lead))))
                        break
                sizes.append(c)
                end += lead + 1 + c
        except IndexError:  # the tokens end in a record
            pass
        if not faults:
            if end > size:  # in the members of the last record walked
                sizes[-1] -= end - size
                end = size
                r = len(sizes) - 1
                faults.append((size, self.expected(size, role(r, lead + 1 + sizes[r]))))
            elif len(sizes) < count:  # before a record's count
                faults.append((size, self.expected(size, role(len(sizes), size - end))))
            elif end < size:
                faults.append((end, self.error(f"trailing token {self.token(end)!r}", end)))
        indptr = _sizes_to_indptr(sizes)
        heads = indptr[:-1] + np.arange(at, at + (lead + 1) * len(sizes), lead + 1)
        member = np.zeros(size, bool)
        member[at:end] = True
        for j in range(lead + 1):
            member[heads + j] = False
        if end < size and len(sizes) < count:
            heads = np.append(heads, end)
        members = self.values[member]
        if members.size and members.min() < 0:  # int() of those that are not plain
            index, first, last = map(memoryview, self.odd[:3])
            cols = member[self.odd[0]].nonzero()[0]
            for col, spot in zip(memoryview(cols), memoryview((members < 0).nonzero()[0])):
                try:
                    value = int(self.text[first[col]:last[col]])
                except ValueError:
                    i = index[col]
                    r = int(heads.searchsorted(i, "right")) - 1
                    faults.append((i, self.expected(i, role(r, i - int(heads[r])))))
                    members, indptr = members[:spot], np.minimum(indptr, spot)
                    break
                if members.dtype != object and not -2**63 <= value < 2**63:
                    members = members.astype(object)
                members[spot] = value
        return members, indptr, heads, faults

    def repeat(self, i: int, count: int) -> tuple[int, int]:
        """(token, int()) of the first of the `count` tokens after token i
        whose int() is that of one before it; there is one."""
        seen = set()
        for j, token in enumerate(islice(_TOKEN.finditer(self.ascii, self.span(i)[1]), count),
                                  i + 1):
            value = int(self.text[token.start():token.end()])
            if value in seen:
                return j, value
            seen.add(value)


# ---------------------------------------------------------------------------
# native format


def parse_native(text: str, name: str | None = None) -> Instance:
    """Parse the native "scp 1" format; the result is validated."""
    scan = _Scan(text, 4)  # the header alone first: a fault in it comes before any other
    magic = scan.token(0, "format magic")
    if magic != NATIVE_MAGIC:
        raise scan.error(f"expected {NATIVE_MAGIC!r} header, got {magic!r}", 0)
    version = scan.token(1, "format version")
    if version != NATIVE_VERSION:
        raise scan.error(f"unsupported version {version!r}", 1)
    m = scan.number(2, "universe size m")
    n = scan.number(3, "set count n")
    scan.read()
    elements, indptr, heads, faults = scan.records(
        4, n, 1, 0, lambda r, k: f"element {k - 2} of set {r}" if k > 1
        else (f"weight of set {r}", f"cardinality of set {r}")[k],
        lambda r, i: scan.error(f"negative cardinality for set {r}", i))
    weights = _weights(text, scan.values, scan.odd, heads)
    if len(weights[0]) < len(heads):
        i = int(heads[len(weights[0])])
        faults.append((i, scan.expected(i, f"weight of set {len(weights[0])}")))
    if _falls(indptr, elements).any():  # each set is sorted; a repeated element is a fault
        owner = np.arange(indptr.size - 1).repeat(np.diff(indptr))
        elements = elements[np.lexsort((elements, owner))]
        if _falls(indptr, elements).any():
            r = int(indptr.searchsorted(_falls(indptr, elements).argmax(), "right")) - 1
            i, e = scan.repeat(int(heads[r]) + 1, int(indptr[r + 1] - indptr[r]))
            faults.append((i, scan.error(f"duplicate element {e} in set {r}", i)))
    if faults:  # the first in reading order; of two at one token, the one found first
        raise min(faults, key=itemgetter(0))[1]
    del scan  # validate needs the room, not the tokens
    instance = (Instance(m=m, sets=_entries(indptr, elements, weights), name=name)
                if elements.dtype == object  # an id past int64, which validate names
                else _parsed(m, indptr, elements, weights, name))
    validate(instance)
    return instance


WRITE_BLOCK = 1 << 14  # ids written at a time by write_native
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)  # an id has one digit more per power up to it


def write_native(instance: Instance) -> str:
    """Emit the native format; inverse of parse_native on valid instances.

    The ids are written WRITE_BLOCK at a time (_id_text), a line break
    after each set's last one; each set's line is its weight, its size
    and its run of the block's text, cut out at its first id.  A set's run
    may span blocks: its line then ends in the next.
    """
    validate(instance)
    indptr, elements, (nums, denom) = _arrays(instance)
    sizes = np.diff(indptr).tolist()
    firsts, lasts = indptr[:-1], indptr[1:] - 1  # each set's first and last id
    out = [f"{NATIVE_MAGIC} {NATIVE_VERSION}\n{instance.m} {instance.n}\n"]
    for lo in range(0, elements.size, WRITE_BLOCK):
        hi = min(lo + WRITE_BLOCK, elements.size)
        i, j = lasts.searchsorted((lo, hi))
        text, offsets = _id_text(elements[lo:hi], lasts[i:j] - lo)
        a, b = firsts.searchsorted((lo, hi)).tolist()  # the sets that start in the block
        cuts = [*offsets[firsts[a:b] - lo].tolist(), len(text)]
        out.append("".join([text[:cuts[0]], *(
            f"{format_weight(p, denom)} {size} {text[x:y]}"
            for p, size, x, y in zip(nums[a:b], sizes[a:b], cuts, cuts[1:]))]))
    return "".join(out)


def _id_text(ids: np.ndarray, breaks: np.ndarray) -> tuple[str, np.ndarray]:
    """Positive int64 ids in decimal, each followed by a space, or by a line
    break at the indices in breaks; and the offset of each id, then the end.

    An id's digits are one plus the powers of ten up to it.  They are
    written into one byte buffer from the end of each id, by repeated
    division by 10 of the ids that have digits left.
    """
    offsets = np.zeros(ids.size + 1, np.int64)
    width = offsets[1:]
    width += 2  # a digit and the separator
    for ten in _TENS[:_TENS.searchsorted(ids.max(), "right")]:
        width += ids >= ten
    offsets.cumsum(out=offsets)
    buf = np.full(int(offsets[-1]), ord(" "), np.uint8)
    buf[offsets[breaks + 1] - 1] = ord("\n")
    at, rest = offsets[1:] - 2, ids  # each id's lowest digit not yet written
    while rest.size:
        quotient = rest // 10  # a few times faster than np.divmod
        digit = (rest - 10 * quotient).astype(np.uint8)
        digit += ord("0")
        buf[at] = digit
        at -= 1
        live = quotient > 0
        rest, at = (quotient, at) if live.all() else (quotient[live], at[live])
    return buf.tobytes().decode("ascii"), offsets


# ---------------------------------------------------------------------------
# OR-Library format (element-major; transposed on read)


def parse_orlib(text: str, name: str | None = None) -> Instance:
    """Parse the OR-Library set-covering format into a set-major Instance."""
    scan = _Scan(text, 2)  # m and n first, as from parse_native
    m = scan.number(0, "row count m")
    n = scan.number(1, "column count n")
    if m < 1 or n < 1:
        raise ScpSyntaxError("m and n must be positive")
    scan.read()
    first = min(2 + n, scan.values.size)  # the first row's count, if no cost is missing
    cols, rows_at, _, faults = scan.records(
        first, m, 0, 1,
        lambda r, k: f"column {k - 1} covering row {r + 1}" if k else f"cover count of row {r + 1}",
        lambda r, i: UnionNotUniverse(f"element {r + 1} is covered by no column",
                                      missing_element=r + 1))
    costs = _weights(text, scan.values, scan.odd, np.arange(2, first))
    if len(costs[0]) < n:  # its fault comes before any row's
        raise scan.expected(2 + len(costs[0]), f"cost of column {len(costs[0])}")
    scan.values = scan.odd = None  # the transpose needs the room, not the tokens
    if cols.size and not 1 <= cols.min() <= cols.max() <= n:  # the first out of range
        at = int(((cols < 1) | (cols > n)).argmax())
        i = 2 + n + at + int(rows_at.searchsorted(at, "right"))  # past m, n, costs and counts
        faults.append((i, scan.error(f"column index {cols[at]} outside 1..{n}", i)))
        cols = np.asarray(cols[:at], np.int64)  # the columns before it are transposed
        rows_at = np.minimum(rows_at, at)
    rows = rows_at.size - 1  # m, unless a fault cut the rows short
    cols -= 1
    indptr = _sizes_to_indptr(np.bincount(cols, minlength=n))
    # the key column * rows + row - 1 of each entry, sorted in place, lists each
    # column's rows in order; rows and n are at most the token count: it fits int64
    cols *= rows
    cols += np.arange(rows).repeat(rows_at[1:] - rows_at[:-1])
    cols.sort()
    elements = np.remainder(cols, rows, out=cols)
    elements += 1
    if _falls(indptr, elements).any():  # a row lists a column twice
        r = int(elements[_falls(indptr, elements)[:-1]].min()) - 1
        i, col = scan.repeat(2 + n + r + int(rows_at[r]), int(rows_at[r + 1] - rows_at[r]))
        faults.append((i, scan.error(f"row {r + 1} lists column {col} twice", i)))
    if faults:  # the first in reading order; of two at one token, the one found first
        raise min(faults, key=itemgetter(0))[1]
    instance = _parsed(m, indptr, elements, costs, name)
    validate(instance)
    return instance


def detect_format(text: str) -> str:
    """Sniff "native" vs "orlib" from the first token."""
    head = text.lstrip()[: len(NATIVE_MAGIC)]
    return "native" if head == NATIVE_MAGIC else "orlib"
