"""Differential test: the bulk parsers against the frozen per-token ones.

On valid texts and on mutated ones, parse_native and parse_orlib must
return an equal Instance or raise the same exception type, message, line
and column as the copies in seed_parsers.py.  Texts are built token by
token, with the role of each token known, and joined with varied
whitespace, so that the mutations hit counts, elements and columns on
purpose and the line/column search sees tabs, blank lines and CR/LF.
"""

import string
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seed_parsers
from setcoverlab import instance
from setcoverlab.errors import ScpError
from setcoverlab.instance import (Instance, _over_lcm, format_weight, parse_native, parse_orlib,
                                  require_positive_weights)

SEPARATORS = (" ", " ", " ", "  ", "\t", "\n", "\n\n", " \n\t", "\r\n", "\x0c",
              # the other ASCII bytes str.split() separates at
              "\r", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f",
              # spaces past ASCII; the last three break lines, and no "\r" pairs with them
              "\xa0", "\u3000", "\x85", "\u2028", "\r\x85")
# tokens the scan does not read as plain: int() reads some of them, none is a
# number to numpy, and "\xe9" is a letter past ASCII
ODD_TOKENS = ("+2", "1_0", "\u0661", "\u0663", "\u0662\u0663", "+", "_", "\xe9",
              "99999999999999999999", "-99999999999999999999", "0000000000000000001")
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except Exception as exc:  # compared field by field below
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def assert_same(text, fmt):
    new = parse_native if fmt == "native" else parse_orlib
    old = seed_parsers.parse_native if fmt == "native" else seed_parsers.parse_orlib
    assert _outcome(new, text) == _outcome(old, text), repr(text)


@st.composite
def raw_instances(draw):
    """(m, [(elements, weight)]) with every element covered, weights rational."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 6))
    sets = []
    for _ in range(n):
        els = sorted(draw(st.sets(st.integers(1, m), min_size=1, max_size=m)))
        sets.append((els, Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 6)))))
    missing = set(range(1, m + 1)) - {e for els, _ in sets for e in els}
    sets[0] = (sorted(set(sets[0][0]) | missing), sets[0][1])
    return m, sets


def native_tokens(m, sets):
    """Tokens of the native text, each with its role."""
    toks = [("scp", "head"), ("1", "head"), (str(m), "m"), (str(len(sets)), "n")]
    for i, (els, w) in enumerate(sets):
        toks += [(format_weight(w), "weight"), (str(len(els)), "count")]
        toks += [(str(e), f"member {i}") for e in els]
    return toks


def orlib_tokens(m, sets):
    toks = [(str(m), "m"), (str(len(sets)), "n")]
    toks += [(format_weight(w), "weight") for _, w in sets]
    for e in range(1, m + 1):
        cols = [i + 1 for i, (els, _) in enumerate(sets) if e in els]
        toks.append((str(len(cols)), "count"))
        toks += [(str(c), f"member {e}") for c in cols]
    return toks


def _pick(draw, toks, roles):
    at = [i for i, (_, role) in enumerate(toks) if role.split()[0] in roles]
    return draw(st.sampled_from(at)) if at else None


def unplain(draw, tok):
    """An integer token respelled as int() still reads it and the scan does
    not: with a "+", with "_" between its digits, or in Arabic-Indic digits."""
    forms = ["+" + tok, tok.translate(ARABIC_INDIC)]
    if len(tok) > 1:
        forms.append(tok[0] + "_" + tok[1:])
    return draw(st.sampled_from(forms))


def mutate(draw, toks, n):
    """Apply one drawn mutation to the token list; returns a new list."""
    toks = list(toks)
    kind = draw(st.sampled_from(("none", "non-integer", "duplicate", "negative count",
                                 "truncate", "trailing", "column range",
                                 "duplicate then malformed", "odd token", "unplain")))
    if kind == "non-integer":
        i = _pick(draw, toks, ("m", "n", "count", "member", "weight"))
        toks[i] = (draw(st.sampled_from(("x", "1.5", "2/0", "--3", "1e3", "0x1", "+", "_1",
                                         "1_", "1__0", "+-1", "\u0663x"))),
                   toks[i][1])
    elif kind == "odd token":
        i = draw(st.integers(0, len(toks) - 1))
        toks[i] = (draw(st.sampled_from(ODD_TOKENS)), toks[i][1])
    elif kind == "unplain":  # a few of m, n, the counts and the members, maybe before an "x"
        at = [i for i, (_, role) in enumerate(toks) if role not in ("head", "weight")]
        for i in draw(st.lists(st.sampled_from(at), min_size=1, max_size=4)):
            toks[i] = (unplain(draw, toks[i][0]), toks[i][1])
        i = _pick(draw, toks, ("member",))
        if draw(st.booleans()):
            toks[i] = ("x", toks[i][1])
    elif kind == "duplicate":
        i = _pick(draw, toks, ("member",))
        role = toks[i][1]
        same = [j for j, (_, r) in enumerate(toks) if r == role and j != i]
        if same:
            toks[i] = toks[draw(st.sampled_from(same))]
    elif kind == "negative count":
        i = _pick(draw, toks, ("count", "m", "n"))
        toks[i] = ("-" + toks[i][0], toks[i][1])
    elif kind == "truncate":
        toks = toks[:draw(st.integers(0, len(toks) - 1))]
    elif kind == "trailing":
        toks.append((draw(st.sampled_from(("1", "x", "scp"))), "extra"))
    elif kind == "column range":
        i = _pick(draw, toks, ("member",))
        toks[i] = (str(draw(st.sampled_from((0, -1, n + 1, 10**6)))), toks[i][1])
    elif kind == "duplicate then malformed":
        # a repeated member before a token that does not parse, in one run
        i = _pick(draw, toks, ("member",))
        role = toks[i][1]
        run = [j for j, (_, r) in enumerate(toks) if r == role]
        if len(run) >= 3:
            toks[run[1]] = toks[run[0]]
            toks[run[2]] = ("x", role)
    return toks


def render(draw, toks):
    parts = []
    for tok, _ in toks:
        parts.append(tok)
        parts.append(draw(st.sampled_from(SEPARATORS)))
    lead = draw(st.sampled_from(("", " ", "\n", "\t ")))
    return lead + "".join(parts)


def respell(draw, toks):
    """Respell a few drawn tokens: an integer zero-padded to 18 digits or
    past them, or as unplain() spells it, a weight as a decimal, as an
    unreduced or zero-led p/q or with a "+", the version as "01".  Only
    the version's respelling changes a value."""
    toks = list(toks)
    for i in draw(st.lists(st.integers(0, len(toks) - 1), max_size=4)):
        tok, role = toks[i]
        if role == "weight":
            w = Fraction(tok)
            p, q = w.numerator, w.denominator
            forms = [f"{2 * p}/{2 * q}", f"{p:0>18}/{q}", f"{p}/{q:0>19}",
                     f"{p * 10**18}/{q * 10**18}", f"+{p}/{q}"]
            if 10**6 % q == 0:
                forms.append(f"{p * 10**6 // q}e-6")
            toks[i] = (draw(st.sampled_from(forms)), role)
        elif tok == "1" and role == "head":
            toks[i] = ("01", role)
        elif tok.isdigit():
            toks[i] = (draw(st.sampled_from((tok.zfill(18), tok.zfill(19), tok.zfill(25),
                                             unplain(draw, tok)))), role)
    return toks


@st.composite
def texts(draw, fmt, respelled=False):
    m, sets = draw(raw_instances())
    toks = native_tokens(m, sets) if fmt == "native" else orlib_tokens(m, sets)
    if respelled:
        toks = respell(draw, toks)
    return render(draw, mutate(draw, toks, len(sets)))


PINNED = [
    # a duplicate comes before a malformed token in the same set: the
    # duplicate is the first error in reading order
    ("scp 1\n3 1\n1 4 1 1 x 2\n", "native"),
    ("scp 1\n3 1\n1 4 1 x 1 2\n", "native"),
    ("scp 1\n3 2\n1 2 1 1\n1 1 3\n", "native"),
    ("scp 1\n3 1\n1 5 1 2 3\n", "native"),
    ("scp 1\n3 1\n1 -2 1 2\n", "native"),
    ("", "native"),
    ("2 2\n1 1\n3 1 1 x\n1 2\n", "orlib"),
    ("2 2\n1 1\n2 3 1\n1 2\n", "orlib"),
    ("2 2\n1 1\n2 1 3\n1 2\n", "orlib"),
    ("2 2\n1 1\n1 1\n1 2\n9", "orlib"),
    ("0 2\n", "orlib"),
    # numpy saturates int64 silently: the element and m are past it
    ("scp 1\n100000000000000000000 1\n1 1 99999999999999999999\n", "native"),
    ("scp 1\n3 1\n1 1 99999999999999999999\n", "native"),
    ("scp 1\n3 1\n1 1 -99999999999999999999\n", "native"),
    # tokens int() reads and numpy does not, or reads otherwise
    ("scp 1\n5 1\n1 5 1 2 3 4 +5\n", "native"),
    ("scp 1\n1000 1\n1 1 1_000\n", "native"),
    ("scp 1\n3 1\n1 3 1 2 \u0663\n", "native"),
    ("scp 1\n16 1\n1 1 0x10\n", "native"),
    ("scp 1\n2 1\n1 2 1 010\n", "native"),
    ("scp 1\n2 1\n1 2 1 -\n", "native"),
    ("scp 1\n2 1\n1 2 - 2\n", "native"),
    ("scp 1\n3 1\n1 3 1 -2 3\n", "native"),
    ("2 2\n1 1\n1 1\n1 +2\n", "orlib"),
    ("2 2\n1 1\n1 1\n1 +\n", "orlib"),
    # a separator str.split() knows and str.splitlines() breaks lines at
    ("scp 1\n2 1\n1 2 1\x1c2\n", "native"),
    ("scp 1\n2 1\n1 2 1\x1cx\n", "native"),
    # weights
    ("scp 1\n1 1\n3/-4 1 1\n", "native"),
    ("scp 1\n1 1\n1/0 1 1\n", "native"),
    ("scp 1\n1 2\n1e3 1 1\n2.5 1 1\n", "native"),
    ("scp 1\n1 2\n-1 1 1\n6/4 1 1\n", "native"),
    ("1 2\n1e3 2.5\n2 2 1\n", "orlib"),
    ("1 1\n1/0\n1 1\n", "orlib"),
    # tokens longer than a "p/q" of two plain runs (37 bytes)
    ("scp 1\n1 1\n" + "1" * 40 + " 1 1\n", "native"),
    ("scp 1\n1 1\n" + "7" * 19 + "/" + "3" * 20 + " 1 1\n", "native"),
    ("scp 1\n1 1\n0." + "5" * 40 + " 1 1\n", "native"),
    ("scp 1\n1 1\n1 1 " + "x" * 40 + "\n", "native"),
    ("scp 1\n1 1\n1 1 " + "0" * 39 + "1", "native"),
    ("1 1\n" + "2" * 40 + "\n1 1\n", "orlib"),
    # set shapes: unsorted, a duplicate, empty
    ("scp 1\n3 1\n1 3 3 1 2\n", "native"),
    ("scp 1\n3 1\n1 3 1 2 1\n", "native"),
    ("scp 1\n1 2\n1 0\n1 1 1\n", "native"),
    ("scp 1\n1 2\n1 1 1\n1 0\n", "native"),
    # OR-Library: a column listed twice in a row, column 0, an unused column
    ("2 2\n1 1\n2 1 1\n1 2\n", "orlib"),
    ("2 2\n1 1\n2 2 1\n2 2 1\n", "orlib"),
    ("2 2\n1 1\n1 0\n1 2\n", "orlib"),
    ("2 3\n1 1 1\n1 1\n1 2\n", "orlib"),
    # every ASCII separator of str.split(), in a valid text and before an error
    *((f"scp 1{sep}2 1{sep}1 2 1{sep}2{sep}", "native")
      for sep in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\r\n", "\r")),
    *((f"scp 1{sep}2 1{sep}1 2 1{sep}x{sep}", "native")
      for sep in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\r\n", "\r")),
    *((f"2 2{sep}1 1{sep}1 1{sep}1 x", "orlib") for sep in ("\x0b", "\x1f", "\r\n")),
    # control bytes str.split() keeps inside a token
    ("scp 1\n2 1\n1 2 1 2\x00\n", "native"),
    ("scp 1\n2 1\n1\x07 2 1 2\n", "native"),
    ("scp\x7f 1\n2 1\n1 2 1 2\n", "native"),
    ("scp 1\n2 1\n1 2\x07 1 2\n", "native"),
    ("2 1\n1\n1 1\x00\n1 1\n", "orlib"),
    ("2 1\n1\x7f\n1 1\n1 1\n", "orlib"),
    # non-ASCII separators: a valid text, and an error past a line break
    ("scp 1\n2 1\n1 2 1\xa02\n", "native"),
    ("scp 1\u20282 1\u20281 2 1 2\n", "native"),
    ("scp 1\u20282 1\u20281 2 1 x\n", "native"),
    ("scp 1\xa02 1\n1 2 1\xa0x\n", "native"),
    ("2 1\u20281\u20281 1\u20281 x\n", "orlib"),
    # 18 digits are read by the scan, 19 by the walk
    ("scp 1\n999999999999999999 1\n1 1 999999999999999999\n", "native"),
    ("scp 1\n1000000000000000000 1\n1 1 1000000000000000000\n", "native"),
    ("scp 1\n3 1\n1 3 1 2 123456789012345678\n", "native"),
    ("scp 1\n3 1\n1 3 1 2 1234567890123456789\n", "native"),
    ("scp 1\n1 1\n999999999999999999 1 1\n", "native"),
    ("scp 1\n1 1\n9999999999999999999/3 1 1\n", "native"),
    ("2 1\n1\n1 1\n1 000000000000000001\n", "orlib"),
    ("2 1\n1\n1 1\n1 0000000000000000001\n", "orlib"),
    # leading zeros
    ("scp 1\n0003 1\n01 3 001 02 3\n", "native"),
    ("scp 1\n3 1\n1 03 1 2 03\n", "native"),
    ("scp 1\n2 1\n002/004 2 1 2\n", "native"),
    ("02 1\n01\n1 01\n01 001\n", "orlib"),
    # the scan reads p and q only in a "p/q" whose only non-digit is the "/"
    ("scp 1\n1 1\n/2 1 1\n", "native"),
    ("scp 1\n1 1\n2/ 1 1\n", "native"),
    ("scp 1\n1 1\n1/2/3 1 1\n", "native"),
    ("scp 1\n1 1\n1.5/2 1 1\n", "native"),
    ("scp 1\n1 1\n0/5 1 1\n", "native"),
    ("scp 1\n1 2\n7/2 1 1\n14/4 1 1\n", "native"),
    ("scp 1\n1 1\n123456789012345678/3 1 1\n", "native"),
    ("scp 1\n1 1\n3/1234567890123456789 1 1\n", "native"),
    ("1 1\n3/2\n1 1\n", "orlib"),
    # runs of 9 to 18 digits take a second and a third word of the scan
    ("scp 1\n123456789 1\n1 1 123456789\n", "native"),
    ("scp 1\n3 1\n1 3 1 2 00000000000000003\n", "native"),
    ("scp 1\n1 1\n12345678901234567/123456789 1 1\n", "native"),
    # U+0085 and U+2028 right after "\r": two line breaks, not one
    ("scp 1\r\x852 1\r\u20281 2 1 2\n", "native"),
    ("scp 1\r\x852 1\r\u20281 2 1 x\n", "native"),
    ("scp 1\n2 1\r\x85\r\u2028\r\n1 2 1 x\n", "native"),
    ("2 1\r\x851\r\u20281 1\r\x851 x\n", "orlib"),
    # U+3000 and U+00A0 as separators, in a valid text and before an error
    ("scp\u30001\n2\xa01\n1 2 1\u30002\n", "native"),
    ("scp\u30001\n2\xa01\n1 2 1\u3000x\n", "native"),
    ("scp 1\n2 1\n1 2 1\xa0\u3000 2 2\n", "native"),
    ("2\u30001\n1\n1\xa01\n1\u30001\n", "orlib"),
    ("2\u30001\n1\n1\xa01\n1\u3000x\n", "orlib"),
    # a bad token after a character past ASCII on its line: columns count characters
    ("scp 1\n2 1\n1 2 1\u3000\u3000x\n", "native"),
    ("scp 1\n2 1\n1 2 \u0661 2 \xe9t\xe9\n", "native"),
    ("scp 1\n2 1\n1 3 1 \xe9 x\n", "native"),
    ("scp 1\n2 1\n\u0661 2 1 2 x\n", "native"),
    ("2 1\n1\n1 1\n1 \u0661 x\n", "orlib"),
    # a Unicode digit and a "+" as m, n and a count, which int() reads
    ("scp 1\n\u0663 1\n1 3 1 2 3\n", "native"),
    ("scp 1\n3 \u0661\n1 3 1 2 3\n", "native"),
    ("scp 1\n3 1\n1 \u0663 1 2 3\n", "native"),
    ("scp 1\n+3 1\n1 3 1 2 3\n", "native"),
    ("scp 1\n3 +1\n1 3 1 2 3\n", "native"),
    ("scp 1\n3 1\n1 +3 1 2 3\n", "native"),
    ("scp 1\n3 1\n1 +3 1 2\n", "native"),
    ("\u0662 1\n1\n1 1\n1 1\n", "orlib"),
    ("2 +1\n1\n+1 1\n\u0661 1\n", "orlib"),
    ("2 1\n1\n\u0662 1 1\n1 1\n", "orlib"),
    # members past one int() refuses are not read, and repeat nothing
    ("scp 1\n9 2\n1 1 x\n1 2 +3 +4\n", "native"),
    ("scp 1\n9 2\n1 3 +1 x 1\n1 2 +3 +4\n", "native"),
    ("3 2\n1 1\n1 x\n2 +1 +2\n1 1\n", "orlib"),
    # OR-Library column ids past int64
    ("2 2\n1 1\n1 99999999999999999999\n1 2\n", "orlib"),
    ("2 2\n1 1\n2 1 -99999999999999999999\n1 2\n", "orlib"),
    ("2 2\n1 1\n2 1 1\n1 99999999999999999999\n", "orlib"),
]


class TestAgainstFrozenParsers:
    @settings(max_examples=400, deadline=None)
    @given(texts("native"))
    def test_native(self, text):
        assert_same(text, "native")

    @settings(max_examples=400, deadline=None)
    @given(texts("orlib"))
    def test_orlib(self, text):
        assert_same(text, "orlib")

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=" \n\t\r\x0b\x1c\u2028scp0123-/x+_\u0663\xe9\xa0\u3000\x85",
                   max_size=40))
    def test_arbitrary_text(self, text):
        assert_same(text, "native")
        assert_same(text, "orlib")

    @pytest.mark.parametrize("text, fmt", PINNED)
    def test_pinned_cases(self, text, fmt):
        assert_same(text, fmt)


@pytest.mark.parametrize("block", [1, 3, 16])
class TestAcrossBlocks:
    """The same comparisons with the byte scan cut into blocks of a few
    bytes, so that cuts fall before, inside and after every kind of token."""

    @settings(max_examples=150, deadline=None)
    @given(texts("native", respelled=True))
    def test_native(self, block, text):
        with mock.patch.object(instance, "SCAN_BLOCK", block):
            assert_same(text, "native")

    @settings(max_examples=150, deadline=None)
    @given(texts("orlib", respelled=True))
    def test_orlib(self, block, text):
        with mock.patch.object(instance, "SCAN_BLOCK", block):
            assert_same(text, "orlib")

    @pytest.mark.parametrize("text, fmt", PINNED)
    def test_pinned_cases(self, block, text, fmt):
        with mock.patch.object(instance, "SCAN_BLOCK", block):
            assert_same(text, fmt)


# Pieces of arbitrary input: number characters, letters, the native magic
# word and the separators above.
FUZZ_PIECES = (*string.digits, *"/.eE-+", *string.ascii_letters, "scp", *SEPARATORS)


@pytest.mark.parametrize("parse", [parse_native, parse_orlib])
@given(text=st.lists(st.sampled_from(FUZZ_PIECES), max_size=60).map("".join))
def test_any_text_parses_or_raises_a_package_error(parse, text):
    # Hypothesis's default deadline (200 ms) makes a slow parse a failure.
    try:
        assert isinstance(parse(text), Instance)
    except ScpError:
        pass


# weight tokens: unreduced, decimal, exponent and signed spellings, p and q of
# 18 digits (plain) and of 19 (read by parse_weight), zero, and some that do
# not parse (a zero denominator among them)
GOOD_WEIGHTS = ("6/4", "3/2", "1.5", "0.25", "1e3", "25e-1", "+7", "+6/4", "007", "10/10",
                "999999999999999999", "1234567890123456789", "1/999999999999999999",
                "123456789012345678/999999999999999998",
                "1234567890123456789/9999999999999999999", "7/1000000000000000000")
ODD_WEIGHTS = ("0", "0/5", "-0", "-2", "-6/4", "5/0", "0/0", "1/2/3", "6/-4", "x", "inf", "1e")


def _weight_outcome(parse, text):
    """The held weights of the parsed text, or the error, as _outcome gives it."""
    try:
        return "ok", require_positive_weights(parse(text))
    except Exception as exc:  # compared field by field below
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def _weight_texts(weights):
    """A native and an OR-Library text whose sets each hold all of {1, 2}."""
    n = len(weights)
    native = "scp 1\n2 %d\n" % n + "".join(f"{w} 2 1 2\n" for w in weights)
    orlib = f"2 {n}\n" + " ".join(weights) + "\n" + \
        "".join(f"{n} " + " ".join(map(str, range(1, n + 1))) + "\n" for _ in range(2))
    return native, orlib


class TestHeldWeights:
    """The parsed weights are numerators over the least common denominator of
    the weights the frozen parsers read; a weight that does not parse, is
    negative or is zero fails as it does there."""

    def test_numerators_over_the_least_common_denominator(self):
        for text, fmt in zip(_weight_texts(GOOD_WEIGHTS), ("native", "orlib")):
            new, old = ((parse_native, seed_parsers.parse_native) if fmt == "native"
                        else (parse_orlib, seed_parsers.parse_orlib))
            new, old = new(text), old(text)
            nums, denom = _over_lcm([entry.weight for entry in old.sets])
            assert require_positive_weights(new) == (tuple(nums), denom), fmt
            assert new.sets == old.sets, fmt

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(GOOD_WEIGHTS + ODD_WEIGHTS), min_size=1, max_size=6))
    @example(["3/2", "5/0", "x"])
    @example(["6/4", "-2", "0/0"])
    @example(["0/5", "25e-1"])
    def test_same_weights_or_same_error(self, weights):
        for text, fmt in zip(_weight_texts(weights), ("native", "orlib")):
            new = parse_native if fmt == "native" else parse_orlib
            old = seed_parsers.parse_native if fmt == "native" else seed_parsers.parse_orlib
            assert _weight_outcome(new, text) == _weight_outcome(old, text), (fmt, weights)
