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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seed_parsers
from setcoverlab.errors import ScpError
from setcoverlab.instance import Instance, format_weight, parse_native, parse_orlib

SEPARATORS = (" ", " ", " ", "  ", "\t", "\n", "\n\n", " \n\t", "\r\n", "\x0c")


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


def mutate(draw, toks, n):
    """Apply one drawn mutation to the token list; returns a new list."""
    toks = list(toks)
    kind = draw(st.sampled_from(("none", "non-integer", "duplicate", "negative count",
                                 "truncate", "trailing", "column range",
                                 "duplicate then malformed")))
    if kind == "non-integer":
        i = _pick(draw, toks, ("m", "n", "count", "member", "weight"))
        toks[i] = (draw(st.sampled_from(("x", "1.5", "2/0", "--3", "1e3", "0x1"))),
                   toks[i][1])
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


@st.composite
def texts(draw, fmt):
    m, sets = draw(raw_instances())
    toks = native_tokens(m, sets) if fmt == "native" else orlib_tokens(m, sets)
    return render(draw, mutate(draw, toks, len(sets)))


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
    @given(st.text(alphabet=" \n\t\r\x0b\x1c scp0123-/x", max_size=40))
    def test_arbitrary_text(self, text):
        assert_same(text, "native")
        assert_same(text, "orlib")

    @pytest.mark.parametrize("text, fmt", [
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
    ])
    def test_pinned_cases(self, text, fmt):
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
