"""Instance generators: sequence classes, the GF(2) family, seeded random.

Each generator builds the flat arrays (indptr, elements, weights) that a
parser builds, so no SetEntry exists until .sets is read.

gen_class_cs builds, for a covering sequence s, an instance on which the
greedy algorithm (lowest-index ties) reproduces s exactly: disjoint blocks
S_1..S_l sized by s with w(S_i) = s_i (last block weighs s_l + 1), plus the
whole universe A at weight m + eps.  Greedy takes the blocks in order at
charged ratio 1 and pays m + 1; the unique optimum is {A} at m + eps.

gen_gf2 builds the classic integrality-gap family: elements are the
nonzero k-bit vectors, set i collects the vectors with odd-parity inner
product against vector i, all weights 1.

gen_random is a seeded fuzzing generator (Mersenne Twister via
random.Random, so identical seeds give identical instances everywhere).
It takes the membership draws a block at a time but reads exactly the
stream that one random() call per (element, set) pair would read.
random() is CPython's res53: (a >> 5) * 2**26 + (b >> 6) over two
consecutive 32-bit MT19937 outputs a, b, divided by 2**53.  numpy's
MT19937 is the same generator and its Generator.random() builds each
double the same way, so from NUMPY_DRAWS draws on the rng's state (its
624 words and its position) is copied into a numpy MT19937, the blocks
are drawn there at C speed, and the state is handed back to the rng,
which draws the empty-set picks, the patches and the weights.  Below,
each block is replayed from getrandbits(64 * c), which packs the next
2c outputs least-significant word first, so that each 64-bit word holds
one draw's (a, b).  The hand-off costs about 0.26 ms (building the
MT19937 and moving the state both ways), and the replay about 0.016 ms
per thousand draws more than numpy, so the two paths cost the same near
2**14 draws (about 0.35 ms each with Python 3.11 and numpy 2.4 on an
x86-64 core); below that, nothing loads numpy.random, whose import
takes about 13 ms and 6 MB.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EpsilonOutOfRange, KOutOfRange
from .instance import Instance, _parsed, _sizes_to_indptr

DEFAULT_EPSILON = Fraction(1, 2)
WEIGHT_GRID = 1000  # random weights live on a 1/WEIGHT_GRID grid
GF2_MAX_K = 12  # gf2(12) peaks at about 100 MB RSS; each step in k quadruples its entries
DRAW_BLOCK = 1 << 18  # gen_random holds at most this many draws, gen_gf2 products (or one row)
NUMPY_DRAWS = 1 << 14  # gen_random draws through numpy's MT19937 from this many draws on


@dataclass(frozen=True)
class SequenceSpec:
    """A covering sequence: positive parts and their sum m."""

    s: tuple[int, ...]

    def __post_init__(self):
        if not self.s or any(p < 1 for p in self.s):
            raise ValueError("sequence parts must be positive")

    @property
    def m(self) -> int:
        return sum(self.s)


@dataclass(frozen=True)
class RandomSpec:
    m: int
    n: int
    density: float
    weight_lo: Fraction
    weight_hi: Fraction
    seed: int

    def __post_init__(self):
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")
        if self.weight_lo <= 0 or self.weight_hi < self.weight_lo:
            raise ValueError("need 0 < weight_lo <= weight_hi")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")


def gen_class_cs(spec: SequenceSpec,
                 epsilon: Fraction = DEFAULT_EPSILON) -> Instance:
    """Instance whose greedy trace (lowest-index ties) is exactly spec.s.

    For l = 1 the block construction is undefined (it needs l > 1), so the
    generator emits the single set {1..m} at weight m, on which greedy
    trivially produces s = (m).
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise EpsilonOutOfRange(f"epsilon must be in (0,1), got {epsilon}")
    s = spec.s
    m = spec.m
    label = "cs_" + "_".join(str(p) for p in s)
    universe = np.arange(1, m + 1)
    if len(s) == 1:
        return _parsed(m, np.array([0, m]), universe, [Fraction(m)], label)
    # the blocks tile 1..m in order, then A = 1..m again
    weights = [Fraction(p) for p in s[:-1]] + [Fraction(s[-1] + 1), Fraction(m) + epsilon]
    return _parsed(m, _sizes_to_indptr([*s, m]), np.tile(universe, 2), weights, label)


def gen_gf2(k: int) -> Instance:
    """GF(2) inner-product family on m = 2^k - 1 elements, unit weights."""
    if not 2 <= k <= GF2_MAX_K:
        raise KOutOfRange(f"k must be in 2..{GF2_MAX_K}, got {k}")
    m = (1 << k) - 1
    half = 1 << (k - 1)
    v = np.arange(1, m + 1)
    members = np.empty((m, half), np.int64)  # set i holds 2^(k-1) vectors: row i - 1
    rows = max(1, DRAW_BLOCK // m)
    for lo in range(1, m + 1, rows):
        hi = min(lo + rows, m + 1)
        p = v & np.arange(lo, hi)[:, None]
        for shift in (8, 4, 2, 1):  # fold the parity of k <= 12 bits into bit 0
            p ^= p >> shift
        members[lo - 1:hi - 1] = (np.nonzero(p & 1)[1] + 1).reshape(hi - lo, half)
    return _parsed(m, np.arange(0, m * half + 1, half), members.reshape(-1),
                   [Fraction(1) for _ in range(m)], f"gf2_{k}")


def _mt19937(rng: random.Random):
    """A numpy Generator on MT19937 at rng's state: its random() draws
    continue rng.random()'s stream exactly (module docstring)."""
    from numpy.random import MT19937, Generator  # 13 ms and 6 MB, so only here
    internal = rng.getstate()[1]  # 624 words, then the position in them
    bits = MT19937(0)
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(internal[:-1], np.uint32), "pos": internal[-1]}}
    return Generator(bits)


def gen_random(spec: RandomSpec) -> Instance:
    """Seeded random instance; always valid, byte-stable per seed.

    Each element joins each set independently with the given density.
    Empty sets get one uniformly chosen element, then uncovered elements
    are patched into a uniformly chosen set, so validation always passes.
    Weights are uniform on the rational grid weight_lo + j/WEIGHT_GRID.

    The membership draws are the stream of one rng.random() per pair, in
    element-major order, read DRAW_BLOCK draws at a time (module
    docstring): through numpy's MT19937 when m * n is at least
    NUMPY_DRAWS, else through getrandbits.  A draw k53 / 2**53 is below
    the density exactly when k53 < cut = ceil(density * 2**53), computed
    in exact rationals, and the numpy path compares the doubles with
    cut / 2**53, which is exact as cut <= 2**53.  So the output and the rng
    state after it are those of one draw per pair, on either path.  The
    (set, element) pairs drawn and patched are sorted once at the end.
    """
    rng = random.Random(spec.seed)
    m, n = spec.m, spec.n
    owners, elements = [], []
    covered = np.zeros(m + 1, dtype=bool)
    cut = math.ceil(Fraction(spec.density) * 2**53)
    rows = max(1, DRAW_BLOCK // n)
    numpy_draws = m * n >= NUMPY_DRAWS
    if numpy_draws:
        stream = _mt19937(rng)
        below = cut / 2**53  # exact: a draw k53 / 2**53 is below it iff k53 < cut
    for lo in range(1, m + 1, rows):
        c = (min(lo + rows, m + 1) - lo) * n
        if numpy_draws:
            hit = stream.random(c) < below
        else:
            words = np.frombuffer(rng.getrandbits(64 * c).to_bytes(8 * c, "little"), "<u8")
            hit = ((((words & 0xFFFFFFFF) >> 5) << 26) | (words >> 38)) < cut
        # draw k of the block is the pair (element lo + k // n, set k % n)
        row_idx, set_idx = np.divmod(np.flatnonzero(hit), n)
        row_idx += lo
        covered[row_idx] = True
        owners.append(set_idx)
        elements.append(row_idx)
    if numpy_draws:  # the picks, patches and weights read on from rng
        state = stream.bit_generator.state["state"]
        rng.setstate((rng.VERSION, (*state["key"].tolist(), state["pos"]), rng.gauss_next))
    empty = np.flatnonzero(np.bincount(np.concatenate(owners), minlength=n) == 0)
    picks = np.array([rng.randrange(1, m + 1) for _ in range(empty.size)], np.int64)
    covered[picks] = True
    uncovered = np.flatnonzero(~covered[1:]) + 1
    patched = np.array([rng.randrange(n) for _ in range(uncovered.size)], np.int64)
    owners = np.concatenate([*owners, empty, patched])
    elements = np.concatenate([*elements, picks, uncovered])
    elements = elements[np.lexsort((elements, owners))]
    lo = spec.weight_lo
    steps = int((spec.weight_hi - lo) * WEIGHT_GRID)
    # lo + j / WEIGHT_GRID as one Fraction, with no addition to normalize
    weights = [Fraction(lo.numerator * WEIGHT_GRID + rng.randint(0, steps) * lo.denominator,
                        lo.denominator * WEIGHT_GRID) if steps > 0 else lo for _ in range(n)]
    return _parsed(m, _sizes_to_indptr(np.bincount(owners, minlength=n)), elements, weights,
                   f"rnd_m{spec.m}_n{spec.n}_seed{spec.seed}")
