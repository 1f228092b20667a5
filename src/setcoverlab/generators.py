"""Instance generators: sequence classes, the GF(2) family, seeded random.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import EpsilonOutOfRange, KOutOfRange
from .instance import Instance, SetEntry

DEFAULT_EPSILON = Fraction(1, 2)
WEIGHT_GRID = 1000  # random weights live on a 1/WEIGHT_GRID grid
GF2_MAX_K = 12  # gf2(12) peaks at 334 MB; each step in k quadruples its entries


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
    if len(s) == 1:
        only = SetEntry(tuple(range(1, m + 1)), Fraction(m))
        return Instance(m=m, sets=(only,), name=label)
    sets = []
    q = 0
    for i, part in enumerate(s):
        elements = tuple(range(q + 1, q + part + 1))
        weight = Fraction(part if i < len(s) - 1 else part + 1)
        sets.append(SetEntry(elements, weight))
        q += part
    sets.append(SetEntry(tuple(range(1, m + 1)), Fraction(m) + epsilon))
    return Instance(m=m, sets=tuple(sets), name=label)


def gen_gf2(k: int) -> Instance:
    """GF(2) inner-product family on m = 2^k - 1 elements, unit weights."""
    if not 2 <= k <= GF2_MAX_K:
        raise KOutOfRange(f"k must be in 2..{GF2_MAX_K}, got {k}")
    m = (1 << k) - 1
    sets = []
    for i in range(1, m + 1):
        elements = tuple(j for j in range(1, m + 1) if (i & j).bit_count() & 1)
        sets.append(SetEntry(elements, Fraction(1)))
    return Instance(m=m, sets=tuple(sets), name=f"gf2_{k}")


def gen_random(spec: RandomSpec) -> Instance:
    """Seeded random instance; always valid, byte-stable per seed.

    Each element joins each set independently with the given density.
    Empty sets get one uniformly chosen element, then uncovered elements
    are patched into a uniformly chosen set, so validation always passes.
    Weights are uniform on the rational grid weight_lo + j/WEIGHT_GRID.
    """
    rng = random.Random(spec.seed)
    members = [[] for _ in range(spec.n)]
    covered = [False] * (spec.m + 1)
    for e in range(1, spec.m + 1):
        for i in range(spec.n):
            if rng.random() < spec.density:
                members[i].append(e)
                covered[e] = True
    for i in range(spec.n):
        if not members[i]:
            e = rng.randrange(1, spec.m + 1)
            members[i].append(e)
            covered[e] = True
    for e in range(1, spec.m + 1):
        if not covered[e]:
            members[rng.randrange(spec.n)].append(e)
    span = spec.weight_hi - spec.weight_lo
    steps = int(span * WEIGHT_GRID)
    sets = []
    for i in range(spec.n):
        w = spec.weight_lo + Fraction(rng.randint(0, steps), WEIGHT_GRID) \
            if steps > 0 else spec.weight_lo
        sets.append(SetEntry(tuple(sorted(set(members[i]))), w))
    return Instance(
        m=spec.m, sets=tuple(sets),
        name=f"rnd_m{spec.m}_n{spec.n}_seed{spec.seed}",
    )
