import hashlib
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from setcoverlab import (
    RandomSpec,
    SequenceSpec,
    enumerate_sequences,
    exact_opt,
    gen_class_cs,
    gen_gf2,
    gen_random,
    greedy,
    make_instance,
    validate,
    write_native,
)
from setcoverlab.errors import EpsilonOutOfRange, KOutOfRange
from setcoverlab.generators import DRAW_BLOCK, NUMPY_DRAWS, WEIGHT_GRID


class TestClassCs:
    def test_spec_example_2_1(self):
        inst = gen_class_cs(SequenceSpec((2, 1)), Fraction(1, 2))
        assert [(e.elements, e.weight) for e in inst.sets] == [
            ((1, 2), Fraction(2)),
            ((3,), Fraction(2)),
            ((1, 2, 3), Fraction(7, 2)),
        ]

    def test_blocks_are_disjoint_and_cover(self):
        inst = gen_class_cs(SequenceSpec((3, 1, 2)))
        blocks = inst.sets[:-1]
        seen = set()
        for b in blocks:
            assert not seen.intersection(b.elements)
            seen.update(b.elements)
        assert seen == set(range(1, 7))
        validate(inst)

    def test_greedy_reproduces_sequence(self):
        for s in [(2, 1), (1, 2), (3, 1, 2), (1, 1, 1, 1), (4, 3, 2, 1), (5,)]:
            inst = gen_class_cs(SequenceSpec(s))
            assert greedy(inst).s == s

    def test_round_trip_all_compositions_m_le_8(self):
        for m in range(1, 9):
            for spec in enumerate_sequences(m, "compositions"):
                trace = greedy(gen_class_cs(spec))
                assert trace.s == spec.s

    def test_weights_and_optimum(self):
        eps = Fraction(1, 2)
        for s in [(2, 1), (1, 3, 2), (2, 2, 2)]:
            inst = gen_class_cs(SequenceSpec(s), eps)
            m = sum(s)
            trace = greedy(inst)
            assert trace.total_weight == m + 1
            res = exact_opt(inst)
            assert res.weight == m + eps
            assert res.cover.set_indices == (len(s),)  # the whole-universe set
            assert trace.total_weight - res.weight == 1 - eps

    def test_l1_special_case(self):
        inst = gen_class_cs(SequenceSpec((4,)))
        assert len(inst.sets) == 1
        assert inst.sets[0].weight == 4
        assert greedy(inst).s == (4,)

    def test_epsilon_range(self):
        with pytest.raises(EpsilonOutOfRange):
            gen_class_cs(SequenceSpec((2, 1)), Fraction(3, 2))
        with pytest.raises(EpsilonOutOfRange):
            gen_class_cs(SequenceSpec((2, 1)), Fraction(0))


class TestGf2:
    def test_k2_hand_inner_products(self):
        inst = gen_gf2(2)
        assert [e.elements for e in inst.sets] == [(1, 3), (2, 3), (1, 2)]
        assert all(e.weight == 1 for e in inst.sets)

    def test_k5_shape(self):
        inst = gen_gf2(5)
        assert inst.m == 31 and inst.n == 31
        assert all(e.size == 16 for e in inst.sets)

    def test_sizes_are_half(self):
        for k in (2, 3, 4, 6):
            inst = gen_gf2(k)
            assert all(e.size == 1 << (k - 1) for e in inst.sets)

    def test_self_transpose(self):
        inst = gen_gf2(4)
        member = [set(e.elements) for e in inst.sets]
        for i in range(1, inst.m + 1):
            for j in range(1, inst.m + 1):
                assert (j in member[i - 1]) == (i in member[j - 1])

    def test_uniform_fractional_cover(self):
        from setcoverlab import check_fractional_cover

        for k in (2, 3, 5):
            inst = gen_gf2(k)
            x = [Fraction(2, inst.m + 1)] * inst.n
            assert check_fractional_cover(inst, x, tol=0)
            assert sum(x) == Fraction(2 * inst.m, inst.m + 1)

    def test_validates(self):
        validate(gen_gf2(6))

    def test_k_out_of_range(self):
        for k in (1, 13, 21):
            with pytest.raises(KOutOfRange):
                gen_gf2(k)


class TestRandom:
    def spec(self, **kw):
        base = dict(m=10, n=6, density=0.3, weight_lo=Fraction(1),
                    weight_hi=Fraction(5), seed=42)
        base.update(kw)
        return RandomSpec(**base)

    def test_deterministic_serialization(self):
        a = write_native(gen_random(self.spec()))
        b = write_native(gen_random(self.spec()))
        assert a == b

    def test_seed_changes_output(self):
        a = write_native(gen_random(self.spec()))
        b = write_native(gen_random(self.spec(seed=43)))
        assert a != b

    def test_density_one_gives_full_sets(self):
        inst = gen_random(self.spec(density=1.0))
        assert all(e.elements == tuple(range(1, 11)) for e in inst.sets)

    def test_always_validates(self):
        for seed in range(200):
            inst = gen_random(self.spec(m=1 + seed % 12, n=1 + seed % 9,
                                        density=0.15, seed=seed))
            validate(inst)

    def test_weights_in_range(self):
        inst = gen_random(self.spec(seed=7))
        for e in inst.sets:
            assert Fraction(1) <= e.weight <= Fraction(5)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            self.spec(density=0.0)
        with pytest.raises(ValueError):
            self.spec(weight_lo=Fraction(0))
        with pytest.raises(ValueError):
            self.spec(m=0)


def _reference_random(spec):
    """gen_random as one random() call per pair: (elements, weight) per set."""
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
    steps = int((spec.weight_hi - spec.weight_lo) * WEIGHT_GRID)
    return [(tuple(sorted(set(m))),
             spec.weight_lo + Fraction(rng.randint(0, steps), WEIGHT_GRID)
             if steps > 0 else spec.weight_lo) for m in members]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of write_native output, computed with the one-draw-per-pair
# generators that the block replay and the numpy parity fold replaced.
DENSITIES = (1e-4, Fraction(1, 3), None, 1.0, 0.05, 0.2, 0.6)  # None: 5/n
SPANS = ((1, 1), (1, Fraction(10, 3)), (1, 10), (Fraction(1, 2), Fraction(3, 4)))
CORPUS_SHA256 = "2560464657cd9ffe2fd941bc95f70dde3422b34c68a266bd37a2379ec5378ebb"
LARGE_SHA256 = {
    (3000, 700, 0.01, 11): "fdab7531697a68e061249932506169f24b86ae0aa70f83c310a2cff6fb193225",
    (5, 300000, 0.001, 12): "08c1c5cff2ccd3743edc94e121d025b8d3a08c53200f4ba670b58f4e59c7acf2",
    (2000, 250, 0.02, 13): "0c85a75d07eadb75770394093fed7ec6c5051b85780966e30644f0cc64dd62a2",
}
GF2_SHA256 = {
    2: "2637d8eb84284e6f3e2d74b2dd92ccc2db571b36085067ffd7c9c5d9cffce2c7",
    3: "26b9e7cf8e598072961ffb188d9fb4eaeeba6d1a401e49675104a0af8f62e2af",
    4: "0b65e546987c885ceee551896e2a9381fc07fa60859f37c0a5e70c578985dc72",
    5: "ffc17c293ff22af5996a59e5cd9a3a4e28175fdb4beaa3f2f77072b2adff4920",
    6: "bc5e3718e10395ff98327ef291e6d41c98d50068f63a632b595bb99950460f77",
    7: "02691c71ae9c4b1427f98e7f97dc26b5f071540f50212c45a5ea9cf15afa5304",
    8: "1014c06a90046a910c0e748301270fccb3befbd9b408f9567b73e67b996658d4",
    9: "8ef9ff55a45e3650645ca95ed1c3dcb46ba92c7a9eeb5e1fd5dc4f148658643e",
    10: "a86d63a89ba34a5517e5f29a4cee26311109568036687835181d1cb62611ab91",
    11: "e2f58e6b67e2fcaf34a429863dfa29daccde51d687653ca69e32c0080cf0804e",
}


def _corpus():
    """320 seeded specs, m <= 80, n <= 60, over every density and span above."""
    for seed in range(320):
        m = 1 + (seed * 37) % 80
        n = 1 + (seed * 11) % 60
        density = DENSITIES[seed % 7]
        if density is None:
            density = 5 / n if n >= 5 else 0.5
        lo, hi = SPANS[seed % 4]
        yield RandomSpec(m=m, n=n, density=density, weight_lo=Fraction(lo),
                         weight_hi=Fraction(hi), seed=seed)


class TestFlatArrays:
    """Generated instances hold flat arrays and build their sets on first read."""

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda k=k: gen_gf2(k), id=f"gf2_{k}") for k in range(2, 7)),
        pytest.param(lambda: gen_class_cs(SequenceSpec((1,))), id="cs1"),
        pytest.param(lambda: gen_class_cs(SequenceSpec((3, 1, 2)), Fraction(1, 3)), id="cs312"),
        *(pytest.param(lambda m=m, n=n, d=d, hi=hi, seed=seed: gen_random(RandomSpec(
            m=m, n=n, density=d, weight_lo=Fraction(1, 2), weight_hi=hi, seed=seed)),
            id=f"rnd{m}x{n}_s{seed}")
          for m, n, d, hi, seed in ((1, 1, 1.0, Fraction(3), 0), (30, 7, 0.01, Fraction(3), 1),
                                    (12, 40, 0.3, Fraction(10), 2),
                                    (200, 150, 0.02, Fraction(5, 2), 3))),
    ])
    def test_sets_built_on_first_read_match_make_instance(self, make):
        inst = make()
        assert sorted(vars(inst)) == ["_csr", "m", "name"]
        text = write_native(inst)
        greedy(inst)
        assert "sets" not in vars(inst)
        built = make_instance(inst.m, [(e.elements, e.weight) for e in make().sets], inst.name)
        assert text == write_native(built)
        assert inst == built and hash(inst) == hash(built) and repr(inst) == repr(built)
        assert pickle.dumps(inst) == pickle.dumps(built)
        assert all(type(e) is int for entry in inst.sets for e in entry.elements)


class TestGoldenBytes:
    def test_random_corpus(self):
        digest = hashlib.sha256()
        for spec in _corpus():
            digest.update(write_native(gen_random(spec)).encode())
        assert digest.hexdigest() == CORPUS_SHA256

    @pytest.mark.parametrize("key", list(LARGE_SHA256))
    def test_random_across_blocks(self, key):
        # 3000x700 spans several blocks; n = 300000 exceeds one block
        m, n, density, seed = key
        spec = RandomSpec(m=m, n=n, density=density, weight_lo=Fraction(1),
                          weight_hi=Fraction(10), seed=seed)
        assert _sha(write_native(gen_random(spec))) == LARGE_SHA256[key]

    def test_gf2(self):
        assert {k: _sha(write_native(gen_gf2(k))) for k in GF2_SHA256} == GF2_SHA256


class TestBlockReplay:
    def test_matches_one_draw_per_pair(self):
        first = random.Random(3).random()
        specs = [
            # the first draw sits exactly on the density, so it must miss
            RandomSpec(m=4, n=3, density=first, weight_lo=Fraction(1),
                       weight_hi=Fraction(2), seed=3),
            # half a 2**-53 step above it, so it must hit
            RandomSpec(m=4, n=3, density=Fraction(first) + Fraction(1, 2**54),
                       weight_lo=Fraction(1), weight_hi=Fraction(2), seed=3),
            # two blocks of element rows
            RandomSpec(m=DRAW_BLOCK // 1000 + 38, n=1000, density=Fraction(1, 7),
                       weight_lo=Fraction(1), weight_hi=Fraction(1), seed=4),
            # the same two draws on the density through numpy's MT19937
            RandomSpec(m=128, n=128, density=first, weight_lo=Fraction(1),
                       weight_hi=Fraction(2), seed=3),
            RandomSpec(m=128, n=128, density=Fraction(first) + Fraction(1, 2**54),
                       weight_lo=Fraction(1), weight_hi=Fraction(2), seed=3),
            # density 1 hits every draw
            RandomSpec(m=200, n=100, density=1.0, weight_lo=Fraction(1, 2),
                       weight_hi=Fraction(5, 2), seed=19),
            # n > DRAW_BLOCK: a block per element row; a quarter of the sets are
            # empty, and with no weights drawn their picks check the rng state
            RandomSpec(m=2, n=DRAW_BLOCK + 5, density=0.5, weight_lo=Fraction(1, 2),
                       weight_hi=Fraction(1, 2), seed=19),
        ]
        # m * n one below NUMPY_DRAWS, at it and one above: the getrandbits
        # replay, then numpy's MT19937, which hands the state back; seeds past
        # 32 bits and negative ones, Fraction and float densities
        crossover = ((129, 127), (128, 128), (145, 113))
        assert [m * n - NUMPY_DRAWS for m, n in crossover] == [-1, 0, 1]
        specs += [RandomSpec(m=m, n=n, density=density, weight_lo=Fraction(1),
                             weight_hi=Fraction(3), seed=seed)
                  for m, n in crossover for seed in (0, 2**32, 2**64 + 5, -1, -(2**40))
                  for density in (Fraction(1, 7), 0.05)]
        specs += [RandomSpec(m=1 + s % 40, n=1 + s % 13, density=(s % 10 + 1) / 10,
                             weight_lo=Fraction(1), weight_hi=Fraction(3), seed=s)
                  for s in range(40)]
        for spec in specs:
            # the weights come after the patches, so they also check the rng state
            got = [(e.elements, e.weight) for e in gen_random(spec).sets]
            assert got == _reference_random(spec)

    @pytest.mark.parametrize("m, n, loaded", [(129, 127, False), (128, 128, True)])
    def test_numpy_random_is_imported_only_from_the_crossover_on(self, m, n, loaded):
        code = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from setcoverlab import RandomSpec, gen_random\n"
            f"gen_random(RandomSpec(m={m}, n={n}, density=0.1, weight_lo=Fraction(1),"
            " weight_hi=Fraction(2), seed=1))\n"
            "print('numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == [str(loaded)]

    def test_weights_match_the_fraction_addition(self):
        # each weight is built as one Fraction; _reference_random adds
        # weight_lo + Fraction(j, WEIGHT_GRID), the values it must keep
        for lo, hi in ((Fraction(1, 3), Fraction(13, 6)), (Fraction(7, 4), Fraction(9, 4)),
                       (Fraction(2), Fraction(9))):
            spec = RandomSpec(m=6, n=60, density=0.3, weight_lo=lo, weight_hi=hi, seed=11)
            got = [entry.weight for entry in gen_random(spec).sets]
            assert got == [w for _, w in _reference_random(spec)]
            assert all(type(w) is Fraction for w in got) and len(set(got)) > 50

    def test_block_bound_holds(self):
        # 4M pairs: one float64 per draw would hold 32 MB.  The one-draw-
        # per-pair loop, which holds no draws, peaked at 11.3 MB traced:
        # nearly every element is patched into one of the 20 lists
        spec = RandomSpec(m=200_000, n=20, density=1e-5, weight_lo=Fraction(1),
                          weight_hi=Fraction(10), seed=5)
        tracemalloc.start()
        try:
            gen_random(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM")
    def test_gf2_12_memory_and_no_numpy_random(self):
        # VmHWM, not ru_maxrss: a child's ru_maxrss keeps the high-water
        # mark of the pytest process it was forked from
        code = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from setcoverlab import RandomSpec, gen_gf2, gen_random\n"
            "gen_random(RandomSpec(m=50, n=40, density=0.1, weight_lo=Fraction(1),"
            " weight_hi=Fraction(2), seed=1))\n"
            "gen_gf2(12)\n"
            "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
            "print(hwm[0].split()[1], 'numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        peak_kb, numpy_random = proc.stdout.split()
        # the build with a fresh int per entry peaked at 334 MB
        assert int(peak_kb) < 200 * 1024
        assert numpy_random == "False"
