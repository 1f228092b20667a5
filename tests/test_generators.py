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
    validate,
    write_native,
)
from setcoverlab.errors import EpsilonOutOfRange, KOutOfRange


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
