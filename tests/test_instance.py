import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setcoverlab import (
    Cover,
    Instance,
    SetEntry,
    is_cover,
    make_cover,
    make_instance,
    parse_native,
    parse_orlib,
    validate,
    write_native,
)
from setcoverlab.errors import (
    ElementOutOfRange,
    EmptySet,
    IndexOutOfRange,
    InvalidInstance,
    NegativeWeight,
    ScpSyntaxError,
    UnionNotUniverse,
)
from setcoverlab.exact import exact_opt
from setcoverlab.generators import RandomSpec, gen_random
from setcoverlab.greedy import greedy
from setcoverlab.instance import (
    detect_format,
    element_masks,
    element_sets,
    format_weight,
    parse_weight,
    require_positive_weights,
)
from setcoverlab.lp import solve_lp


def single_set_instance():
    return make_instance(3, [((1, 2, 3), 5)])


def gf2_k2():
    return make_instance(3, [((1, 3), 1), ((2, 3), 1), ((1, 2), 1)])


class TestValidate:
    def test_single_covering_set_ok(self):
        validate(single_set_instance())

    def test_uncovered_element(self):
        inst = make_instance(3, [((1, 2), 1)])
        with pytest.raises(UnionNotUniverse) as exc:
            validate(inst)
        assert exc.value.missing_element == 3

    def test_element_out_of_range(self):
        inst = Instance(m=3, sets=(SetEntry((1, 4), Fraction(1)),))
        with pytest.raises(ElementOutOfRange) as exc:
            validate(inst)
        assert exc.value.set_index == 0

    def test_empty_set(self):
        inst = Instance(m=2, sets=(SetEntry((1, 2), Fraction(1)),
                                   SetEntry((), Fraction(1))))
        with pytest.raises(EmptySet) as exc:
            validate(inst)
        assert exc.value.set_index == 1

    def test_negative_weight(self):
        inst = make_instance(2, [((1, 2), -1)])
        with pytest.raises(NegativeWeight):
            validate(inst)

    def test_zero_weight_accepted(self):
        validate(make_instance(2, [((1, 2), 0)]))

    def test_unsorted_elements_rejected(self):
        inst = Instance(m=2, sets=(SetEntry((2, 1), Fraction(1)),))
        with pytest.raises(InvalidInstance):
            validate(inst)

    def test_no_sets(self):
        with pytest.raises(InvalidInstance):
            validate(Instance(m=1, sets=()))

    def test_missing_element_with_fewer_occurrences_than_m(self):
        # the lowest gap among the listed elements, with no mask built, so
        # neither a huge m nor a far element costs a wide integer
        for m, sets, missing in [(10**11, [((1, 3), 1), ((2, 5), 1)], 4),
                                 (4, [((1, 2), 1), ((1, 2), 1)], 3),
                                 (10**9, [((10**9,), 1)], 1)]:
            with pytest.raises(UnionNotUniverse) as exc:
                validate(make_instance(m, sets))
            assert exc.value.missing_element == missing
            assert str(exc.value) == f"element {missing} is covered by no set"
        with pytest.raises(ElementOutOfRange):  # the per-set checks still come first
            validate(Instance(m=10**11, sets=(SetEntry((1, 10**12), Fraction(1)),)))

    def test_first_violation_in_order_wins(self):
        out_first = Instance(m=3, sets=(SetEntry((5, 1), Fraction(1)),))
        with pytest.raises(ElementOutOfRange):
            validate(out_first)
        order_first = Instance(m=3, sets=(SetEntry((2, 1, 9), Fraction(1)),))
        with pytest.raises(InvalidInstance) as exc:
            validate(order_first)
        assert type(exc.value) is InvalidInstance
        assert "not sorted" in str(exc.value)


class TestMemo:
    """Validation, masks, integer weights and incidence are memoized, identity unchanged."""

    def test_invalid_instance_raises_every_time(self):
        bad = Instance(m=3, sets=(SetEntry((1, 2), Fraction(1)),))
        for _ in range(3):
            with pytest.raises(UnionNotUniverse):
                validate(bad)
        with pytest.raises(UnionNotUniverse):
            element_sets(bad)

    def test_memo_invisible_to_eq_hash_repr_pickle(self):
        used, fresh = gf2_k2(), gf2_k2()
        validate(used)
        element_masks(used)
        element_sets(used)
        greedy(used)
        solve_lp(used)
        exact_opt(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        again = pickle.loads(pickle.dumps(used))
        assert again == used and vars(again) == vars(fresh)

    def test_replace_does_not_carry_the_memo(self):
        inst = gf2_k2()
        validate(inst)
        broken = dataclasses.replace(inst, sets=inst.sets[:1])
        with pytest.raises(UnionNotUniverse):
            validate(broken)
        assert dataclasses.replace(inst) == inst

    def test_mutating_returned_masks_is_harmless(self):
        inst = gen_random(RandomSpec(m=12, n=9, density=0.3, weight_lo=Fraction(1),
                                     weight_hi=Fraction(4), seed=5))
        expected = greedy(make_instance(inst.m, [(e.elements, e.weight) for e in inst.sets]))
        validate(inst)  # the masks handed out below are those validation kept
        masks = element_masks(inst)
        masks[:] = [0] * len(masks)
        assert greedy(inst) == expected
        assert element_masks(inst) != masks

    def test_weights_over_common_denominator(self):
        ws = [Fraction(1, 3), Fraction(5, 7), Fraction(7, 2), Fraction(10**12)]
        inst = make_instance(2, [((1,), w) for w in ws[:2]] + [((2,), w) for w in ws[2:]])
        assert require_positive_weights(inst) == (tuple(int(w * 42) for w in ws), 42)

    def test_returned_weights_cannot_change_greedy(self):
        inst = make_instance(3, [((1, 2), Fraction(3, 2)), ((3,), 1), ((1, 2, 3), 4)])
        expected = greedy(make_instance(inst.m, [(e.elements, e.weight) for e in inst.sets]))
        weights, denom = require_positive_weights(inst)
        with pytest.raises(TypeError):
            weights[2] = 0
        assert greedy(inst) == expected
        assert require_positive_weights(inst) == (weights, denom) == ((3, 2, 8), 2)

    @pytest.mark.parametrize("m", [5, 64, 65, 300])
    def test_masks_match_plain_shifts(self, m):
        # both mask paths: plain shifts up to m = 64, the vectorized pass above
        inst = gen_random(RandomSpec(m=m, n=30, density=0.2, weight_lo=Fraction(1),
                                     weight_hi=Fraction(4), seed=m))
        expected = [sum(1 << (e - 1) for e in entry.elements) for entry in inst.sets]
        assert element_masks(inst) == expected
        validate(inst)
        assert element_masks(inst) == expected
        with pytest.raises(ValueError):
            element_masks(Instance(m=m, sets=(SetEntry((0, 1), Fraction(1)),)))

    def test_masks_and_incidence(self):
        inst = gf2_k2()  # {1,3} {2,3} {1,2}
        assert element_masks(inst) == [0b101, 0b110, 0b011]
        assert element_sets(inst) == ((0, 2), (1, 2), (0, 1))


class TestIsCover:
    def test_gf2_pair_covers(self):
        # spec's S_1, S_2 = indices 0, 1: {1,3} | {2,3} = {1,2,3}
        assert is_cover(gf2_k2(), [0, 1])

    def test_single_set_misses(self):
        # {1,3} alone misses element 2
        assert not is_cover(gf2_k2(), [0])

    def test_all_sets_always_cover(self):
        inst = gf2_k2()
        assert is_cover(inst, range(inst.n))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            is_cover(gf2_k2(), [3])

    def test_make_cover_weighs_a_cover(self):
        assert make_cover(gf2_k2(), [0, 1]) == Cover(set_indices=(0, 1), weight=Fraction(2))

    def test_make_cover_rejects_a_non_cover(self):
        with pytest.raises(InvalidInstance, match="do not cover"):
            make_cover(gf2_k2(), [0])


class TestNativeFormat:
    def test_parse_basic(self):
        inst = parse_native("scp 1\n3 1\n5 3 1 2 3")
        assert inst.m == 3
        assert inst.sets == (SetEntry((1, 2, 3), Fraction(5)),)

    def test_write_basic(self):
        assert write_native(single_set_instance()) == "scp 1\n3 1\n5 3 1 2 3\n"

    def test_rational_weight_round_trip(self):
        inst = make_instance(3, [((1, 2), Fraction(7, 2)), ((3,), Fraction(1, 3))])
        text = write_native(inst)
        assert "7/2" in text and "1/3" in text
        again = parse_native(text)
        assert again.sets == inst.sets and again.m == inst.m

    def test_decimal_weight_is_exact(self):
        inst = parse_native("scp 1\n2 1\n3.5 2 1 2")
        assert inst.sets[0].weight == Fraction(7, 2)

    def test_weight_exponent_past_the_digit_limit(self):
        with pytest.raises(ScpSyntaxError, match="got '1e10000000'"):
            parse_native("scp 1\n1 1\n1e10000000 1 1\n")

    def test_unsupported_version(self):
        with pytest.raises(ScpSyntaxError):
            parse_native("scp 2\n3 1\n5 3 1 2 3")

    def test_bad_magic(self):
        with pytest.raises(ScpSyntaxError):
            parse_native("orl 1\n3 1\n5 3 1 2 3")

    def test_duplicate_element_is_syntax_error(self):
        with pytest.raises(ScpSyntaxError) as exc:
            parse_native("scp 1\n3 1\n5 3 1 1 3")
        assert exc.value.line == 3

    def test_truncated_input(self):
        with pytest.raises(ScpSyntaxError):
            parse_native("scp 1\n3 1\n5 3 1 2")

    def test_trailing_garbage(self):
        with pytest.raises(ScpSyntaxError):
            parse_native("scp 1\n3 1\n5 3 1 2 3 9")

    def test_validate_errors_propagate(self):
        with pytest.raises(UnionNotUniverse):
            parse_native("scp 1\n3 1\n5 2 1 2")

    def test_syntax_error_position(self):
        with pytest.raises(ScpSyntaxError) as exc:
            parse_native("scp 1\n3 x\n5 3 1 2 3")
        assert (exc.value.line, exc.value.column) == (2, 3)


class TestOrlib:
    ORLIB = "3 2\n1 1\n1 1\n1 2\n2 1 2\n"

    def test_transposition(self):
        # rows=elements: e1->col1, e2->col2, e3->cols 1,2
        inst = parse_orlib(self.ORLIB)
        assert inst.m == 3 and inst.n == 2
        assert inst.sets[0].elements == (1, 3)
        assert inst.sets[1].elements == (2, 3)
        assert all(e.weight == 1 for e in inst.sets)

    def test_uncovered_row(self):
        with pytest.raises(UnionNotUniverse):
            parse_orlib("2 1\n1\n1 1\n0\n")

    def test_membership_matches_rows(self):
        inst = parse_orlib(self.ORLIB)
        # element j listed under column i iff j in S_i
        assert 3 in inst.sets[0].elements and 3 in inst.sets[1].elements
        assert 1 not in inst.sets[1].elements

    def test_bad_column_index(self):
        with pytest.raises(ScpSyntaxError):
            parse_orlib("2 1\n1\n1 1\n1 9\n")

    def test_wrapped_lines(self):
        # benchmark files wrap the cost vector and row lists freely;
        # rows: e1 -> cols {1,2}, e2 -> {3}, e3 -> {2,3}, e4 -> {1,2}
        wrapped = "4 3\n2 5\n7 2\n1 2 1\n3 2\n2 3 2\n1 2\n"
        inst = parse_orlib(wrapped)
        assert inst.m == 4 and inst.n == 3
        assert [e.weight for e in inst.sets] == [2, 5, 7]
        assert inst.sets[0].elements == (1, 4)
        assert inst.sets[1].elements == (1, 3, 4)
        assert inst.sets[2].elements == (2, 3)

    def test_detect_format(self):
        assert detect_format(self.ORLIB) == "orlib"
        assert detect_format("scp 1\n1 1\n1 1 1") == "native"


class TestWeightScalars:
    @pytest.mark.parametrize("token,value", [
        ("5", Fraction(5)),
        ("7/2", Fraction(7, 2)),
        ("0.25", Fraction(1, 4)),
        ("1e400", Fraction(10**400)),
        ("1E4300", Fraction(10**4300)),
        ("25e-4300", Fraction(25, 10**4300)),
    ])
    def test_parse(self, token, value):
        assert parse_weight(token) == value

    @pytest.mark.parametrize("token", ["1e4301", "1e-4301", "2.5E+10000000"])
    def test_exponent_past_the_digit_limit(self, token):
        with pytest.raises(ValueError, match="past the 4300-digit limit"):
            parse_weight(token)

    def test_format(self):
        assert format_weight(Fraction(5)) == "5"
        assert format_weight(Fraction(7, 2)) == "7/2"


@st.composite
def instances(draw, max_m=8, max_n=6):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    sets = []
    for _ in range(n):
        elements = draw(st.sets(st.integers(1, m), min_size=1, max_size=m))
        num = draw(st.integers(1, 40))
        den = draw(st.integers(1, 12))
        sets.append((tuple(sorted(elements)), Fraction(num, den)))
    # patch coverage so the instance is valid
    missing = set(range(1, m + 1)) - {e for els, _ in sets for e in els}
    if missing:
        els, w = sets[0]
        sets[0] = (tuple(sorted(set(els) | missing)), w)
    return make_instance(m, sets)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_parse_write_identity(self, inst):
        text = write_native(inst)
        again = parse_native(text)
        assert again.m == inst.m and again.sets == inst.sets
        assert write_native(again) == text

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_all_sets_cover(self, inst):
        assert is_cover(inst, range(inst.n))
