import dataclasses
import pickle
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seed_parsers
import seed_writer
from setcoverlab import (
    Cover,
    Instance,
    SetEntry,
    bound_report,
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
from setcoverlab import instance
from setcoverlab.generators import RandomSpec, gen_gf2, gen_random
from setcoverlab.greedy import greedy
from setcoverlab.instance import (
    cover_weight,
    detect_format,
    element_masks,
    element_sets,
    format_weight,
    parse_weight,
    require_positive_weights,
    set_sizes,
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

    @pytest.mark.parametrize("m", [3, 70])
    @pytest.mark.parametrize("bad", [1.5, 3.0, "1"])
    def test_an_id_that_is_not_an_int_names_its_set(self, m, bad):
        # neither truncated nor parsed, at any m: every reader refuses the instance
        inst = Instance(m=m, sets=(SetEntry((1,), Fraction(1)),
                                   SetEntry((bad, *range(2, m + 1)), Fraction(1))))
        for use in (validate, greedy, write_native, element_sets):
            with pytest.raises(InvalidInstance) as exc:
                use(inst)
            assert type(exc.value) is InvalidInstance and exc.value.set_index == 1
            assert str(exc.value) == f"set 1 contains element {bad!r}, not an integer"

    @pytest.mark.parametrize("m", [3, 70])
    def test_numpy_integer_ids_are_integers(self, m):
        ids = tuple(np.arange(1, m + 1))
        assert element_masks(make_instance(m, [(ids, 1)])) == [(1 << m) - 1]
        assert write_native(Instance(m=m, sets=(SetEntry(ids, Fraction(1)),))) \
            == write_native(make_instance(m, [(range(1, m + 1), 1)]))

    def test_ids_past_int64(self):
        for sets in ([((1, 2, 2**70), 1)], [((-2**70, 1, 2, 3), 1)]):
            with pytest.raises(ElementOutOfRange) as exc:
                validate(make_instance(3, sets))
            assert exc.value.set_index == 0
        # in range when m is past int64 too: the lowest gap is still found
        with pytest.raises(UnionNotUniverse) as exc:
            validate(make_instance(2**70, [((1, 2**65), 1)]))
        assert exc.value.missing_element == 2

    @pytest.mark.parametrize("weight, error", [("x", AttributeError), (None, AttributeError),
                                               (float("nan"), ValueError)])
    def test_a_weight_that_is_not_rational_fails_in_validate(self, weight, error):
        # the weights are scaled to integers when the sets are flattened,
        # which n does not need: the error is the weight's, raised in validate
        inst = Instance(m=1, sets=(SetEntry((1,), weight),))
        assert inst.n == 1
        with pytest.raises(error, match="integer ratio|as_integer_ratio"):
            validate(inst)


def _ordered_scan(m, sets):
    """The first per-set violation, scanning every set from set 0, or None."""
    for i, entry in enumerate(sets):
        if not entry.elements:
            return EmptySet, f"set {i} is empty", i
        prev = 0
        for e in entry.elements:
            if type(e) is not int:
                return InvalidInstance, f"set {i} contains element {e!r}, not an integer", i
            if not 1 <= e <= m:
                return ElementOutOfRange, f"set {i} contains element {e} outside 1..{m}", i
            if e <= prev:
                return InvalidInstance, f"set {i} elements not sorted/duplicate-free", i
            prev = e
        if entry.weight < 0:
            return NegativeWeight, f"set {i} has negative weight {entry.weight}", i
    return None


class TestFirstViolation:
    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 12), sets=st.lists(st.tuples(
        st.lists(st.one_of(st.integers(-1, 14), st.sampled_from([2.0, 2**70])), max_size=6),
        st.integers(-2, 5)), min_size=1, max_size=6))
    def test_the_walk_from_the_first_flagged_set_finds_the_ordered_scans(self, m, sets):
        # validate walks from the first set its bulk checks flag, never from set 0
        inst = Instance(m=m, sets=tuple(SetEntry(tuple(els), Fraction(w)) for els, w in sets))
        expected = _ordered_scan(m, inst.sets)
        try:
            validate(inst)
            raised = None
        except UnionNotUniverse:
            raised = None
        except InvalidInstance as exc:
            raised = type(exc), str(exc), exc.set_index
        assert raised == expected


class TestSetEntry:
    def test_slots_keep_identity(self):
        entry = SetEntry((1, 3), Fraction(5, 2))
        assert not hasattr(entry, "__dict__")
        assert repr(entry) == "SetEntry(elements=(1, 3), weight=Fraction(5, 2))"
        for again in (pickle.loads(pickle.dumps(entry)), dataclasses.replace(entry)):
            assert again == entry and hash(again) == hash(entry) and repr(again) == repr(entry)
        assert dataclasses.replace(entry, weight=Fraction(1)) == SetEntry((1, 3), Fraction(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.weight = Fraction(1)

    def test_pickle_from_before_the_slots_loads(self):
        # pickle.dumps(make_instance(3, [((1, 2), 1), ((3,), "5/2")])) while
        # SetEntry had no __slots__: each entry's state is its __dict__
        old = (b"\x80\x04\x95\xb2\x00\x00\x00\x00\x00\x00\x00\x8c\x14setcoverlab.instance"
               b"\x94\x8c\x08Instance\x94\x93\x94)\x81\x94}\x94(\x8c\x01m\x94K\x03\x8c\x04sets"
               b"\x94h\x00\x8c\x08SetEntry\x94\x93\x94)\x81\x94}\x94(\x8c\x08elements\x94K\x01"
               b"K\x02\x86\x94\x8c\x06weight\x94\x8c\tfractions\x94\x8c\x08Fraction\x94\x93\x94"
               b"K\x01K\x01\x86\x94R\x94ubh\x08)\x81\x94}\x94(h\x0bK\x03\x85\x94h\rh\x10K\x05"
               b"K\x02\x86\x94R\x94ub\x86\x94\x8c\x04name\x94Nub.")
        inst = pickle.loads(old)
        expected = make_instance(3, [((1, 2), 1), ((3,), "5/2")])
        assert inst == expected and inst.sets[1] == SetEntry((3,), Fraction(5, 2))
        assert not hasattr(inst.sets[0], "__dict__")
        assert pickle.loads(pickle.dumps(inst)) == expected
        assert write_native(inst) == write_native(expected)


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

    @pytest.mark.parametrize("parse, text", [
        (parse_native, "scp 1\n3 3\n1 2 1 3\n1 2 2 3\n1 2 1 2\n"),
        (parse_native, "scp 1\n70 2\n1 2 1 70\n1 68 " + " ".join(map(str, range(2, 70))) + "\n"),
        (parse_orlib, "3 2\n1 1\n1 1\n1 2\n2 1 2\n"),
    ])
    def test_parsed_instance_holds_arrays_not_sets(self, parse, text):
        # the parser's flat arrays are the instance's one copy of its sets; the
        # G-only path (greedy, bound report) builds no SetEntry
        inst = parse(text)
        bound_report(inst, greedy(inst))
        assert sorted(vars(inst)) == ["_csr", "_int_weights", "_masks", "m", "name"]
        indptr, elements, weights = vars(inst)["_csr"]
        masks = element_masks(inst)
        int_weights, _ = vars(inst)["_int_weights"]
        assert all(type(v) is int for v in (*masks, *int_weights))
        arrays = [a for v in vars(inst).values() if isinstance(v, tuple)
                  for a in v if isinstance(a, np.ndarray)]
        assert len(arrays) == 2 and arrays[0] is indptr and arrays[1] is elements
        # the tuple, built on first read, is the eager build
        eager = (seed_parsers.parse_native if parse is parse_native
                 else seed_parsers.parse_orlib)(text)
        sets = inst.sets
        assert type(sets) is tuple and sets == eager.sets and inst.sets is sets
        assert all(type(e) is int for entry in sets for e in entry.elements)
        assert masks == [sum(1 << (e - 1) for e in entry.elements) for entry in sets]
        assert inst == eager and hash(inst) == hash(eager) and repr(inst) == repr(eager)
        again = pickle.loads(pickle.dumps(inst))
        assert again == eager and sorted(vars(again)) == ["m", "name", "sets"]
        assert dataclasses.replace(inst) == eager

    def test_unread_sets_are_built_for_eq_hash_repr_pickle(self):
        text = "scp 1\n3 3\n1 2 1 3\n1 2 2 3\n1 2 1 2\n"
        fresh = gf2_k2()
        for use in (lambda i: i == fresh, hash, repr, pickle.dumps, dataclasses.replace):
            inst = parse_native(text)
            assert "sets" not in vars(inst)
            use(inst)
            assert inst.sets == fresh.sets
        assert pickle.dumps(parse_native(text)) == pickle.dumps(parse_native(text))

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

    @pytest.mark.parametrize("block", [1, 3, 8, 40])
    def test_masks_packed_a_block_at_a_time(self, monkeypatch, block):
        # spans of 1 to 38 bytes, cut into blocks that end inside, at or past a set
        inst = gen_random(RandomSpec(m=300, n=30, density=0.2, weight_lo=Fraction(1),
                                     weight_hi=Fraction(4), seed=block))
        monkeypatch.setattr(instance, "MASK_BLOCK", block)
        expected = [sum(1 << (e - 1) for e in entry.elements) for entry in inst.sets]
        assert element_masks(inst) == expected

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

    @pytest.mark.parametrize("index", [-1, -4, 3])
    @pytest.mark.parametrize("check", [is_cover, cover_weight, make_cover])
    def test_every_check_refuses_an_index_outside_the_sets(self, check, index):
        # cover_weight read weights[-1] as the last set's, and raised a bare IndexError at n
        with pytest.raises(IndexOutOfRange, match=f"^set index {index} outside 0..2$"):
            check(gf2_k2(), [0, index])

    def test_make_cover_weighs_a_cover(self):
        assert make_cover(gf2_k2(), [0, 1]) == Cover(set_indices=(0, 1), weight=Fraction(2))

    def test_make_cover_rejects_a_non_cover(self):
        with pytest.raises(InvalidInstance, match="do not cover"):
            make_cover(gf2_k2(), [0])

    @pytest.mark.parametrize("elements, message", [
        ((0, 1, 2, 3), "set 0 contains element 0 outside 1..3"),
        ((1, 2, 3, 4), "set 0 contains element 4 outside 1..3"),
    ])
    @pytest.mark.parametrize("check", [is_cover, make_cover])
    def test_an_invalid_instance_raises_what_validate_raises(self, check, elements, message):
        # the masks alone raised a bare ValueError for element 0, and a set
        # over 1..4 covered 1..3
        inst = Instance(m=3, sets=(SetEntry(elements, Fraction(1)),))
        with pytest.raises(ElementOutOfRange, match=message):
            check(inst, [0])


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


def _writer_cases(small=False):
    """(name, instance) for the block writer, with p/q and integer weights;
    small ones for blocks of a few ids."""
    if not small:
        edges = [e for k in range(1, 7) for e in (10**k - 1, 10**k)]  # 9, 10, ..., 10**6
        m = 10**6
        yield "edges", instance._parsed(
            m, np.array([0, m, m + len(edges), m + len(edges) + 1, m + len(edges) + 2]),
            np.array([*range(1, m + 1), *edges, 1, m]),
            instance._over_lcm([Fraction(7, 3), Fraction(5), Fraction(10**20 + 1, 3),
                                Fraction(1, 10**6)]), "edges")
    yield "m1", make_instance(1, [((1,), Fraction(1, 2))])
    yield "m1_twice", make_instance(1, [((1,), 3), ((1,), Fraction(9, 4))])
    # one set per id, then the universe: a line break after every id
    m = 300 if small else 40_000
    yield "singletons", make_instance(
        m, [((e,), Fraction(e, 7)) for e in range(1, m + 1)] + [(range(1, m + 1), 2)])
    m = 1200 if small else 90_000
    yield "far_singletons", make_instance(
        m, [((m,), 4), ((1,), Fraction(3, 2)), (range(1, m + 1), 1), ((m // 2 + 7,), 6)])
    yield "gf2", gen_gf2(5 if small else 8)
    for seed, (m, n, density) in enumerate([(3000, 700, 0.01), (5, 3000, 0.3), (60, 40, 0.2)]):
        if small:
            m, n = min(m, 60), min(n, 40)
        yield f"random{seed}", gen_random(RandomSpec(
            m=m, n=n, density=density, weight_lo=Fraction(1, 3), weight_hi=Fraction(7), seed=seed))


WRITER_CASES = [name for name, _ in _writer_cases(small=True)] + ["edges"]


@pytest.fixture(scope="module")
def writer_cases():
    return dict(_writer_cases())


class TestBlockWriter:
    """write_native against the frozen per-set writer, byte for byte."""

    @pytest.mark.parametrize("name", WRITER_CASES)
    def test_same_bytes_as_the_per_set_writer(self, writer_cases, name):
        inst = writer_cases[name]
        assert write_native(inst) == seed_writer.write_native(inst)

    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_any_block_size_writes_the_same_bytes(self, block):
        # every set starts or ends inside a block, or spans several
        cases = [inst for _, inst in _writer_cases(small=True)]
        expected = [seed_writer.write_native(inst) for inst in cases]
        with mock.patch.object(instance, "WRITE_BLOCK", block):
            assert [write_native(inst) for inst in cases] == expected

    def test_ids_at_every_power_of_ten(self):
        ids = [e for k in range(1, 19) for e in (10**k - 1, 10**k)] + [2**63 - 1]
        breaks = np.array([0, 5, 18, len(ids) - 1])
        text, offsets = instance._id_text(np.array(ids, np.int64), breaks)
        seps = [("\n" if i in breaks else " ") for i in range(len(ids))]
        assert text == "".join(f"{e}{sep}" for e, sep in zip(ids, seps))
        assert offsets.tolist() == [0, *np.cumsum([len(str(e)) + 1 for e in ids]).tolist()]

    def test_memory_bound(self):
        # the per-set writer peaked at 6.0 MB on gf2(10), a 2.1 MB text
        inst = gen_gf2(10)
        tracemalloc.start()
        try:
            write_native(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


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


def orlib_text(inst):
    """The OR-Library text of an instance, one row per line."""
    rows = [[] for _ in range(inst.m)]
    for j, entry in enumerate(inst.sets, start=1):
        for e in entry.elements:
            rows[e - 1].append(str(j))
    return "\n".join([f"{inst.m} {inst.n}", " ".join(format_weight(e.weight) for e in inst.sets),
                      *(" ".join([str(len(row)), *row]) for row in rows)]) + "\n"


@pytest.fixture(scope="class")
def multi_block_texts():
    """gf2(10)'s native text (2.1 MB) and a random OR-Library text (0.8 MB)
    with p/q costs, each with its parser."""
    spec = RandomSpec(m=4000, n=1000, density=0.05, weight_lo=Fraction(1),
                      weight_hi=Fraction(10), seed=3)
    return [(write_native(gen_gf2(10)), parse_native), (orlib_text(gen_random(spec)), parse_orlib)]


class TestBlockScan:
    def test_any_block_size_reads_the_same_instance(self, multi_block_texts):
        for text, parse in multi_block_texts:
            assert len(text) > 10 * instance.SCAN_BLOCK
            whole = parse(text)
            with mock.patch.object(instance, "SCAN_BLOCK", 4096):
                assert parse(text) == whole

    def test_parse_memory_is_linear_in_the_text(self, multi_block_texts):
        # the whole-text scan peaked at 19x the text on both; the result
        # alone is about 2x (an int64 per element).  One "+" token, one
        # U+3000 or a trailing token sent a text through a token walk, which
        # peaked at 20-24x
        (native, _), (orlib, _) = multi_block_texts
        texts = [*multi_block_texts,
                 (native.replace(" 1023\n", " +1023\n", 1), parse_native),
                 (native.replace(" ", "\u3000", 1), parse_native),
                 (orlib + "x\n", parse_orlib)]
        for text, parse in texts:
            tracemalloc.start()
            try:
                if text.endswith("x\n"):
                    with pytest.raises(ScpSyntaxError, match="trailing token 'x'"):
                        parse(text)
                else:
                    parse(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * len(text)

    @pytest.mark.parametrize("text, parse", [
        ("scp 1\n1 1\n1 1 " + "a" * (4 << 20), parse_native),  # the last token
        ("scp 1\n1 1\n" + "a" * (4 << 20) + " 1 1\n", parse_native),  # a weight
        ("1 1\n" + "a" * (4 << 20) + "\n1 1\n", parse_orlib),  # a cost
    ])
    def test_long_token_memory_is_linear_in_the_text(self, text, parse):
        # a 4 MB token of letters cost the scan two int64 per byte: 20x the text
        _assert_frozen_error_in_linear_memory(text, parse)

    @pytest.mark.parametrize("text, parse", [
        ("x " * (1 << 20), parse_native),
        ("scp 2\n" + "x " * (1 << 20), parse_native),
        ("scp 1\n3 y\n" + "x " * (1 << 20), parse_native),
        ("scp 1\n3", parse_native),
        ("x " * (1 << 20), parse_orlib),
        ("0 4\n" + "x " * (1 << 20), parse_orlib),
    ], ids=["magic", "version", "n", "end", "orlib_m", "orlib_zero"])
    def test_a_bad_header_is_raised_before_the_scan(self, text, parse):
        # the scan of the whole text ran first: 2 MB of one-letter tokens, five
        # int64 each besides one, peaked at 48x the text
        _assert_frozen_error_in_linear_memory(text, parse)

    @pytest.mark.parametrize("token, value", [(-1, "1024"), (0, "-1")], ids=["id", "weight"])
    def test_a_late_invalid_set_is_named_in_linear_memory(self, multi_block_texts, token, value):
        # validate named the fault by building every set's SetEntry from set 0
        # on: 12.3x the text for an id past m = 1023 in gf2(10)'s last set
        head, line = multi_block_texts[0][0].rstrip("\n").rsplit("\n", 1)
        tokens = line.split(" ")
        tokens[token] = value
        text = f"{head}\n{' '.join(tokens)}\n"
        with pytest.raises(InvalidInstance) as expected:
            seed_parsers.parse_native(text)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInstance) as raised:
                parse_native(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * len(text)
        assert ((type(raised.value), str(raised.value), raised.value.set_index)
                == (type(expected.value), str(expected.value), expected.value.set_index))
        assert raised.value.set_index == 1022


def _assert_frozen_error_in_linear_memory(text, parse):
    """parse raises on text what the frozen parser raises, peaking below 6x the text."""
    frozen = getattr(seed_parsers, parse.__name__)
    with pytest.raises(ScpSyntaxError) as expected:
        frozen(text)
    tracemalloc.start()
    try:
        with pytest.raises(ScpSyntaxError) as raised:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * max(len(text), 4096)
    assert ((str(raised.value), raised.value.line, raised.value.column)
            == (str(expected.value), expected.value.line, expected.value.column))


class TestStandIn:
    def test_spaces_past_ascii_are_those_of_str_methods(self):
        # the stand-in's table: the separators of str.split() past ASCII,
        # and which of them str.splitlines() breaks lines at
        wide = [chr(c) for c in range(128, sys.maxunicode + 1) if chr(c).isspace()]
        assert [c for c in wide if instance._WIDE_SPACE.fullmatch(c)] == wide
        assert sum(1 for _ in instance._WIDE_SPACE.finditer("".join(wide))) == len(wide)
        breaks = [c for c in wide if len(f"a{c}b".splitlines()) == 2]
        assert breaks == ["\x85", "\u2028", "\u2029"]
        ascii_breaks = [chr(c) for c in range(128) if len(f"a{chr(c)}b".splitlines()) == 2]
        assert sorted(ascii_breaks) == sorted(instance._LINE_BREAKS)


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

    @pytest.mark.parametrize("form", ["{}", "-{}.5", "0.{}", "1/{}", "{}/3", "1.{}e-2"])
    @pytest.mark.parametrize("underscores", [False, True])
    def test_digit_runs_at_the_limit_are_taken_as_fraction_takes_them(self, form, underscores):
        limit = sys.get_int_max_str_digits()
        for digits in (limit - 1, limit, limit + 1):
            run = "_".join("7" * digits) if underscores else "7" * digits
            token = form.format(run)
            try:
                expected = Fraction(token)
            except ValueError:
                with pytest.raises(ValueError, match="a run of digits is past"):
                    parse_weight(token)
            else:
                assert digits <= limit
                assert parse_weight(token) == expected

    def test_long_fraction_is_refused_before_it_is_built(self):
        # Fraction builds 10**len(digits) before int() refuses the digits
        with pytest.raises(ValueError, match="a run of digits is past the 4300-digit limit"):
            parse_weight("1." + "0" * 2**20)

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


@st.composite
def raw_native(draw):
    """(m, [(elements, weight)]) across m = 64, valid or not: empty sets, ids
    out of range, gaps and negative weights all come up."""
    m = draw(st.integers(1, 130))
    sets = [(draw(st.lists(st.integers(-1, m + 2), unique=True, max_size=8)),
             Fraction(draw(st.integers(-2, 30)), draw(st.integers(1, 6))))
            for _ in range(draw(st.integers(0, 5)))]
    if sets and draw(st.booleans()):  # cover the universe, but for at most one gap
        gap = draw(st.integers(1, 2 * m))
        held = {e for els, _ in sets for e in els}
        sets[0] = (sets[0][0] + sorted(set(range(1, m + 1)) - held - {gap}), sets[0][1])
    return m, sets


def _read(build):
    try:
        inst = build()
        validate(inst)
    except InvalidInstance as exc:
        return (type(exc), str(exc), exc.set_index, getattr(exc, "missing_element", None))
    return element_masks(inst), element_sets(inst), set_sizes(inst), write_native(inst)


class TestBuiltAgreesWithParsed:
    @settings(max_examples=300, deadline=None)
    @given(raw_native())
    def test_same_error_or_same_views(self, raw):
        m, sets = raw
        text = f"scp 1\n{m} {len(sets)}\n" + "".join(
            f"{format_weight(w)} {len(els)} {' '.join(map(str, els))}\n" for els, w in sets)
        assert _read(lambda: make_instance(m, sets)) == _read(lambda: parse_native(text))
