"""Partitioning primitives: determinism, co-location, conservation."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExecutionError, attrs
from repro.core.reference import key_of
from repro.engine import broadcast, gather, repartition_by_key, round_robin, stable_hash
from repro.engine.partition import hash_key

A, B = attrs("a", "b")

# Values that collide as dict keys across types; group-by and join
# semantics key on dict equality, so the partitioner must co-locate them.
MIXED_KEYS = [0, 1, 2, -1, True, False, 0.0, -0.0, 1.0, 2.0, -1.0,
              2**40, float(2**40), 2.5, "1", "a", None]


class TestStableHash:
    def test_deterministic_across_types(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(17) == stable_hash(17)
        assert stable_hash((1, "x")) == stable_hash((1, "x"))
        assert stable_hash(None) == stable_hash(None)
        assert stable_hash(1.5) == stable_hash(1.5)

    def test_equal_dict_keys_hash_equal(self):
        """``True == 1 == 1.0`` as dict keys, so all three must hash the
        same — otherwise a hash repartition splits an equal-key group."""
        assert stable_hash(True) == stable_hash(1) == stable_hash(1.0)
        assert stable_hash(False) == stable_hash(0) == stable_hash(0.0)
        assert stable_hash(0) == stable_hash(-0.0)
        assert stable_hash(2**40) == stable_hash(float(2**40))
        assert stable_hash((True, 2.0)) == stable_hash((1, 2))

    @given(st.sampled_from(MIXED_KEYS), st.sampled_from(MIXED_KEYS))
    def test_hash_respects_key_equality(self, a, b):
        if a == b:
            assert stable_hash(a) == stable_hash(b)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.integers(-(2**70), 2**70),
                st.floats(allow_nan=False),
                st.booleans(),
                st.fractions(),
                st.decimals(allow_nan=False),
                # small values that are also exactly ints or binary floats
                st.sampled_from(
                    [0, 1, -1, 0.5, -2.25, 3, Fraction(1, 2), Fraction(3),
                     Decimal("0.5"), Decimal("-0"), Decimal("3.000"),
                     Decimal("0.1"), Fraction(1, 10), float("inf")]
                ),
            ),
            min_size=2,
            max_size=2,
        )
    )
    def test_equal_numbers_hash_equal(self, pair):
        a, b = pair
        if a == b:
            assert stable_hash(a) == stable_hash(b)

    def test_equal_exact_numbers_hash_equal(self):
        assert stable_hash(Fraction(1)) == stable_hash(1) == stable_hash(Decimal(1))
        assert stable_hash(Decimal("0.5")) == stable_hash(0.5)
        assert stable_hash(Fraction(1, 2)) == stable_hash(0.5)
        assert stable_hash(Decimal("0.1")) == stable_hash(Fraction(1, 10))
        assert stable_hash(Decimal("-Infinity")) == stable_hash(float("-inf"))
        # too large for a float: hashed by its exact ratio, no overflow
        huge = Fraction(10**400 + 1, 2)
        assert stable_hash(huge) == stable_hash(Fraction(10**400 + 1, 2))

    def test_non_integer_floats_keep_distinct_path(self):
        assert stable_hash(2.5) == stable_hash(2.5)
        assert stable_hash(float("inf")) == stable_hash(float("inf"))

    @given(st.lists(st.integers(), min_size=2, max_size=2, unique=True))
    def test_spreads_values(self, pair):
        # not a strict requirement for all pairs, but the multiplier must
        # not collapse small distinct ints
        a, b = pair
        if abs(a - b) < 1000:
            assert stable_hash(a) != stable_hash(b)


class TestHashKey:
    def test_missing_key_attribute_raises_execution_error(self):
        with pytest.raises(ExecutionError, match="missing from record at runtime"):
            hash_key({A: 1}, (B,))

    def test_repartition_propagates_missing_key_error(self):
        with pytest.raises(ExecutionError, match="missing from record at runtime"):
            repartition_by_key([[{A: 1}]], (B,), 4)


class TestRoundRobin:
    @given(st.integers(0, 50), st.integers(1, 8))
    def test_conservation_and_balance(self, n, degree):
        rows = [{A: i} for i in range(n)]
        parts = round_robin(rows, degree)
        assert len(parts) == degree
        assert sorted(r[A] for r in gather(parts)) == list(range(n))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


class TestRepartition:
    @given(st.lists(st.integers(0, 5), max_size=40), st.integers(1, 8))
    def test_key_groups_colocated(self, keys, degree):
        rows = [{A: k, B: i} for i, k in enumerate(keys)]
        parts, moved = repartition_by_key(round_robin(rows, degree), (A,), degree)
        assert 0 <= moved <= len(rows)
        # conservation
        assert sorted(r[B] for r in gather(parts)) == sorted(r[B] for r in rows)
        # co-location: every key appears in exactly one partition
        for key in set(keys):
            holders = [i for i, p in enumerate(parts) if any(r[A] == key for r in p)]
            assert len(holders) <= 1

    @given(st.lists(st.sampled_from(MIXED_KEYS), max_size=40), st.integers(1, 8))
    def test_mixed_type_key_groups_colocated(self, keys, degree):
        """Cross-type equal keys (1 / 1.0 / True) must land on one instance."""
        rows = [{A: k, B: i} for i, k in enumerate(keys)]
        parts, _ = repartition_by_key(round_robin(rows, degree), (A,), degree)
        assert sorted(r[B] for r in gather(parts)) == sorted(r[B] for r in rows)
        for key in {k for k in keys}:
            holders = [i for i, p in enumerate(parts) if any(r[A] == key for r in p)]
            assert len(holders) <= 1

    def test_placement_matches_hash(self):
        rows = [{A: 7}]
        parts, _ = repartition_by_key([rows, [], []], (A,), 3)
        expected = hash_key(rows[0], (A,)) % 3
        assert parts[expected] == rows


class TestBroadcast:
    @given(st.integers(0, 20), st.integers(1, 6))
    def test_every_instance_gets_everything(self, n, degree):
        rows = [{A: i} for i in range(n)]
        parts, moved = broadcast(round_robin(rows, degree), degree)
        assert moved == n * (degree - 1)
        for p in parts:
            assert sorted(r[A] for r in p) == list(range(n))


# -- the routing fast path against its per-record definition ----------------

ROUTE_KEYS = MIXED_KEYS + [
    0.5, -0.0, 2**70, -(2**33), "", "zz", (1, "a"), (1.0, "a"), (True, 2.5),
    ("x", (None, 2)), [1, 2], Fraction(1), Fraction(1, 3), "1.0",
]


def route_by_definition(parts, key, degree):
    """``repartition_by_key`` as written per record: ``stable_hash(key_of)``."""
    out = [[] for _ in range(degree)]
    moved = 0
    for origin, rows in enumerate(parts):
        for row in rows:
            target = stable_hash(key_of(row, key)) % degree
            moved += target != origin
            out[target].append(row)
    return out, moved


def assert_routes_like_definition(parts, key, degree):
    got, moved = repartition_by_key(parts, key, degree)
    want, want_moved = route_by_definition(parts, key, degree)
    assert moved == want_moved
    # the same row objects, in the same order, in every target
    assert [[id(r) for r in p] for p in got] == [[id(r) for r in p] for p in want]


class TestRoutingFastPath:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(ROUTE_KEYS), st.sampled_from(ROUTE_KEYS)),
                max_size=12,
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(1, 9),
        st.sampled_from([(A,), (B,), (A, B), (B, A), ()]),
    )
    def test_matches_stable_hash_of_key_of(self, origin_parts, degree, key):
        parts = [[{A: a, B: b} for a, b in rows] for rows in origin_parts]
        assert_routes_like_definition(parts, key, degree)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(), max_size=40), st.integers(1, 40))
    def test_int_keys_match_definition(self, keys, degree):
        rows = [{A: k} for k in keys]
        assert_routes_like_definition(round_robin(rows, degree), (A,), degree)

    def test_dict_equal_keys_of_other_types_route_alike(self):
        rows = [{A: k} for k in (1, 1.0, True, 0, -0.0, False, None, "1")]
        assert_routes_like_definition([rows], (A,), 7)
        got, _ = repartition_by_key([rows], (A,), 7)
        home = {id(r): i for i, p in enumerate(got) for r in p}
        assert home[id(rows[0])] == home[id(rows[1])] == home[id(rows[2])]
        assert home[id(rows[3])] == home[id(rows[4])] == home[id(rows[5])]

    def test_memo_never_crosses_types_outside_the_safe_set(self):
        """``Fraction(1) == 1.0`` but their stable hashes differ; routing
        must give each its own per-record value, in either order."""
        for first, second in ((Fraction(1), 1.0), (1.0, Fraction(1))):
            rows = [{A: first, B: 0}, {A: second, B: 0}]
            assert_routes_like_definition([rows], (A,), 11)
            assert_routes_like_definition([rows], (A, B), 11)

    @pytest.mark.parametrize("key", [(B,), (A, B), (B, A)])
    def test_missing_key_raises_key_of_error(self, key):
        row = {A: 1}
        with pytest.raises(ExecutionError) as want:
            key_of(row, key)
        with pytest.raises(ExecutionError) as got:
            repartition_by_key([[row]], key, 4)
        assert str(got.value) == str(want.value)


class TestRoundRobinOrder:
    @given(st.integers(0, 50), st.integers(1, 8))
    def test_row_i_goes_to_i_mod_degree_in_order(self, n, degree):
        rows = [{A: i} for i in range(n)]
        want = [[] for _ in range(degree)]
        for i, row in enumerate(rows):
            want[i % degree].append(row)
        got = round_robin(rows, degree)
        assert [[id(r) for r in p] for p in got] == [
            [id(r) for r in p] for p in want
        ]
