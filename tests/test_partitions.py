from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multida import ValidationError
from multida.partitions import (
    MAX_CLASSES,
    MAX_INDEXED_CLASSES,
    PartitionSet,
    allocation_matrix,
    bell_number,
    build_partition_set,
    canonicalize,
    enumerate_exhaustive,
    group_index,
    one_vs_rest_columns,
    ordinal_columns,
    refines,
)

from oracles import all_partitions_blocks, bell_triangle, partition_blocks_from_column

# The three-class matrices used throughout: five exhaustive partitions
# (canonical order) and the allocation matrix for the equivalent
# non-canonical column ordering 111,121,112,211,123.
K3_CANONICAL = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)]
K3_ALT_ORDER = [(1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 1), (1, 2, 3)]
K3_ALT_A = np.array(
    [[1, 2, 4, 7, 8], [1, 3, 4, 6, 9], [1, 2, 5, 6, 10]]
)


class TestEnumeration:
    def test_two_classes(self):
        assert enumerate_exhaustive(2) == [(1, 1), (1, 2)]

    def test_three_classes_matches_known_matrix(self):
        # same partitions as 111,121,112,211,123 after canonical relabeling
        got = enumerate_exhaustive(3)
        assert got == K3_CANONICAL
        assert {partition_blocks_from_column(c) for c in got} == {
            partition_blocks_from_column(c) for c in K3_ALT_ORDER
        }

    def test_five_classes_count(self):
        # independent oracle: recursive block-insertion enumerator
        assert len(enumerate_exhaustive(5)) == len(all_partitions_blocks(list(range(5))))
        assert len(enumerate_exhaustive(5)) == 52

    @pytest.mark.parametrize("k", range(1, 10))
    def test_counts_match_bell_triangle(self, k):
        assert len(enumerate_exhaustive(k)) == bell_triangle(k)
        assert bell_number(k) == bell_triangle(k)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_partitions_are_exactly_all_set_partitions(self, k):
        got = {partition_blocks_from_column(c) for c in enumerate_exhaustive(k)}
        want = {
            frozenset(frozenset(b) for b in blocks)
            for blocks in all_partitions_blocks(list(range(1, k + 1)))
        }
        assert got == want

    def test_null_first_and_sorted(self):
        for k in (1, 2, 4, 7, 9):
            cols = enumerate_exhaustive(k)
            assert cols[0] == (1,) * k
            keys = [(max(c), c) for c in cols]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_guard_refuses_large_k(self):
        assert MAX_CLASSES == 9
        message = (r"exhaustive enumeration for K=10 would produce B_10 columns; .*"
                   r"\(B_10 = 115,975, B_15 = 1,382,958,545\), so it takes K <= 9\.$")
        with pytest.raises(ValidationError, match=message):
            enumerate_exhaustive(10)
        with pytest.raises(ValidationError, match=message):
            build_partition_set(10)

    def test_bounds_of_the_class_count(self):
        assert bell_number(0) == 1
        with pytest.raises(ValidationError, match="nonnegative"):
            bell_number(-1)
        with pytest.raises(ValidationError, match="at least 1"):
            enumerate_exhaustive(0)
        with pytest.raises(ValidationError, match="at least 1"):
            build_partition_set(0, "onevsrest")

    def test_huge_class_count_refused_without_computing_its_count(self):
        # the messages name B_K and 2^(K-1) but compute neither
        with pytest.raises(ValidationError, match="K=20000 would produce B_20000 columns"):
            enumerate_exhaustive(20000)
        with pytest.raises(ValidationError, match="K=20000 would have 2\\^19999 columns"):
            ordinal_columns(20000)

    def test_every_scheme_refuses_more_classes_than_a_mask_holds(self):
        # class subsets are int64 bitmasks: K=63 sets its sign bit never
        assert MAX_INDEXED_CLASSES == 63
        full = build_partition_set(63, "onevsrest").subsets.masks.max()
        assert full == 2 ** 63 - 1
        message = "K=64 classes is more than the 63 a hypothesis set takes"
        with mock.patch("multida.partitions._partition_set_from_columns") as built:
            for scheme in ("exhaustive", "onevsrest", "ordinal", np.ones((64, 1), int)):
                with pytest.raises(ValidationError, match=message):
                    build_partition_set(64, scheme)
        built.assert_not_called()


class TestCanonicalization:
    def test_known_relabeling(self):
        assert canonicalize((2, 1, 1)) == (1, 2, 2)
        assert canonicalize((3, 1, 2)) == (1, 2, 3)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    def test_idempotent(self, labels):
        once = canonicalize(labels)
        assert canonicalize(once) == once

    @given(
        st.lists(st.integers(1, 5), min_size=2, max_size=7),
        st.randoms(use_true_random=False),
    )
    def test_permutation_equivalence(self, labels, rnd):
        # relabeling groups never changes the canonical form
        values = sorted(set(labels))
        permuted = values[:]
        rnd.shuffle(permuted)
        mapping = dict(zip(values, permuted))
        relabeled = [mapping[v] for v in labels]
        assert canonicalize(relabeled) == canonicalize(labels)


class TestDerivedStructures:
    def test_alternate_column_order_reproduces_reference_allocation(self):
        g, z, a = allocation_matrix(K3_ALT_ORDER)
        assert np.array_equal(a, K3_ALT_A)
        assert z.tolist() == [1, 3, 5, 7, 10]

    def test_canonical_allocation_matrix(self):
        ps = build_partition_set(3, "exhaustive")
        assert np.array_equal(
            ps.A, np.array([[1, 2, 4, 6, 8], [1, 2, 5, 7, 9], [1, 3, 4, 7, 10]])
        )
        # same allocation structure as the alternate ordering: each column
        # realizes the same partition with shifted slot offsets
        assert ps.G.tolist() == [1, 2, 2, 2, 3]
        assert ps.nu.tolist() == [0, 1, 1, 1, 2]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest", "ordinal"])
    def test_allocation_invariants(self, k, scheme):
        ps = build_partition_set(k, scheme)
        assert np.all(ps.A >= 1) and np.all(ps.A <= ps.z[-1])
        for m in range(ps.M):
            assert len(set(ps.A[:, m])) == ps.G[m]
        assert len(set(ps.A[:, 0])) == 1  # null column is constant

    def test_qda_degrees_of_freedom(self):
        ps = build_partition_set(3, "exhaustive", variance_mode="unequal")
        assert ps.nu.tolist() == [0, 2, 2, 2, 4]


class TestSubsetIndex:
    @pytest.mark.parametrize("scheme,k", [
        *((scheme, k) for k in (2, 3, 4, 5) for scheme in ("exhaustive", "onevsrest", "ordinal")),
        ("exhaustive", 8),
    ])
    def test_slots_columns_and_classes_map_onto_their_subsets(self, scheme, k):
        ps = build_partition_set(k, scheme)
        idx = ps.subsets
        masks = idx.masks.tolist()
        assert len(set(masks)) == len(masks)
        # every slot's row is the set of classes the allocation sends there
        slot_masks = np.zeros(ps.n_slots, dtype=np.int64)
        for c, slots in enumerate(ps.A - 1):  # one slot per column: no repeats
            slot_masks[slots] |= 1 << c
        assert idx.masks[idx.slot_rows].tolist() == slot_masks.tolist()
        # each group row lists the columns that hold it, ascending; a row
        # that is only a prefix lists none
        starts = np.concatenate(([0], ps.z[:-1]))
        holding = [set(slot_masks[s:e].tolist()) for s, e in zip(starts, ps.z)]
        for r, held in enumerate(idx.row_columns):
            assert held.tolist() == [m for m in range(ps.M) if masks[r] in holding[m]]
        group_rows = set(idx.slot_rows.tolist())
        assert {r for r, held in enumerate(idx.row_columns) if held.size} == group_rows
        # each rank's columns are a suffix, and the ranks walk each
        # column's groups in slot order
        walked = {m: [] for m in range(ps.M)}
        for hyps, rows in idx.column_groups:
            assert isinstance(hyps, slice) and hyps.stop == ps.M
            for m, r in zip(range(hyps.start, ps.M), rows, strict=True):
                walked[m].append(int(r))
        assert walked == {m: idx.slot_rows[starts[m]:ps.z[m]].tolist() for m in range(ps.M)}
        for c, rows in enumerate(idx.class_rows):
            assert rows.tolist() == sorted(r for r in group_rows if masks[r] >> c & 1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("scheme", ["exhaustive", "onevsrest", "ordinal"])
    def test_closed_under_dropping_the_highest_class(self, k, scheme):
        idx = build_partition_set(k, scheme).subsets
        masks = idx.masks.tolist()
        assert masks[:k] == [1 << c for c in range(k)]
        sizes = [bin(m).count("1") for m in masks]
        assert sizes == sorted(sizes)
        for r in range(k, len(masks)):
            top = 1 << int(idx.top[r])
            assert top & masks[r] and masks[r] < 2 * top  # the highest class
            assert masks[idx.prefix[r]] == masks[r] - top
            assert idx.prefix[r] < r
        assert (idx.prefix[:k] == -1).all()
        merged = [r for run in idx.runs for r in range(len(masks))[run]]
        assert merged == list(range(k, len(masks)))
        assert all(len({(sizes[r], idx.top[r]) for r in range(len(masks))[run]}) == 1
                   for run in idx.runs)

    def test_exhaustive_holds_every_subset(self):
        assert sorted(build_partition_set(5, "exhaustive").subsets.masks) == list(range(1, 32))


class TestSchemes:
    def test_one_vs_rest_k3(self):
        ps = build_partition_set(3, "onevsrest")
        assert ps.M == 4
        assert ps.G.tolist() == [1, 2, 2, 2]
        assert ps.nu.tolist() == [0, 1, 1, 1]
        assert max(ps.G) == 2

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_one_vs_rest_counts(self, k):
        assert build_partition_set(k, "onevsrest").M == k + 1

    def test_one_vs_rest_k2_collapses(self):
        # both singleton splits are the same partition of two classes
        assert one_vs_rest_columns(2) == [(1, 1), (1, 2)]

    def test_ordinal_k3(self):
        ps = build_partition_set(3, "ordinal")
        assert ps.columns == ((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3))
        assert (1, 2, 1) not in ps.columns

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_ordinal_counts(self, k):
        ps = build_partition_set(k, "ordinal")
        assert ps.M == 2 ** (k - 1)
        for col in ps.columns:  # contiguous groups only
            assert all(b - a in (0, 1) for a, b in zip(col, col[1:]))

    def test_ordinal_refused_beyond_the_exhaustive_bound(self):
        # 2^14 = 16,384 columns fit under B_9 = 21,147; 2^15 = 32,768 do not
        assert len(ordinal_columns(15)) == 2 ** 14
        with mock.patch("multida.partitions._partition_set_from_columns") as built:
            with pytest.raises(ValidationError,
                               match=r"K=16 would have 2\^15 columns, more than "
                                     r"the B_9 = 21147 .* K <= 15\.$"):
                build_partition_set(16, "ordinal")
        built.assert_not_called()
        with pytest.raises(ValidationError, match="K=20 would have"):
            ordinal_columns(20)

    def test_user_matrix_canonicalized_deduplicated(self):
        matrix = [[2, 1, 1], [1, 2, 1], [1, 2, 1]]  # columns 211, 122, 112... as rows
        ps = build_partition_set(3, np.array(matrix))
        assert ps.scheme == "user"
        assert ps.columns[0] == (1, 1, 1)  # null prepended
        assert all(canonicalize(c) == c for c in ps.columns)
        assert len(set(ps.columns)) == ps.M

    # values recorded while a matrix came with scheme="user" as a second argument
    @pytest.mark.parametrize("k, matrix, columns, A, masks", [
        (3, [[2, 1, 1], [1, 2, 1], [1, 2, 1]], ((1, 1, 1), (1, 2, 2)),
         [[1, 2], [1, 3], [1, 3]], [1, 2, 4, 3, 6, 7]),
        (4, [[1, 1], [1, 2], [1, 1], [1, 2]], ((1, 1, 1, 1), (1, 2, 1, 2)),
         [[1, 2], [1, 3], [1, 2], [1, 3]], [1, 2, 4, 8, 3, 5, 10, 7, 15]),
    ], ids=["k3-dedup", "k4-closure"])
    @pytest.mark.parametrize("variance_mode, nu", [("equal", [0, 1]), ("unequal", [0, 2])],
                             ids=["equal", "unequal"])
    def test_matrix_scheme_gives_recorded_set(self, k, matrix, columns, A, masks,
                                              variance_mode, nu):
        ps = build_partition_set(k, matrix, variance_mode=variance_mode)
        assert ps.columns == columns
        assert ps.G.tolist() == [1, 2]
        assert ps.nu.tolist() == nu
        assert ps.z.tolist() == [1, 3]
        assert ps.A.tolist() == A
        assert ps.subsets.masks.tolist() == masks

    def test_user_matrix_errors(self):
        with pytest.raises(ValidationError, match="column 2"):
            build_partition_set(3, np.array([[1, 1], [1, 3], [1, 3]]))
        # a label far past K is a gap, found without listing 1..label
        with pytest.raises(ValidationError, match=r"column 2 .* \[1, 1000000000000000000\]"):
            build_partition_set(2, [[1, 1], [1, 10**18]])
        with pytest.raises(ValidationError, match="rows"):
            build_partition_set(3, np.array([[1, 1], [1, 2]]))
        with pytest.raises(ValidationError, match="zero columns"):
            build_partition_set(3, np.empty((3, 0), dtype=int))
        with pytest.raises(ValidationError, match="partition matrix itself"):
            build_partition_set(3, "user")
        with pytest.raises(ValidationError, match="must be 2-dimensional"):
            build_partition_set(3, np.array([1, 2, 2]))


class TestGroupIndex:
    def test_lookup(self):
        assert group_index(3, (1, 1, 2)) == 2
        assert group_index(1, (1, 1, 1)) == 1
        assert group_index(2, (1, 2, 3)) == 2

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            group_index(4, (1, 1, 2))
        with pytest.raises(ValidationError):
            group_index(0, (1, 1, 2))

    def test_matches_one_hot_contraction(self):
        col = (1, 2, 1, 3)
        for k in range(1, 5):
            one_hot = np.eye(4)[k - 1]
            assert group_index(k, col) == int(one_hot @ np.array(col))


class TestRefinement:
    def test_examples(self):
        assert refines((1, 2, 3), (1, 2, 2))
        assert refines((1, 2, 2), (1, 2, 2))
        assert not refines((1, 2, 2), (1, 2, 3))
        assert not refines((1, 1, 2), (1, 2, 2))
        # every partition refines the null
        for col in enumerate_exhaustive(4):
            assert refines(col, (1, 1, 1, 1))

    def test_different_class_counts_rejected(self):
        with pytest.raises(ValidationError, match="different class counts"):
            refines((1, 2), (1, 1, 1))

    @given(st.integers(2, 5))
    @settings(max_examples=20)
    def test_last_column_refines_all(self, k):
        cols = enumerate_exhaustive(k)
        finest = cols[-1]
        assert all(refines(finest, c) for c in cols)
