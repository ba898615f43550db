import pytest

from hopfly.partitions import (
    EMPTY,
    Partition,
    hook_partition,
    partitions_of,
    partitions_up_to,
    pieri_column,
    row_partition,
)


def P(*parts):
    return Partition(tuple(parts))


# -- brute-force strip oracle, independent of the recursive generator ---------


def _contains(mu, lam):
    return all(mu.part(i) >= lam.part(i) for i in range(1, lam.length + 1))


def _added_cells(mu, lam):
    return set(mu.cells()) - set(lam.cells())


def vertical_strips_oracle(lam, k):
    out = []
    for mu in partitions_of(lam.size + k):
        if not _contains(mu, lam):
            continue
        rows = [i for (i, _) in _added_cells(mu, lam)]
        if len(rows) == len(set(rows)):
            out.append(mu)
    return sorted(out, reverse=True)


# -----------------------------------------------------------------------------


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            P(1, 2)
        with pytest.raises(ValueError):
            P(3, 0)
        # parts are ints: no float or bool is truncated or read as one
        for parts in ((2.7, 1), (2.0, 1), (True,), (2, False), ("2", 1)):
            with pytest.raises(ValueError):
                Partition(parts)
        assert Partition.of(3, 1, 0, 0) == P(3, 1)
        assert Partition([3, 1]) == P(3, 1)

    def test_text_forms(self):
        assert Partition.from_text("3,1") == P(3, 1)
        assert Partition.from_text("0") == EMPTY
        assert Partition.from_text("") == EMPTY
        assert str(P(3, 1)) == "3,1"
        assert str(EMPTY) == "0"
        with pytest.raises(ValueError):
            Partition.from_text("3,x")

    def test_conjugate_examples(self):
        assert P(3, 1).conjugate() == P(2, 1, 1)
        assert P(2, 2).conjugate() == P(2, 2)
        assert EMPTY.conjugate() == EMPTY

    def test_conjugate_is_an_involution(self):
        for lam in partitions_up_to(8):
            assert lam.conjugate().conjugate() == lam
            assert lam.size == lam.conjugate().size


class TestFrobenius:
    def test_examples(self):
        assert P(3, 1).frobenius() == ((2,), (1,))
        assert P(2, 2).frobenius() == ((1, 0), (1, 0))
        assert EMPTY.frobenius() == ((), ())
        assert P(3, 1).diagonal_length == 1
        assert P(2, 2).diagonal_length == 2

    def test_reconstruction(self):
        # a_i = lam_i - i and b_i = lam'_i - i along the diagonal
        for lam in partitions_up_to(8):
            conj = lam.conjugate()
            d = sum(1 for i in range(1, lam.length + 1) if lam.part(i) >= i)
            arms = tuple(lam.part(i) - i for i in range(1, d + 1))
            legs = tuple(conj.part(i) - i for i in range(1, d + 1))
            assert lam.frobenius() == (arms, legs)


class TestHooksAndContents:
    def test_hook_sum_decomposition(self):
        # sum of hooks = |lam| + sum of arms + sum of legs
        for lam in partitions_up_to(8):
            conj = lam.conjugate()
            arms = sum(lam.part(i) - j for (i, j) in lam.cells())
            legs = sum(conj.part(j) - i for (i, j) in lam.cells())
            assert sum(lam.hooks()) == lam.size + arms + legs

    def test_staircase_weight_identity(self):
        # sum(hl - cn - 1) over cells is even, non-negative, and equals
        # twice the staircase weight sum (i-1)*lam_i.
        for lam in partitions_up_to(8):
            total = sum(h - c - 1 for h, c in zip(lam.hooks(), lam.contents()))
            assert total >= 0 and total % 2 == 0
            assert total == 2 * sum(i * p for i, p in enumerate(lam.parts))

    def test_single_cell(self):
        lam = P(1)
        assert lam.hooks() == [1]
        assert lam.contents() == [0]


class TestIndexSets:
    def test_examples(self):
        assert set(P(3, 1).index_set(3)) == {5, 2, 0}
        assert set(P(2, 2).index_set(3)) == {4, 3, 0}
        assert EMPTY.index_set(4) == (3, 2, 1, 0)

    def test_descending_and_distinct(self):
        for lam in partitions_up_to(6):
            for n in range(lam.length, lam.length + 3):
                if n == 0:
                    continue
                idx = lam.index_set(n)
                assert list(idx) == sorted(idx, reverse=True)
                assert len(set(idx)) == n

    def test_too_small_n(self):
        with pytest.raises(ValueError):
            P(1, 1, 1).index_set(2)


class TestHookPartition:
    def test_examples(self):
        assert hook_partition(2, 3) == P(3, 1)
        assert hook_partition(1, 1) == P(1)
        assert hook_partition(3, 1) == P(1, 1, 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            hook_partition(0, 1)
        with pytest.raises(ValueError):
            hook_partition(1, 0)


class TestPieri:
    def test_column_trivials(self):
        assert pieri_column(EMPTY, 3) == [P(1, 1, 1)]
        assert pieri_column(P(2, 1), 0) == [P(2, 1)]

    def test_column_frozen_example(self):
        assert pieri_column(P(2, 1), 2) == [P(3, 2), P(3, 1, 1), P(2, 2, 1), P(2, 1, 1, 1)]

    def test_column_times_row_gives_two_hooks(self):
        for i in range(1, 5):
            for j in range(1, 5):
                got = pieri_column(row_partition(j), i)
                assert sorted(got) == sorted([hook_partition(i, j + 1), hook_partition(i + 1, j)])

    @pytest.mark.parametrize("strip", [1, 2, 3])
    def test_against_brute_force(self, strip):
        for lam in partitions_up_to(5):
            assert pieri_column(lam, strip) == vertical_strips_oracle(lam, strip)


def test_partition_enumeration_counts():
    # p(0..8) = 1 1 2 3 5 7 11 15 22
    sizes = [len(partitions_of(n)) for n in range(9)]
    assert sizes == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert len(partitions_up_to(5)) == 19
