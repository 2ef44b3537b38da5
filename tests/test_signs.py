import itertools
import math

import pytest
from hypothesis import given, strategies as st

from linfty import signs
from linfty.signs import iter_shuffles, koszul_sign, shuffle_table


def koszul_by_inversions(order, degs) -> int:
    """Independent closed form: product over inversion pairs of the reordered word."""
    sign = 1
    for a, b in itertools.combinations(range(len(order)), 2):
        if order[a] > order[b] and degs[order[a]] % 2 and degs[order[b]] % 2:
            sign = -sign
    return sign


def koszul_by_adjacent_swaps(order, degs, swap=lambda d, e: -1 if d % 2 and e % 2 else 1) -> int:
    """Bubble the word into ``order``; each swap of neighbours of degrees d, e gives ``swap(d, e)``."""
    current = list(range(len(order)))
    sign = 1
    for slot, want in enumerate(order):
        j = current.index(want, slot)
        while j > slot:
            sign *= swap(degs[current[j - 1]], degs[current[j]])
            current[j - 1], current[j] = current[j], current[j - 1]
            j -= 1
    return sign


def antisym_by_adjacent_swaps(order, degs) -> int:
    """The skew-symmetric action: each swap gives -(-1)^(d e)."""
    return koszul_by_adjacent_swaps(order, degs, lambda d, e: 1 if d % 2 and e % 2 else -1)


def antisym(order, degs) -> int:
    """Parity times Koszul sign; the parity is the Koszul sign on all-odd degrees."""
    return koszul_sign(order, (1,) * len(order)) * koszul_sign(order, degs)


orders = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.permutations(list(range(n))))


def order_and_degs(max_deg=3):
    return orders.flatmap(
        lambda order: st.tuples(
            st.just(tuple(order)),
            st.lists(
                st.integers(min_value=-max_deg, max_value=max_deg),
                min_size=len(order),
                max_size=len(order),
            ).map(tuple),
        )
    )


def shuffle_count(blocks) -> int:
    count, rest = 1, sum(blocks)
    for b in blocks:
        count *= math.comb(rest, b)
        rest -= b
    return count


class TestKoszulSign:
    def test_identity(self):
        assert koszul_sign((0, 1, 2), (5, -2, 7)) == 1

    def test_adjacent_swap_of_odd_pair(self):
        assert koszul_sign((1, 0), (1, 1)) == -1

    def test_adjacent_swap_mixed(self):
        assert koszul_sign((1, 0), (1, 2)) == 1

    def test_three_cycle(self):
        # oracle: inversion closed form gives -1 for this word
        order = (1, 2, 0)
        assert koszul_by_inversions(order, (1, 1, 2)) == -1
        assert koszul_sign(order, (1, 1, 2)) == -1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            koszul_sign((1, 0), (1, 1, 1))

    def test_not_a_reordering(self):
        with pytest.raises(ValueError):
            koszul_sign((0, 0, 2), (1, 1, 1))
        with pytest.raises(ValueError):
            koszul_sign((1, 2, 3), (1, 1, 1))

    @given(order_and_degs())
    def test_matches_inversion_oracle(self, od):
        order, degs = od
        assert koszul_sign(order, degs) == koszul_by_inversions(order, degs)

    @given(order_and_degs())
    def test_matches_adjacent_swap_oracle(self, od):
        order, degs = od
        assert koszul_sign(order, degs) == koszul_by_adjacent_swaps(order, degs)

    @given(order_and_degs())
    def test_all_even_degrees_give_plus(self, od):
        order, degs = od
        even = tuple(2 * d for d in degs)
        assert koszul_sign(order, even) == 1

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.permutations(list(range(n))),
                st.permutations(list(range(n))),
                st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            )
        )
    )
    def test_multiplicative(self, draw):
        tau, sigma, degs = (tuple(x) for x in draw)
        # the word reordered by tau has degrees degs[tau[i]]; sigma then reorders that word
        reordered_degs = tuple(degs[t] for t in tau)
        composed = tuple(tau[s] for s in sigma)
        assert koszul_sign(composed, degs) == koszul_sign(sigma, reordered_degs) * koszul_sign(
            tau, degs
        )


class TestAntisymSign:
    """The skew-symmetric sign, parity times Koszul sign, from two ``koszul_sign`` calls."""

    def test_identity(self):
        assert antisym((0, 1), (1, 1)) == 1

    def test_swap(self):
        # koszul part is +1 for degrees (1,2); parity contributes -1
        assert antisym((1, 0), (1, 2)) == -1

    def test_three_cycle(self):
        assert antisym((1, 2, 0), (1, 1, 2)) == -1

    @given(order_and_degs())
    def test_factorization(self, od):
        order, degs = od
        assert antisym(order, degs) == antisym_by_adjacent_swaps(order, degs)


class TestShuffles:
    @pytest.mark.parametrize(
        "blocks,count",
        [((1, 1), 2), ((2, 1), 3), ((1, 1, 1), 6), ((2, 2), 6), ((0, 3), 1), ((3,), 1)],
    )
    def test_cardinality(self, blocks, count):
        shuffles = list(iter_shuffles(blocks, (0,) * sum(blocks)))
        assert len(shuffles) == count == shuffle_count(blocks)

    def test_multinomial_cardinality(self):
        for blocks in [(2, 3), (1, 2, 2), (2, 1, 1)]:
            n = sum(blocks)
            expected = math.factorial(n)
            for b in blocks:
                expected //= math.factorial(b)
            assert len(list(iter_shuffles(blocks, (1,) * n))) == expected

    def test_increasing_within_blocks(self):
        blocks = (2, 1, 2)
        for _, shuffle in iter_shuffles(blocks, (1,) * 5):
            assert tuple(len(block) for block in shuffle) == blocks
            for block in shuffle:
                assert list(block) == sorted(block)

    def test_all_distinct(self):
        shuffles = [blocks for _, blocks in iter_shuffles((2, 2, 1), (1,) * 5)]
        assert len(set(shuffles)) == len(shuffles)

    def test_empty_word(self):
        assert list(iter_shuffles((), ())) == [(1, ())]
        assert list(iter_shuffles((0, 0), ())) == [(1, ((), ()))]

    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3).flatmap(
            lambda blocks: st.tuples(
                st.just(tuple(blocks)),
                st.lists(
                    st.integers(min_value=-3, max_value=3), min_size=sum(blocks), max_size=sum(blocks)
                ).map(tuple),
            )
        )
    )
    def test_sign_is_koszul_sign_of_concatenation(self, draw):
        blocks, degs = draw
        seen = 0
        for sign, shuffle in iter_shuffles(blocks, degs):
            order = sum(shuffle, ())
            assert sign == koszul_by_adjacent_swaps(order, degs)
            seen += 1
        assert seen == shuffle_count(blocks)

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError):
            list(iter_shuffles((2, -1), (1,)))

    def test_sizes_must_sum_to_word_length(self):
        with pytest.raises(ValueError):
            list(iter_shuffles((1, 1), (1, 1, 1)))


class TestShuffleTables:
    @pytest.fixture
    def tables(self):
        """The process's memo, emptied first."""
        signs._TABLES.clear()
        return signs._TABLES

    @pytest.mark.parametrize("sizes", [(0,), (3,), (1, 2), (2, 0), (0, 3), (2, 2), (1, 1, 1), (2, 1, 2), (0, 2, 1)])
    def test_table_is_the_generator_read_once(self, sizes, tables):
        n = sum(sizes)
        for degs in itertools.product((-1, 0, 1, 2), repeat=n):
            table = shuffle_table(sizes, degs)
            assert table == tuple(iter_shuffles(sizes, degs))
            # the table depends on the degrees through their parities only
            assert shuffle_table(sizes, [d + 2 for d in degs]) is table
        assert len(tables) == 2**n

    def test_tables_keyed_by_sizes(self, tables):
        assert shuffle_table((1, 2), (1, 1, 1)) != shuffle_table((2, 1), (1, 1, 1))
        assert len(tables) == 2

    def test_bad_sizes_rejected(self, tables):
        with pytest.raises(ValueError):
            shuffle_table((2, 2), (1, 1, 1))
        assert not tables
