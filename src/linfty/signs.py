"""Koszul signs and signed shuffles.

Everything here is exact integer/sign arithmetic.  A word of homogeneous
elements is represented by its tuple of integer degrees; a reordering is the
tuple of 0-based positions the reordered word reads, so ``order`` turns
(a_0, ..., a_{n-1}) into (a_{order[0]}, ..., a_{order[n-1]}).  Passing all-odd
degrees gives the plain parity of a reordering.
"""
from __future__ import annotations

import itertools
from typing import Iterator, Sequence

DegreeVector = Sequence[int]
Shuffle = tuple[int, tuple[tuple[int, ...], ...]]


def koszul_sign(order: Sequence[int], degs: DegreeVector) -> int:
    """Sign of reordering a word: (-1)^(number of odd-odd pairs it inverts)."""
    n = len(degs)
    if len(order) != n:
        raise ValueError(f"reordering size {len(order)} != word length {n}")
    if sorted(order) != list(range(n)):
        raise ValueError(f"not a reordering of 0..{n - 1}: {tuple(order)}")
    odd = [p for p in order if degs[p] % 2]
    inversions = sum(1 for i, p in enumerate(odd) for q in odd[i + 1:] if p > q)
    return -1 if inversions % 2 else 1


def _blocks(
    remaining: tuple[int, ...], sizes: tuple[int, ...], odd: Sequence[int]
) -> Iterator[tuple[int, tuple[tuple[int, ...], ...]]]:
    """(odd-odd passes, blocks) of every split of ``remaining`` into blocks of ``sizes``.

    A module-level generator rather than a closure: a closure that calls
    itself holds its own cell, and every call would leave a reference cycle
    for the collector.
    """
    if len(sizes) <= 1:
        yield 0, (remaining,) * len(sizes)
        return
    for block in itertools.combinations(remaining, sizes[0]):
        rest = tuple(p for p in remaining if p not in block)
        # moving the block to the front passes each odd letter of it over
        # the odd letters of the rest that stood before it
        passed = sum(1 for p in block if odd[p] for q in rest if q < p and odd[q])
        for more, tail in _blocks(rest, sizes[1:], odd):
            yield passed + more, (block, *tail)


def iter_shuffles(sizes: Sequence[int], degs: DegreeVector) -> Iterator[Shuffle]:
    """Every shuffle of a word into consecutive blocks of the given sizes.

    Yields ``(sign, blocks)``: each block is an increasing tuple of positions,
    one per size (empty for size 0), and ``sign`` is the Koszul sign of the
    reordering ``blocks[0] + blocks[1] + ...``, counted block by block.
    """
    if any(s < 0 for s in sizes) or sum(sizes) != len(degs):
        raise ValueError(f"block sizes {tuple(sizes)} do not split a word of length {len(degs)}")
    odd = [d % 2 for d in degs]
    for passed, blocks in _blocks(tuple(range(len(degs))), tuple(sizes), odd):
        yield (-1 if passed % 2 else 1), blocks


# (sizes, degree parities) -> every signed shuffle, kept for the life of the process
_TABLES: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[Shuffle, ...]] = {}


def shuffle_table(sizes: Sequence[int], degs: DegreeVector) -> tuple[Shuffle, ...]:
    """All of ``iter_shuffles(sizes, degs)``, generated once per process for each (sizes, degree parities).

    The sign depends on the degrees only through their parities, so a table
    is kept under them and every later caller reads it.
    """
    parities = tuple(d % 2 for d in degs)
    key = (tuple(sizes), parities)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = tuple(iter_shuffles(sizes, parities))
    return table
