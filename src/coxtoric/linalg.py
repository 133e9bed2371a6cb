"""Exact rank of sparse integer matrices over Q.

Fraction-free sparse Gaussian elimination: pivots of absolute value 1 are
preferred (integer row updates, no growth from division); otherwise the row
being reduced is rescaled by the pivot and divided by its content, so entries
stay integers throughout. Pivot choice is a cheap Markowitz heuristic:
shortest active row first (ties to the lowest row index), then the sparsest
column within it.

The shortest row comes from a heap of (length, row index) entries with lazy
re-push: every row is pushed once at the start, and every row that an
elimination step changes without emptying is pushed again with its new
length. An entry whose row is gone, or whose length no longer matches, is
stale and skipped on pop. Each active row always has an entry with its
current key, so a pop yields exactly the row a scan over all active rows
would pick, at logarithmic instead of linear cost per pivot.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def sparse_rank(rows) -> int:
    """Rank over Q of the matrix whose rows are {column: nonzero int} dicts."""
    active: dict[int, dict] = {}
    col_rows: dict[int, set] = {}
    for ridx, row in enumerate(rows):
        r = {c: v for c, v in row.items() if v}
        if r:
            active[ridx] = r
            for c in r:
                col_rows.setdefault(c, set()).add(ridx)

    heap = [(len(r), ridx) for ridx, r in active.items()]
    heapify(heap)
    rank = 0
    while active:
        length, ridx = heappop(heap)
        if len(active.get(ridx, ())) != length:
            continue
        row = active.pop(ridx)
        rank += 1
        best_key = None
        pivot_col = None
        for c, v in row.items():
            key = (0 if v in (1, -1) else 1, len(col_rows[c]), c)
            if best_key is None or key < best_key:
                best_key, pivot_col = key, c
        for c in row:
            col_rows[c].discard(ridx)
        pivot_val = row[pivot_col]

        for sidx in list(col_rows[pivot_col]):
            srow = active[sidx]
            coef = srow[pivot_col]
            if pivot_val in (1, -1):
                mult = -coef * pivot_val
                _add_multiple(srow, row, mult, sidx, col_rows)
            else:
                g = gcd(abs(pivot_val), abs(coef))
                scale = pivot_val // g
                mult = -(coef // g)
                if scale != 1:
                    for c in srow:
                        srow[c] *= scale
                _add_multiple(srow, row, mult, sidx, col_rows)
                _reduce_content(srow)
            if srow:
                heappush(heap, (len(srow), sidx))
            else:
                del active[sidx]
    return rank


def _add_multiple(target, source, mult, tidx, col_rows):
    for c, v in source.items():
        new = target.get(c, 0) + mult * v
        if new:
            if c not in target:
                col_rows.setdefault(c, set()).add(tidx)
            target[c] = new
        elif c in target:
            del target[c]
            col_rows[c].discard(tidx)


def _reduce_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return
    if g > 1:
        for c in row:
            row[c] //= g
