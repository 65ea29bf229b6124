"""The generating tree of the spherical permutations.

The spherical permutations avoid the catalog's 21 patterns of degree 5, so
deleting the maximum from a member of degree n+1 leaves a member of degree
n.  Each member of degree n+1 is thus a member w of degree n with n+1
inserted at one site, site s putting it after the first s letters of w.
``density_table`` counts the class on this tree (West, Discrete Math. 157,
1996), at a cost that follows the class size, not n!.  The members through
degree 5 are read off the catalog (``_seed``), so the walk starts from
those of degree min(5, max_n-2).  It builds members depth-first down to
degree max_n-2 and counts the last two degrees from their sites
(``_site_pass``, ``_child_site_counts``).  Its blocks go to the scan
driver of ``cross_check`` (``classify._scan``): from ``DENSITY_BOUND`` up,
the subtree below each root is a block of its own; below it the roots are
one block, run in-process, since a pool costs more to start than such a
walk takes.  No decider is read here.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import NamedTuple, Sequence

from .classify import _scan, catalog
from .permutations import _check_degree

DENSITY_BOUND = 10


class DensityRow(NamedTuple):
    """One degree's spherical count: (n, spherical, n!, spherical/n!)."""

    n: int
    spherical: int
    total: int
    ratio: float


def _site_pass(w: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Two sweeps and one pass over the spherical word w, where M = len(w)+1
    is inserted: O(n log n) steps, besides the memory moves of inserting
    into two sorted lists.  It returns the allowed sites, in increasing
    order; the middles, the positions j where a "1" and a "2" of the 321
    half exist with w_j as the "3"; and ``reach_at``, whose entry at site
    t is the greatest ``reach`` among the j whose ``opens`` is t, or -1
    (both are defined below).  A child with M at a site s in opens..reach
    of some j has M as that j's "4" in the 3412 half.

    w avoids the catalog, so an occurrence in a child uses the new
    maximum, and only as its "5".  The catalog's positional tests (in
    ``classify``, ``_position_test_321`` and ``_position_test_3412``) read as
    forbidden sites on w: a prefix of sites, and one stretch per middle
    entry of the 321 half.  The pass runs over j from right to left
    beside the sorted values after j, and reads each test on j off the
    sweeps' tables in O(1) steps or one bisection.  The prefix, the
    stretches and ``reach_at`` only take maxima and minima, so the order
    of j does not matter.
    """
    n = len(w)
    # Left to right: pos[v], the position of v; asc[r], the greatest w_a
    # with a < b < r and w_a < w_b, or 0 (the predecessor of each w_b in
    # the sorted prefix before it).
    pos = [-1] * (n + 1)
    asc = [0] * (n + 1)
    seen: list[int] = []
    low = 0
    for i, v in enumerate(w):
        pos[v] = i
        k = bisect.bisect_right(seen, v)
        if k and seen[k - 1] > low:
            low = seen[k - 1]
        seen.insert(k, v)
        asc[i + 1] = low
    # premax[r]: the greatest of w[:r], or 0.  Down the values: rises[v],
    # the u < v with u before u+1, so that u..v sit right to left exactly
    # when rises[u] == rises[v]; last_upto[v], the last position holding
    # a value at most v, or -1.
    premax = [0, *itertools.accumulate(w, max)]
    rises = [0, 0, *itertools.accumulate(map(operator.lt, pos[1:], pos[2:]))]
    last_upto = list(itertools.accumulate(pos, max))
    prefix = -1  # sites 0..prefix are forbidden
    start = n + 1  # sites start..j are forbidden by a middle at or past j
    sites = [n]  # sites past prefix are allowed exactly when listed here
    middles = []
    reach_at = [-1] * (n + 1)
    after: list[int] = []  # the values after j, sorted
    for j in range(n - 1, -1, -1):
        wj = w[j]
        below = bisect.bisect_right(after, wj)  # the values below w_j after j
        # opens: the least site s such that a value above w_j lies after j
        # or among the first s letters of w; n+1 when none is above w_j.
        # least: the least value above w_j after j, or n+1.
        if below < len(after):
            opens, least = 0, after[below]
        else:
            opens, least = bisect.bisect_right(premax, wj), n + 1
        # 321 half, w_j the "3": a "1" at k > j with w_k < w_j and a "2"
        # valued in (w_k, w_j) before j or after k.  Such a "1" exists
        # unless the values below w_j after j are w_j-1, ..., w_j-L in that
        # order, as in the ``pattern`` search: unless the values from
        # their least, after[0], to w_j-1 sit right to left, all after j.
        # The new "5" must then come before j, with a "4" (any value above
        # w_j) before it or after j: sites opens..j are forbidden.
        if below and (rises[wj - 1] != rises[after[0]] or pos[wj - 1] < j):
            middles.append(j)
            if opens:
                start = min(start, opens)
            elif j > prefix:
                prefix = j
        if start > j:
            sites.append(j)
        # 3412 half, w_j the "2": a "4" at i < j with w_i > w_j, a "3"
        # valued in (w_j, w_i) before i or after j, and a "1" (any value
        # below w_j) after i, the latest at last_upto[w_j - 1].  Among the
        # values above w_j before both, such a "4" exists unless they fall
        # (asc[reach] <= w_j) and the first of them, premax[reach], is below
        # every value above w_j after j.  The new "5" must then come before
        # both j and that "1".
        reach = j if below else last_upto[wj - 1]
        first = premax[reach]
        if reach > prefix and first > wj and (asc[reach] > wj or first > least):
            prefix = reach
        # In a child with M at a site s <= reach, M is such a "4", with a
        # "3" exactly when s >= opens; M+1 is then forbidden at 0..reach+1.
        if reach >= opens and reach > reach_at[opens]:
            reach_at[opens] = reach
        after.insert(below, wj)
    sites.reverse()
    del sites[: bisect.bisect_right(sites, prefix)]
    middles.reverse()
    return sites, middles, reach_at


def _child_site_counts(w: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The allowed sites of the spherical word w and, for each site s, the
    number of allowed sites of the child made by inserting M = len(w)+1
    at s, all from ``_site_pass`` over w and one table of site counts.

    The child's sites are w's, lifted: s splits into s and s+1, and every
    later site moves up by one.  Any occurrence that the child's next
    maximum M+1 completes without M would also be completed in w by
    inserting M at the matching site.  So the lifted sites are all that
    can remain, and only an occurrence with M as its "4" removes any.  In
    the child's numbering, M+1 is then forbidden at sites 0..(the last
    middle before s), at sites s+1..(the last middle)+1 when a middle lies
    at or after s, and at sites 0..r+1 when r, the greatest reach among
    the j whose opens is at most s, is at least s.
    """
    sites, middles, reach_at = _site_pass(w)
    reach_from = list(itertools.accumulate(reach_at, max))
    last = middles[-1] if middles else -1
    # past[x + 1]: the sites of w past x, for x in -1..len(w)
    past = [0] * (len(w) + 2)
    for s in sites:
        past[s] = 1
    past = list(itertools.accumulate(past[::-1]))[::-1]

    counts = []
    for s in sites:
        reach = reach_from[s]
        if reach >= s:
            # sites 0..reach+1 take s, s+1 and each t+1 with t <= reach
            counts.append(past[max(reach, last) + 1])
            continue
        i = bisect.bisect_left(middles, s)
        before = middles[i - 1] if i else -1
        # what remains: the sites of w in (before, s], s+1 unless a middle
        # lies at or after s, and t+1 for each site t of w past s and last
        counts.append(past[before + 1] - past[s + 1] + (last < s) + past[max(s, last) + 1])
    return sites, counts


@functools.cache
def _seed(degree: int) -> tuple[tuple[int, ...], ...]:
    """The members of the given degree, at most 5, in lexicographic order:
    the words of S_degree outside the catalog."""
    blocked = {p.oneline for p in catalog().all}
    return tuple(
        w for w in itertools.permutations(range(1, degree + 1)) if w not in blocked
    )


def _count_subtree(args: tuple[Sequence[tuple[int, ...]], int]) -> list[int]:
    """Members of each degree n+1..max_n below ``roots``, which are
    members of one degree n <= max_n-2, walked depth-first; the last two
    degrees are counted from the sites alone."""
    roots, max_n = args
    base = len(roots[0])
    counts = [0] * (max_n - base)
    stack = list(roots)
    while stack:
        w = stack.pop()
        n = len(w)
        depth = n - base
        if n + 2 < max_n:
            sites = _site_pass(w)[0]
            top = (n + 1,)
            stack.extend(w[:s] + top + w[s:] for s in sites)
        else:
            sites, grandchildren = _child_site_counts(w)
            counts[depth + 1] += sum(grandchildren)
        counts[depth] += len(sites)
    return counts


def density_table(
    max_n: int, *, force: bool = False, jobs: int = 1
) -> list[DensityRow]:
    """Spherical counts and densities for every degree 1..max_n, one
    ``DensityRow`` per degree, counted on the generating tree.

    The default bound is degree 10; ``force=True`` overrides it.  Below the
    bound the walk runs in-process for any ``jobs``; from the bound up it
    runs on at most ``jobs`` worker processes.

    >>> density_table(5)[-1]
    DensityRow(n=5, spherical=99, total=120, ratio=0.825)
    """
    _check_degree(max_n)
    if max_n > DENSITY_BOUND and not force:
        raise ValueError(
            f"degree {max_n} exceeds the density bound {DENSITY_BOUND}; "
            "pass --force (force=True) to run anyway"
        )
    top = max_n if max_n <= 5 else min(5, max_n - 2)
    roots = _seed(top)
    counts = [math.factorial(k) for k in range(1, top)] + [len(roots)]
    if max_n == top:
        chunks = []
    elif max_n < DENSITY_BOUND:
        chunks = [(roots, max_n)]
    else:
        chunks = [((w,), max_n) for w in roots]
    below = _scan(_count_subtree, chunks, jobs)
    counts.extend(sum(col) for col in zip(*below))
    return [
        DensityRow(n, count, math.factorial(n), count / math.factorial(n))
        for n, count in enumerate(counts, start=1)
    ]
