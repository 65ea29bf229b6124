"""Independent brute-force oracles.

These deliberately avoid the library's own search strategies: pattern
containment scans every position subset with no pruning, word counting
multiplies out every generator sequence, Bruhat covers are the swaps that
add exactly one inversion, Bruhat comparison comes from closing that
cover relation, prefix dominance compares whole sorted prefixes, and
divisibility intersects whole prefix sets.  They exist to pin expected
values, so keep them dumb.

``budgeted_words`` walks reduced words under pool budgets the plain way:
it copies the element at every step and prunes a letter only when its
pool is empty, with no crossing-number bound, so the library's pruned
walker is checked against a search that shares none of its pruning.
``first_repetition_free_word_by_walk`` runs it with one use per
generator, a search independent of the greedy descent walk beneath
``repetition_free_word``, to pin that witness past enumeration reach.
``first_word_in_w_form_allowance`` runs it over words of w itself under
the padded allowance the ``definition`` backend once searched, the
reference for its search of the quotient.

One exception runs library code: ``own_site_counts`` finds the sites of
each generating-tree member with ``_site_pass`` (itself checked
against brute force), the child-by-child derivation that the tree's walk
skips for its last degree.

``site_pass`` is the generating tree's quadratic site pass, which slices
w once per position; the library's two sweeps and one pass must return
the same sites, middles and ``reach_at``.

``catalog_certificate_by_tables`` is the ``pattern`` search as the
library ran it before its 3412 half dropped its tables: it builds the
position table and, from it, the last position of a value at most v and
the first of a value at least v, for every v, and reads the earliest 5
and the existence of a 1 off them.  The library's certificate must equal
it on every word.

``first_witness_by_sets``, ``code_by_bisect`` and ``crossings`` are the
library's divisibility search, Lehmer code sweep and crossing numbers as
it ran them before it held sets of values as the bits of an int: two
Python sets of prefix values with a running shared count, a bisected
sorted suffix, and a count of the small values per place.
``first_fitting_word_by_quotient`` is the ``definition`` search as it
was set up before it read the quotient off w: it forms q, refuses on
q's length and crossing numbers, and takes the first word
``budgeted_words`` walks.  The library's searches must return the same
values.

``sorted_prefixes`` sorts every prefix of a word once, so a check over
all pairs of a symmetric group compares whole sorted prefixes without
sorting them again for every pair.

``reverse_blocks``, ``longest_parabolic``, ``longest_below``, ``quotient``
and ``budget`` build w0(J), the parabolic quotient and the ``definition``
pools from scratch for every call, as the library did before it looked
them up by descent set; its table must give the same values.

``build_parser`` is the argparse parser the CLI read its arguments with
before its verb table, kept word for word: the table's ``parse_args``
must give the same namespace on every argv it accepts, and exit 2 on
every argv it rejects.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import math
import operator
from collections import Counter

from spherical.classify import catalog
from spherical.cli import _BACKEND_FLAGS
from spherical.permutations import GeneratorSet, Permutation, _left_descents, symmetric_group
from spherical.tree import _site_pass


def standardize(values) -> tuple[int, ...]:
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def subset_occurrences(w: Permutation, p: Permutation) -> list[tuple[int, ...]]:
    """All occurrences of p in w by scanning every position subset."""
    host = w.oneline
    out = []
    for combo in itertools.combinations(range(1, w.degree + 1), p.degree):
        if standardize([host[i - 1] for i in combo]) == p.oneline:
            out.append(combo)
    return out


def avoids_by_subsets(w: Permutation, patterns) -> bool:
    """True when no subset of w's letters standardizes to a listed pattern."""
    targets = {p.oneline for p in patterns}
    for k in {len(t) for t in targets}:
        for picked in itertools.combinations(w.oneline, k):
            if standardize(picked) in targets:
                return False
    return True


def leftmost_occurrence(w: Permutation):
    """The catalog occurrence ``explain`` names, as (positions, pattern),
    or None if w avoids the catalog.

    Every position 5-subset is scanned.  Among the occurrences of 321-half
    patterns, the one whose letters ranked 3, 5, 4, 1, 2 sit leftmost,
    compared in that order, wins; with none, the same among the 3412-half
    occurrences with the ranks taken in the order 4, 2, 5, 1, 3.
    """
    cat = catalog()
    halves = (
        ({p.oneline for p in cat.sub321}, (3, 5, 4, 1, 2)),
        ({p.oneline for p in cat.sub3412}, (4, 2, 5, 1, 3)),
    )
    for members, ranks in halves:
        found = []
        for combo in itertools.combinations(range(1, w.degree + 1), 5):
            picked = standardize([w.oneline[i - 1] for i in combo])
            if picked in members:
                key = [combo[picked.index(r)] for r in ranks]
                found.append((key, combo, Permutation(picked)))
        if found:
            _, combo, p = min(found)
            return combo, p
    return None


def inversion_count(word) -> int:
    word = list(word)
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def reduced_word_counts(n: int) -> dict[tuple[int, ...], int]:
    """The number of reduced words of every element of S_n, by one-line
    tuple, filled in by length: a word of w starts with some left descent
    i, the value i+1 left of i, and goes on with a word of w with the two
    values swapped."""
    counts: dict[tuple[int, ...], int] = {}
    for w in sorted((w.oneline for w in symmetric_group(n)), key=inversion_count):
        total = 0
        for i in range(1, n):
            a, b = w.index(i), w.index(i + 1)
            if b < a:
                below = list(w)
                below[a], below[b] = i + 1, i
                total += counts[tuple(below)]
        counts[w] = total or 1
    return counts


def lehmer_shape(w: Permutation) -> list[int]:
    """The nonzero entries of w's Lehmer code, the number of smaller values
    right of each place, sorted into a partition."""
    word = w.oneline
    code = [sum(1 for b in word[i + 1 :] if b < a) for i, a in enumerate(word)]
    return sorted((c for c in code if c), reverse=True)


def standard_tableaux(shape) -> int:
    """f^shape by Frobenius: with k rows and l_i = shape_i + k - i, it is
    m! * prod_{i<j} (l_i - l_j) / prod_i l_i!, m the number of cells."""
    k = len(shape)
    ls = [part + k - i for i, part in enumerate(shape, 1)]
    top = math.factorial(sum(shape))
    for a, b in itertools.combinations(ls, 2):
        top *= a - b
    bottom = math.prod(map(math.factorial, ls))
    assert top % bottom == 0
    return top // bottom


def generator_sequence_products(n: int, length: int) -> Counter:
    """Count every product of `length` adjacent transpositions.

    Keys are one-line tuples; the value at w counts the generator
    sequences multiplying to w.  Sequences of minimal length are exactly
    the reduced words.
    """
    counter: Counter = Counter()
    u = list(range(1, n + 1))

    def walk(depth: int) -> None:
        if depth == length:
            counter[tuple(u)] += 1
            return
        for i in range(n - 1):
            u[i], u[i + 1] = u[i + 1], u[i]
            walk(depth + 1)
            u[i], u[i + 1] = u[i + 1], u[i]

    walk(0)
    return counter


def covers_by_length(w: Permutation) -> list[Permutation]:
    """The words made from w by swapping two positions that add exactly one
    inversion, sorted: the upward Bruhat covers of w."""
    base = inversion_count(w.oneline)
    out = []
    for a, b in itertools.combinations(range(w.degree), 2):
        u = list(w.oneline)
        u[a], u[b] = u[b], u[a]
        if inversion_count(u) == base + 1:
            out.append(Permutation(tuple(u)))
    return sorted(out)


def leq_by_cover_closure(n: int) -> dict[Permutation, set[Permutation]]:
    """Reflexive-transitive closure of the upward cover relation.

    up[w] is the set of all u with w <= u, built from the top down.
    """
    by_length_desc = sorted(
        symmetric_group(n), key=lambda w: -inversion_count(w.oneline)
    )
    up: dict[Permutation, set[Permutation]] = {}
    for w in by_length_desc:
        reach = {w}
        for c in covers_by_length(w):
            reach |= up[c]
        up[w] = reach
    return up


def sorted_prefixes(w: Permutation) -> list[list[int]]:
    """The prefixes of w of length 1..n, each sorted."""
    return [sorted(w.oneline[:i]) for i in range(1, w.degree + 1)]


def dominance_failure_by_sorted_prefixes(v_sorted, w_sorted):
    """The first prefix length at which some entry of v's sorted prefix
    exceeds the matching entry of w's, comparing the whole sorted prefixes
    at every length, given as ``sorted_prefixes`` of v and of w; None if
    there is none."""
    for i, (a, b) in enumerate(zip(v_sorted, w_sorted), 1):
        if any(map(operator.gt, a, b)):
            return i
    return None


def shared_prefix_values(v: Permutation, w: Permutation, i: int) -> int:
    """How many values the length-i prefixes of v and w have in common,
    intersecting the two prefix sets afresh."""
    return len(set(v.oneline[:i]) & set(w.oneline[:i]))


def divisible_after(v: Permutation, w: Permutation, i: int) -> bool:
    """The length-i prefixes of v and w share at most i-2 values."""
    return shared_prefix_values(v, w, i) <= i - 2


def divisible_at(v: Permutation, w: Permutation, i: int) -> bool:
    """v_i equals w_i and the length-i prefixes share at most i-1 values."""
    return v(i) == w(i) and shared_prefix_values(v, w, i) <= i - 1


def first_witness_by_sets(v: tuple[int, ...], w: tuple[int, ...]):
    """``(kind, position, size)`` of the first divisibility witness of
    (v, w), v given behind a 0, or None: the prefix sets as Python sets,
    the shared count raised as each pair of values is read."""
    seen_v: set[int] = set()
    seen_w: set[int] = set()
    shared = 0
    for i, b in enumerate(w, start=1):
        a = v[i]
        if a == b:
            shared += 1
        else:
            if a in seen_w:
                shared += 1
            if b in seen_v:
                shared += 1
        seen_v.add(a)
        seen_w.add(b)
        if shared <= i - 2:
            return "after", i, shared
        if a == b and shared <= i - 1:
            return "at", i, shared
    return None


def code_by_bisect(word) -> list[int]:
    """The Lehmer code: entry i counts the smaller values right of place i,
    found by bisecting the sorted suffix."""
    seen: list[int] = []
    code: list[int] = []
    for v in reversed(word):
        k = bisect.bisect(seen, v)
        code.append(k)
        seen.insert(k, v)
    return code[::-1]


def crossings(word: tuple[int, ...]) -> list[int]:
    """c_i = #{j <= i : w_j > i} for i = 1..n-1, from the number of values
    at most i in the first i places: place i adds one when w_i <= i, and
    the value i adds one when it sits left of place i."""
    inverse = [0] * len(word)
    for p, v in enumerate(word, 1):
        inverse[v - 1] = p
    out: list[int] = []
    small = 0
    for i, (a, b) in enumerate(zip(word[:-1], inverse), 1):
        small += (a <= i) + (b < i)
        out.append(i - small)
    return out


def first_fitting_word_by_quotient(word: tuple[int, ...]):
    """The first reduced word of q = w0(J(w)) * w that fits the
    ``definition`` pools of w, or None.  q is formed; it has none when its
    length, from ``code_by_bisect``, passes the pools' uses, or when a
    pool holds fewer uses than the crossing numbers of its generators,
    each of which needs that many letters; else ``budgeted_words``
    walks it."""
    q = quotient(word)
    slot_of, caps = budget(word)
    slack = list(caps)
    for i, c in enumerate(crossings(q), 1):
        slack[slot_of[i]] -= c
    if sum(code_by_bisect(q)) > sum(caps) or min(slack, default=0) < 0:
        return None
    return next(budgeted_words(Permutation(q), slot_of, caps), None)


def budgeted_words(w: Permutation, slot_of, caps):
    """Reduced words of w that spend at most ``caps[slot_of[i]]`` uses of
    each pool on its letters i, in lexicographic order.

    Depth-first over left descents, ascending, on an explicit stack; each
    step builds the next element's inverse and uses left as new tuples,
    and a letter whose pool is empty is pruned.  An (element, uses left)
    state whose subtree yielded no word is remembered as dead.
    """
    length = inversion_count(w.oneline)
    if length > sum(caps):
        return
    if not length:
        yield ()
        return

    def descents(u):
        return [i for i in range(1, len(u)) if u[i - 1] > u[i]]

    dead = set()
    yielded = 0
    prefix = []
    top = w.inverse().oneline
    stack = [(top, tuple(caps), iter(descents(top)), yielded)]
    while stack:
        u, left, todo, before = stack[-1]
        i = next(todo, None)
        if i is None:
            stack.pop()
            if yielded == before:
                dead.add((u, left))
            del prefix[-1:]
            continue
        s = slot_of[i]
        if not left[s]:
            continue
        if len(prefix) + 1 == length:
            yielded += 1
            yield (*prefix, i)
            continue
        v = u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
        t = left[:s] + (left[s] - 1,) + left[s + 1 :]
        if (v, t) not in dead:
            prefix.append(i)
            stack.append((v, t, iter(descents(v)), yielded))


def first_repetition_free_word_by_walk(w: Permutation):
    """The lexicographically first reduced word of w that repeats no
    letter, or None: a depth-first walk over (element, uses left) states
    with one use per generator, which prunes a letter already used and
    backtracks."""
    n = w.degree
    pools = {i: i - 1 for i in range(1, n)}
    return next(budgeted_words(w, pools, [1] * (n - 1)), None)


def w_form_allowance(w: Permutation) -> tuple[dict[int, int], list[int]]:
    """Generator-to-pool map and allowances for words of w itself: a run of
    c consecutive left descents shares a pool of c(c+1)/2 + c uses, the
    length of the run's longest element plus its size; every other
    generator has a pool of one use."""
    descents = set(_left_descents(w.oneline))
    slot_of: dict[int, int] = {}
    runs: list[int] = []  # descent-run sizes; 0 for a non-descent
    for g in range(1, w.degree):
        if g in descents and g - 1 in descents:
            runs[-1] += 1
        else:
            runs.append(1 if g in descents else 0)
        slot_of[g] = len(runs) - 1
    return slot_of, [c * (c + 1) // 2 + c if c else 1 for c in runs]


def first_word_in_w_form_allowance(w: Permutation):
    """The lexicographically first reduced word of w within
    ``w_form_allowance``, or None: the search of all of w, letters of
    w0(J) included, that the quotient search replaced."""
    return next(budgeted_words(w, *w_form_allowance(w)), None)


def is_boolean_by_support(w: Permutation) -> bool:
    """True when the length of w equals the size of its support: s_i is in
    the support exactly when w moves some value of 1..i past i."""
    support = sum(1 for i in range(1, w.degree) if max(w.oneline[:i]) > i)
    return inversion_count(w.oneline) == support


def reverse_blocks(ends) -> tuple[int, ...]:
    """1..n with each block of consecutive values reversed in place;
    ``ends`` lists the last value of every block, ascending, the last
    being n."""
    out: list[int] = []
    start = 1
    for end in ends:
        out.extend(range(end, start - 1, -1))
        start = end + 1
    return tuple(out)


def longest_parabolic(gens: GeneratorSet) -> Permutation:
    """w0(J) for J = ``gens``: a block ends at each i with s_i outside J,
    and at n."""
    return Permutation(reverse_blocks([i for i in range(1, gens.degree + 1) if i not in gens.members]))


def longest_below(word: tuple[int, ...]) -> tuple[int, ...]:
    """w0(J(w)) from the position table: a block ends at each i whose
    successor i+1 sits to its right, and at n."""
    n = len(word)
    pos = [0] * (n + 2)
    for p, v in enumerate(word):
        pos[v] = p
    pos[n + 1] = n
    return reverse_blocks([i for i in range(1, n + 1) if pos[i] < pos[i + 1]])


def quotient(word: tuple[int, ...]) -> tuple[int, ...]:
    """w0(J(w)) * w."""
    v = longest_below(word)
    return tuple(v[j - 1] for j in word)


def budget(word: tuple[int, ...]) -> tuple[dict[int, int], list[int]]:
    """The ``definition`` pools of w: generator g joins the pool of g-1
    when both are left descents, else opens its own; each pool holds one
    use per generator in it."""
    descents = set(_left_descents(word))
    slot_of: dict[int, int] = {}
    caps = [0] * len(word)
    for g in range(1, len(word)):
        slot_of[g] = slot_of[g - 1] if g in descents and g - 1 in descents else g
        caps[slot_of[g]] += 1
    return slot_of, caps


def site_pass(w: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """The generating tree's site pass as the library ran it before its
    sweeps: for each position j it slices the letters after j, the
    positions of the values above w_j and the prefix before ``reach``, so
    it costs O(n^2) steps.  Returns (allowed sites, middles, ``reach_at``),
    which ``tree._site_pass`` must equal; the comments below define
    each."""
    n = len(w)
    pos = [-1] * (n + 1)
    for i, v in enumerate(w):
        pos[v] = i
    # last_upto[v]: the last position holding a value at most v, or -1.
    last_upto = list(itertools.accumulate(pos, max))
    prefix = -1  # sites 0..prefix are forbidden; never past the current j
    starts = [n + 1] * (n + 1)  # sites starts[j]..j are forbidden
    middles = []
    reach_at = [-1] * (n + 1)
    for j, wj in enumerate(w):
        after = w[j + 1:]
        lows = [y for y in after if y < wj]
        # opens: the least site s such that a value above w_j lies after j
        # or among the first s letters of w; n+1 when none is above w_j.
        if len(lows) < len(after):
            opens = 0
        else:
            opens = 1 + min(pos[wj + 1:], default=n)
        # 321 half, w_j the "3": a "1" at k > j with w_k < w_j and a "2"
        # valued in (w_k, w_j) before j or after k.  Such a "1" exists
        # unless the values below w_j after j are w_j-1, ..., w_j-L in that
        # order, as in ``_catalog_certificate``.  The new "5" must then come
        # before j, with a "4" (any value above w_j) before it or after j:
        # sites opens..j are forbidden.
        if lows != list(range(wj - 1, wj - 1 - len(lows), -1)):
            middles.append(j)
            if opens:
                starts[j] = opens
            else:
                prefix = j
        # 3412 half, w_j the "2": a "4" at i < j with w_i > w_j, a "3"
        # valued in (w_j, w_i) before i or after j, and a "1" (any value
        # below w_j) after i, the latest at last_upto[w_j - 1].  Among the
        # values above w_j before both, such a "4" exists unless they fall
        # and the first of them is below every value above w_j after j.
        # The new "5" must then come before both j and that "1".
        reach = min(j, last_upto[wj - 1])
        if reach > prefix:
            highs = [y for y in w[:reach] if y > wj]
            if highs and (
                highs != sorted(highs, reverse=True)
                or highs[0] > min([y for y in after if y > wj], default=n + 1)
            ):
                prefix = reach
        # In a child with M at a site s <= reach, M is such a "4", with a
        # "3" exactly when s >= opens; M+1 is then forbidden at 0..reach+1.
        if reach >= opens and reach > reach_at[opens]:
            reach_at[opens] = reach
    allowed = []
    start = n + 1  # the least start among stretches ending at or after s
    for s in range(n, prefix, -1):
        start = min(start, starts[s])
        if start > s:
            allowed.append(s)
    allowed.reverse()
    return allowed, middles, reach_at


def catalog_certificate_by_tables(w: tuple[int, ...]) -> tuple[int, ...] | None:
    """The certificate of ``classify._catalog_certificate``, from the
    tables it read before: ``(j,)``, ``(x, y)`` or None."""
    n = len(w)
    for j in range(1, n - 1):
        c = w[j]
        if c < 3 or c > n - 2:
            continue
        highs = [v for v in w[:j] if v > c]
        if not highs or highs[0] == c + len(highs) and highs == sorted(highs, reverse=True):
            continue
        lows = [v for v in w[j + 1:] if v < c]
        if not lows or lows[-1] == c - len(lows) and lows == sorted(lows, reverse=True):
            continue
        return (j,)
    pos = [-1] * (n + 2)
    for p, v in enumerate(w):
        pos[v] = p
    pos[n + 1] = n
    # last_upto[v]: the last position of a value at most v, or -1;
    # first_from[v]: the first position of a value at least v, or n.
    last_upto = pos[: n + 1]
    for v in range(1, n + 1):
        if last_upto[v] < last_upto[v - 1]:
            last_upto[v] = last_upto[v - 1]
    first_from = pos[:]
    for v in range(n, 0, -1):
        if first_from[v] > first_from[v + 1]:
            first_from[v] = first_from[v + 1]
    least_above: dict[int, int] = {}
    for x in range(n - 2):
        wx = w[x]
        if wx < 4:
            continue
        m = max(x, first_from[wx + 1])
        greatest = None
        for y in range(m + 1, n):
            wy = w[y]
            if wy > wx or last_upto[wy - 1] <= m:
                continue
            if greatest is None:
                greatest = max([v for v in w[:x] if v < wx], default=0)
            if greatest <= wy:
                if y not in least_above:
                    least_above[y] = min([v for v in w[y + 1:] if v > wy], default=n + 1)
                if least_above[y] > wx:
                    continue
            return (x, y)
    return None


def own_site_counts(members) -> list[int]:
    """The number of allowed sites of each spherical word in ``members``,
    found on the word itself: the generating tree's child-by-child count
    of the next degree, which the tree's walk replaces by counting from
    the grandparents."""
    return [len(_site_pass(w)[0]) for w in members]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherical",
        description="Classify spherical permutations and cross-check the equivalent criteria.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="classify one permutation")
    p.add_argument("perm")
    p.add_argument(
        "--backend",
        choices=[*_BACKEND_FLAGS, "all"],
        default="pattern",
    )
    p.add_argument("--explain", action="store_true")

    p = sub.add_parser("crosscheck", help="compare backends across all of S_n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--backends", default="pattern,boolean,divisible")
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=["table", "json"], default=None)
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("count", help="spherical counts per degree")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--force", action="store_true")
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("patterns", help="list the blocking-pattern catalog")
    p.add_argument("--subset", choices=["all", "321", "3412", "both"], default="all")
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("reduced-words", help="enumerate reduced words")
    p.add_argument("perm")
    p.add_argument("--limit", type=int, default=None)

    p = sub.add_parser("bruhat", help="compare two permutations in Bruhat order")
    p.add_argument("v")
    p.add_argument("w")
    p.add_argument("--explain", action="store_true")

    p = sub.add_parser("interval", help="build the interval below a permutation")
    p.add_argument("perm")
    p.add_argument("--edges", action="store_true")

    return parser
