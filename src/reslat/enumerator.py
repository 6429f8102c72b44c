"""Exhaustive isomorph-free enumeration of finite residuated lattices.

Bounded lattices are generated by backtracking over strict down-sets in
linear-extension order, pruning any prefix in which some pair acquires
two incomparable minimal common upper bounds; only pairs below the new
element can, and lower bounds need no test of their own (see
bounded_lattices).  Products are filled cell by cell with associativity
and join-distributivity propagated over the filled prefix; monotonicity
follows from distributivity, so it is not checked.  Each new cell is
checked only against the instances that read it, in one of two mirror
images: O(n^2) work per candidate value, not O(n^3).  Canonical labels
list higher elements first, so an instance that reads the new cell as
x.(y v z) reads an empty cell or is checked in another form, and two
instance families remain; tables come out already sorted (see
residuated_products).  Isomorph rejection uses the lexicographically
minimal table under relabelings fixing bottom and top.

That least table lists every middle element after the middle elements
above it, so it is found by one search that gives the labels in order,
each to an element whose elements above are labeled, and keeps at each
label only the partial labelings with the least row (_least_labelings),
not by a scan of all (n-2)! relabelings.  Every generated lattice gets
this canonical form.  The same search gives the automorphisms: the
labelings that reach the least table differ from each other by exactly
the automorphisms.

The brute-force oracle that cross-validates this module lives with the
tests (tests/oracles.py) and shares none of its pruning logic.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations

from .core import (
    BoundedLattice,
    ContractError,
    InternalCheckError,
    ResiduatedLattice,
    ResiduumError,
    _converse,
    bits,
    bounded_lattice_ops,
    derive_residuum,
    is_subset,
)

DEFAULT_CAP = 8
WORKERS_ENV = "RESLAT_THREADS"
# a larger request gets this many: output does not depend on the worker count
MAX_WORKERS = 32


def _labels(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("1",)
    middle = tuple(chr(ord("a") + i) for i in range(n - 2))
    return ("0",) + middle + ("1",)


# ---------------------------------------------------------------------------
# bounded lattices


def _least_labelings(up: tuple[int, ...]) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The lexicographically least up-mask rows over relabelings fixing 0
    and n-1, and every relabeling that gives them (perm[x] is x's label).

    The least rows list every middle element after the middle elements
    above it (see lattice_canonical), so only such labelings are tried.
    Labels 1..n-2 are given in order, each to a middle element whose middle
    elements above it are already labeled.  Row k is then bit k, bit n-1
    and the labels of the elements above, all given before k: it is fixed
    the moment k is given.  At each level the search keeps every partial
    labeling that gives the least row k and drops the rest.  That is exact:
    the kept labelings share rows 0..k-1, every partial labeling of this
    kind can be completed, and completions differ only from row k+1 on, so
    a complete labeling gives the least rows exactly when each of its
    prefixes was kept.
    """
    n = len(up)
    if n < 3:  # no middle elements: only the identity
        return up, [tuple(range(n))]
    top = n - 1
    # the middle elements strictly above each element
    above = [up[x] & ~(1 << x | 1 << top) for x in range(n)]
    rows = [(1 << n) - 1]
    # (labels, or None while unlabeled; mask of the unlabeled middle elements)
    level = [((0,) + (None,) * (n - 2) + (top,), (1 << top) - 2)]
    for k in range(1, top):
        best, kept = None, []
        for perm, unlabeled in level:
            for x in bits(unlabeled):
                if above[x] & unlabeled:
                    continue
                row = 1 << k | 1 << top | sum(1 << perm[y] for y in bits(above[x]))
                if best is None or row < best:
                    best, kept = row, []
                if row == best:
                    kept.append((perm[:x] + (k,) + perm[x + 1 :], unlabeled ^ 1 << x))
        rows.append(best)
        level = kept
    rows.append(1 << top)
    return tuple(rows), [perm for perm, _ in level]


def lattice_canonical(up: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically least up-mask rows over relabelings fixing 0, n-1.

    In the least form a middle element's index is larger than that of
    every middle element above it: the labels are a reverse linear
    extension.  Suppose x < y in the order with indices i < j, and swap
    labels i and j.  Only bits i and j of each row change, and no row has
    bit i without bit j, since an element below x is below y.  If an
    earlier row has bit j and not bit i, the first such row loses bit j
    for bit i and gets smaller.  Otherwise rows 0..i-1 stay the same and
    row i becomes the row of y: bit i, no bit j, and otherwise a subset of
    x's row, so smaller.  Either way the swapped table is smaller.
    """
    return _least_labelings(up)[0]


def lattice_automorphisms(up: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Automorphisms as permutations, in increasing order.

    The relabelings that give the least rows are q composed with each
    automorphism, for any one of them q; so the automorphisms are q^-1 o p
    over those relabelings p.  This holds for any labeling of the lattice.
    """
    perms = _least_labelings(up)[1]
    inverse = sorted(range(len(up)), key=perms[0].__getitem__)
    return tuple(sorted(tuple(inverse[i] for i in p) for p in perms))


def bounded_lattices(n: int) -> tuple[tuple[int, ...], ...]:
    """All bounded lattices on n elements up to isomorphism, as up-mask rows.

    Element 0 is the bottom and n-1 the top; output rows are canonical
    representatives in a deterministic order; n is at most DEFAULT_CAP.

    pairs_ok(k) tests only the pairs below the new element k.  Elements
    come in a linear extension, so k is above no earlier element and the
    order among them stays as it was; the parent node left no pair of
    0..k-1 with two minimal common upper bounds.  A pair with k in it has
    at most one, k.  Only a pair in d, the elements strictly below k, gains
    an upper bound, k alone.  If it had none, k is the only one; if one of
    them is below k (in d), k is not minimal; otherwise its old minimal
    bound and k are incomparable, and no later element can merge them.

    pairs_ok tests upper bounds only.  If x and y had two maximal common
    lower bounds a != b, then a and b would have a minimal common upper
    bound u <= x and another, v <= y.  u != v, since an element below x and
    y and above a and b is a common lower bound of x and y larger than a.
    So the pair a, b fails already.
    """
    if not 1 <= n <= DEFAULT_CAP:
        raise ContractError(f"order must be between 1 and {DEFAULT_CAP}")
    if n == 1:
        return ((1,),)
    found: set[tuple[int, ...]] = set()
    below = [1]  # below[i] = mask of elements <= i, including i

    def pairs_ok(k: int) -> bool:
        # only pairs below the new element k gain an upper bound
        d = below[k] ^ (1 << k)
        above = _converse(below[:k], k)
        for x, y in combinations(bits(d), 2):
            ubs = above[x] & above[y]
            if ubs and not ubs & d:
                return False
        return True

    def extend(i: int) -> None:
        if i == n:
            found.add(lattice_canonical(tuple(_converse(below, n))))
            return
        if i == n - 1:
            candidates = [(1 << i) - 1]
        else:
            candidates = [
                d for d in range(1, 1 << i, 2) if all(is_subset(below[j], d) for j in bits(d))
            ]
        for d in candidates:
            below.append(d | 1 << i)
            if pairs_ok(i):
                extend(i + 1)
            below.pop()

    extend(1)
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# product tables on a fixed lattice


def residuated_products(lattice: BoundedLattice) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All products making the lattice residuated, up to lattice automorphism;
    lattice = bounded_lattice_ops(up) for an order up of bounded_lattices.

    The middle cells {i, j} are filled in row order with values below
    meet(i, j); a value is kept only if every associativity and
    join-distributivity instance that the filled cells can evaluate still
    holds.  The prefix before the new cell passed every instance it could
    evaluate, and filled cells never change, so a new failure must come
    from an instance that reads the new cell: only those are checked,
    O(n^2) per candidate value instead of a rescan of all O(n^3) triples.
    Emitted as full n x n tables in increasing row-major order, one
    canonical representative per automorphism orbit.

    Each instance is checked in one of its mirror images.  The table is
    symmetric at every node, so (x.y).z = x.(y.z) holds exactly when
    (z.y).x = z.(y.x) does, and x.(y v z) = x.y v x.z exactly when
    x.(z v y) = x.z v x.y does; each pair reads the same cells.  Of an
    instance that reads the new cell p.q, in either orientation, it or its
    mirror image reads it as x.y, as (x.y).z with x.y = p and z = q, or as
    x.(y v z) with x = p and y v z = q.  An instance that reads neither
    orientation of the new cell was already checked at the parent node.
    consistent checks the first two families; the third can be evaluated
    only where the first already checks it.

    The second family needs the filled cells holding p.  The search keeps
    them in at: at every node, at[v] lists each filled cell (x, y) with
    table[x][y] = v exactly once, both orientations of a middle cell and
    the fixed bottom and top rows and columns included.  fill appends the
    new cell's orientations to at[v] when it sets the cell to v, and
    removes them before it tries the next value; the cells filled deeper
    are removed before it, so they are always the last entries.  So
    consistent reads at[p] instead of scanning all n^2 cells.

    The lattice must come labeled as lattice_canonical labels it, every
    middle element after the middle elements above it; anything else
    raises ContractError.  If q's index is below y's, the cell {p, q} comes
    before {p, y} in row-major order, for every p: in row p, at column
    q < y, if p <= q, and otherwise in row q, before row min(p, y) > q.
    Now let q = y v z with y, z != q.  Then y and z are middle elements
    strictly below q, with larger indices, so p.y and p.z are still empty:
    the instance is checked later, as the first family's x.y at
    (p, y, z) or its mirror, when the later of the two cells is filled.
    If y = q, the instance is the first family's at (p, q, z), and if
    z = q, the mirror image of the first family's at (p, q, y).

    Monotonicity is not checked, and the emitted tables are the same as
    with a monotonicity check on every prefix:

    1. Every leaf table passes every associativity and distributivity
       instance: each instance is checked when the last of its cells is
       filled.
    2. A commutative table that distributes over joins is monotone: if
       b <= c, then a.c = a.(b v c) = a.b v a.c >= a.b.
    3. So a prefix that breaks monotonicity is extended by no leaf, and a
       monotonicity check could only cut prefixes that no leaf extends.
    4. The automorphism pruning (dominated) reads only the prefix and the
       automorphisms, so it keeps or drops the same leaves.

    Only the number of nodes searched could grow.

    dominated runs when row i is complete and tries the automorphisms that
    map rows 1..i onto themselves (stabilizers[i]), which read only filled
    cells; at the last row, that is every automorphism.  Two symmetric
    tables with the same bottom and top rows, as a table and its image
    are, first differ in row-major order in the upper triangle, which
    cells lists in that order.  So the last-row call keeps only the least
    table of each orbit, and a leaf needs no canonical test.  And as fill
    tries the cells in that order and each cell's values in increasing
    order, the leaves come out in increasing row-major order: no sort.
    """
    up, join, meet, down = lattice.up, lattice.join, lattice.meet, lattice.down
    n = len(up)
    # (1 << n - 1) - (2 << x): the middle elements after x
    if any(up[x] & ((1 << n - 1) - (2 << x)) for x in range(1, n - 1)):
        raise ContractError("a middle element must have a larger index than those above it")
    bottom, top = lattice.bottom, lattice.top
    identity = tuple(range(n))
    # (perm, inverse) per automorphism but the identity, which comes first
    auts = [(p, sorted(identity, key=p.__getitem__)) for p in lattice_automorphisms(up)[1:]]
    # stabilizers[i]: those that map rows 1..i onto themselves (perm[0] = 0)
    stabilizers = [[a for a in auts if max(a[0][: i + 1]) <= i] for i in range(n - 1)]
    cells = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    # table[x][y] is the product, None while unfilled; bottom and top are fixed
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        table[x][top] = table[top][x] = x
        table[x][bottom] = table[bottom][x] = bottom

    # at[v]: the filled cells holding v (see the docstring)
    at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if table[x][y] is not None:
                at[table[x][y]].append((x, y))

    def consistent(i: int, j: int, v: int) -> bool:
        # v is already in table[i][j]; check every (x, y, z) with {i, j} at
        # the lookup x.y or (x.y).z, for each orientation (p, q); the mirror
        # images read the same cells.  At x.y both laws are checked,
        # (x.y).z = x.(y.z) and x.(y v z) = x.y v x.z; at (x.y).z only the
        # first reads the new cell.  Distributivity at (x, y, q) reads x.y,
        # x.q and x.(y v q): if one of them is the new cell, the instance
        # is checked as x.y here at (x, y, q) or (x, q, y), or is of the
        # third family; if none is, the parent node checked it.
        for p, q in ((i, j), (j, i)) if i != j else ((i, j),):
            row, row_q, row_v, join_q = table[p], table[q], table[v], join[q]
            # x.y = p.q = v at (p, q, z)
            for z in range(n):
                tyz = row_q[z]
                if tyz is not None:
                    l, r = row_v[z], row[tyz]
                    if l is not None and r is not None and l != r:
                        return False
                txz = row[z]
                if txz is not None:
                    t = row[join_q[z]]
                    if t is not None and t != join[v][txz]:
                        return False
            # (x.y).q = p.q = v at (x, y, q), for every filled cell (x, y)
            # holding p
            for x, y in at[p]:
                tyz = table[y][q]
                if tyz is not None:
                    r = table[x][tyz]
                    if r is not None and r != v:
                        return False
        return True

    def dominated(ci: int, i: int) -> bool:
        # rows 1..i are complete, and cells[ci] ends row i
        prefix = cells[: ci + 1]
        cur = tuple(table[x][y] for x, y in prefix)
        for perm, inv in stabilizers[i]:
            if tuple(perm[table[inv[x]][inv[y]]] for x, y in prefix) < cur:
                return True
        return False

    results: list[tuple[tuple[int, ...], ...]] = []

    def fill(ci: int) -> None:
        if ci == len(cells):
            results.append(tuple(tuple(row) for row in table))
            return
        i, j = cells[ci]
        both = ((i, j), (j, i)) if i != j else ((i, j),)
        for v in bits(down[meet[i][j]]):
            table[i][j] = table[j][i] = v
            holding = at[v]
            holding.extend(both)
            # each row ends at column n - 2
            if consistent(i, j, v) and (j != n - 2 or not dominated(ci, i)):
                fill(ci + 1)
            del holding[-len(both):]
        table[i][j] = table[j][i] = None

    fill(0)
    return tuple(results)


def _build(lattice: BoundedLattice, odot) -> ResiduatedLattice:
    """The residuated lattice of an enumerated product on the lattice.

    The search's product and derive_residuum's table are tuples of
    in-range ints already.  The residuum and the full axiom scan check
    the search's incremental monotonicity, associativity and
    distributivity tests by a second route.  The lattice is the
    product's reduct: what derive_residuum and validate_axioms derive of
    the order alone, the order axioms included, is derived once for all
    products that share it.
    """
    try:
        imp = derive_residuum(lattice, odot)
    except ResiduumError as exc:
        raise InternalCheckError(f"enumerated product has no residuum: {exc}") from exc
    lat = ResiduatedLattice.over(lattice, _labels(len(lattice.up)), odot, imp)
    if not lat.validation.valid:
        raise InternalCheckError(f"enumerated lattice fails validation: {lat.validation}")
    return lat


def worker_count(workers: int | None = None) -> int:
    """workers, else RESLAT_THREADS, else the CPU count, clamped to 1..MAX_WORKERS."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        try:
            workers = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ContractError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    return min(max(1, workers), MAX_WORKERS)


# ---------------------------------------------------------------------------
# the per-lattice pipeline
#
# Every stage below is a module-level function of one picklable argument, so
# that it runs the same way in-process (one worker, a plain map) and in a
# pool worker.


def _products_job(lattice: BoundedLattice) -> tuple:
    # pickled by name, so a pool worker calls its own module's binding of
    # residuated_products, which may be a wrapper that does not pickle
    return residuated_products(lattice)


def _build_chunk(chunk: list) -> tuple[ResiduatedLattice, ...]:
    """The lattices of (lattice, product table) pairs, built and validated."""
    return tuple(_build(lattice, odot) for lattice, odot in chunk)


def _census_chunk(chunk: list) -> tuple[int, int, int, int, int]:
    """(residuated, mp, rickart, baer, domains) counts over the chunk's lattices."""
    from .coann import classify_baer_rickart
    from .filters import is_domain
    from .mp import mp_check

    mp_count = rickart = baer = domains = 0
    for lat in _build_chunk(chunk):
        mp_count += mp_check(lat).final
        cls = classify_baer_rickart(lat)
        rickart += cls.rickart
        baer += cls.baer
        domains += is_domain(lat)[0]
    return len(chunk), mp_count, rickart, baer, domains


@contextmanager
def _mapper(workers: int):
    """map, or a process pool's map that lives as long as the block."""
    if workers <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _comparable_pairs(up: tuple[int, ...]) -> int:
    return sum(bin(m).count("1") for m in up)


def _per_product(lattices: tuple[tuple[int, ...], ...], workers: int | None, stage) -> list:
    """stage's results, in order, on the products of the lattices.

    The product searches are dispatched longest first (Graham's LPT rule),
    with the number of comparable pairs as the estimate of their cost; the
    chain has the most, and at orders 7 and 8 more than half of the
    products.  The (lattice, product table) pairs, in lattice order, are
    then split into about 4 chunks per worker of equal count, so that one
    lattice's products are spread over the workers.

    Each lattice is one BoundedLattice, made once here and shared by all
    its products: in-process by reference, and in a pool by the pickle of
    a chunk, which holds each object once.  So its order is checked, and
    its tables derived, once per lattice in each process that builds its
    products.
    """
    jobs = [bounded_lattice_ops(up) for up in lattices]
    w = min(worker_count(workers), len(jobs))
    longest_first = sorted(range(len(jobs)), key=lambda i: -_comparable_pairs(jobs[i].up))
    with _mapper(w) as run:
        found = dict(zip(longest_first, run(_products_job, [jobs[i] for i in longest_first])))
        pairs = [(lattice, odot) for i, lattice in enumerate(jobs) for odot in found[i]]
        size = max(1, -(-len(pairs) // (4 * w)))
        return list(run(stage, [pairs[k : k + size] for k in range(0, len(pairs), size)]))


def enumerate_residuated(n: int, workers: int | None = None) -> tuple[ResiduatedLattice, ...]:
    """All residuated lattices of order n up to isomorphism.

    The product search, building and validation run in worker processes;
    results are gathered and emitted in a canonical order that does not
    depend on the worker count.
    """
    built = _per_product(bounded_lattices(n), workers, _build_chunk)
    return tuple(lat for chunk in built for lat in chunk)


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class CensusRow:
    order: int
    lattices: int
    residuated: int
    mp: int
    rickart: int
    baer: int
    domains: int


def census(n_max: int, workers: int | None = None) -> tuple[CensusRow, ...]:
    """Counts per order 1..n_max; each worker classifies the lattices it builds."""
    rows = []
    for n in range(1, n_max + 1):
        lattices = bounded_lattices(n)
        counts = map(sum, zip(*_per_product(lattices, workers, _census_chunk)))
        rows.append(CensusRow(n, len(lattices), *counts))
    return tuple(rows)
