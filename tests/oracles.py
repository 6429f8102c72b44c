"""Reference implementations that the fast paths are compared against.

The brute-force oracle for the enumerator: every labeled bounded order
and every product table on it, filtered by the axiom checker and
deduplicated by a scan over all permutations.  It goes through from_order
and shares none of the enumerator's propagation or canonical pruning; its
cost grows like n to the n squared, so the order is capped at four.

The pair test of lattice generation on both sides, upper and lower
bounds, which the upper-bound test alone replaced.

The per-pair test of ``prime_linkage("ideals")``, which the one mask per
prime replaced.
"""

from __future__ import annotations

from itertools import permutations

from reslat.core import (
    ContractError,
    ResiduatedLattice,
    bits,
    bounded_lattice_ops,
    derive_residuum,
    from_order,
    validate_axioms,
)
from reslat.enumerator import _labels


def full_canonical_key(lat: ResiduatedLattice) -> tuple:
    """Isomorphism key over all permutations: least (order bits, product bits)."""
    n = lat.size
    best = None
    for perm in permutations(range(n)):
        leq_bits = tuple(
            1 if lat.leq(perm.index(x), perm.index(y)) else 0
            for x in range(n)
            for y in range(n)
        )
        odot_bits = tuple(
            perm[lat.odot[perm.index(x)][perm.index(y)]]
            for x in range(n)
            for y in range(n)
        )
        cand = (leq_bits, odot_bits)
        if best is None or cand < best:
            best = cand
    return best


def naive_bounded_orders(n: int) -> list[tuple[int, ...]]:
    """Every labeled bounded-lattice order on n elements, by brute force."""
    if n > 4:
        raise ContractError("naive order scan capped at 4 elements")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    orders = []
    for choice in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        ok = True
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                up[i] |= 1 << j
        for i, j in pairs:
            if up[i] >> j & 1 and up[j] >> i & 1:
                ok = False
                break
        if not ok:
            continue
        for i in range(n):
            for j in range(n):
                if up[i] >> j & 1 and up[j] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        try:
            bounded_lattice_ops(tuple(up))
        except Exception:
            continue
        orders.append(tuple(up))
    return orders


def two_sided_pairs_ok(below: tuple[int, ...]) -> bool:
    """No pair of the prefix has two minimal common upper bounds or two
    maximal common lower bounds; below[x] is the mask of elements <= x."""
    k = len(below)
    above = [sum(1 << y for y in range(k) if below[y] >> x & 1) for x in range(k)]
    for x in range(k):
        for y in range(x + 1, k):
            for common, strictly in ((above[x] & above[y], below), (below[x] & below[y], above)):
                extreme = [u for u in bits(common) if not common & strictly[u] & ~(1 << u)]
                if len(extreme) > 1:
                    return False
    return True


def naive_residuated(n: int) -> list[ResiduatedLattice]:
    """Brute-force all products over all bounded orders, filtered by the
    axiom checker and deduplicated by a full permutation scan.

    Deliberately shares none of the fast path's propagation or canonical
    pruning; cost is roughly n to the n squared, so the order is capped.
    """
    if n > 4:
        raise ContractError("naive oracle capped at 4 elements")
    out: dict[tuple, ResiduatedLattice] = {}
    for up in naive_bounded_orders(n):
        bottom, top, join, meet = bounded_lattice_ops(up)
        cells = [(i, j) for i in range(n) for j in range(n)]
        odot = [[None] * n for _ in range(n)]

        def leaf() -> None:
            try:
                imp = derive_residuum(up, join, odot)
            except Exception:
                return
            leq = [[bool(up[i] >> j & 1) for j in range(n)] for i in range(n)]
            lat = from_order(_labels(n), leq, [list(r) for r in odot], imp)
            if not validate_axioms(lat).valid:
                return
            key = full_canonical_key(lat)
            if key not in out:
                out[key] = lat

        def fill(ci: int) -> None:
            if ci == len(cells):
                leaf()
                return
            i, j = cells[ci]
            for v in range(n):
                if i > j and odot[j][i] != v:
                    continue
                if (i == bottom or j == bottom) and v != bottom:
                    continue
                if i == top and v != j:
                    continue
                if j == top and v != i:
                    continue
                odot[i][j] = v
                fill(ci + 1)
                odot[i][j] = None

        fill(0)
    return [out[k] for k in sorted(out)]


def ideal_join_is_everything(lat: ResiduatedLattice, p: int, q: int) -> bool:
    # complements of primes are lattice ideals; their ideal join is the
    # down-closure of pairwise joins, so it is everything iff some pair
    # outside p x q joins to the top
    comp_q = lat.full_mask & ~q
    joiners = lat.top_joiners
    return any(joiners[x] & comp_q for x in bits(lat.full_mask & ~p))
