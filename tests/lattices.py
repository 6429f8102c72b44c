"""Hand-built lattices used across the test suite.

The two main fixtures are entered from their Cayley tables and
Hasse diagrams; everything else is small synthetic material.
"""

from __future__ import annotations

from reslat import ResiduatedLattice, from_order, from_tables
from reslat.core import BoundedLattice

A6_LABELS = ("0", "a", "b", "c", "d", "1")
A6_COVERS = ((0, 1), (1, 2), (0, 3), (2, 4), (3, 4), (4, 5))
A6_ODOT_UPPER = {
    "a": "a a 0 a a",
    "b": "a 0 a b",
    "c": "c c c",
    "d": "d d",
}

A8_LABELS = ("0", "a", "b", "c", "d", "e", "f", "1")
A8_COVERS = (
    (0, 1), (0, 2), (1, 3), (1, 4), (2, 4),
    (3, 5), (4, 5), (4, 6), (5, 7), (6, 7),
)
A8_ODOT_UPPER = {
    "a": "a 0 a a a a a",
    "b": "0 0 0 0 b b",
    "c": "c a c a c",
    "d": "a a d d",
    "e": "c d e",
    "f": "f f",
}


def leq_from_covers(n: int, covers) -> list[list[bool]]:
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in covers:
        leq[lo][hi] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def odot_from_upper(labels, upper) -> list[list[int]]:
    n = len(labels)
    pos = {c: i for i, c in enumerate(labels)}
    t = [[None] * n for _ in range(n)]
    for j in range(n):
        t[0][j] = 0
        t[j][0] = 0
        t[n - 1][j] = j
        t[j][n - 1] = j
    for row_label, entries in upper.items():
        i = pos[row_label]
        for off, v in enumerate(entries.split()):
            j = i + off
            t[i][j] = pos[v]
            t[j][i] = pos[v]
    assert all(v is not None for row in t for v in row)
    return t


def build_a6() -> ResiduatedLattice:
    leq = leq_from_covers(6, A6_COVERS)
    return from_order(A6_LABELS, leq, odot_from_upper(A6_LABELS, A6_ODOT_UPPER))


def build_a8() -> ResiduatedLattice:
    leq = leq_from_covers(8, A8_COVERS)
    return from_order(A8_LABELS, leq, odot_from_upper(A8_LABELS, A8_ODOT_UPPER))


def build_chain(n: int, squares: dict[int, int] | None = None) -> ResiduatedLattice:
    """A chain with the minimum t-norm unless squares overrides x.x."""
    labels = tuple(
        "0" if i == 0 else "1" if i == n - 1 else chr(ord("a") + i - 1)
        for i in range(n)
    )
    leq = [[i <= j for j in range(n)] for i in range(n)]
    odot = [[min(i, j) for j in range(n)] for i in range(n)]
    if squares:
        for x, v in squares.items():
            odot[x][x] = v
    return from_order(labels, leq, odot)


def build_lukasiewicz(n: int) -> ResiduatedLattice:
    """The n-element Lukasiewicz chain: x.y = max(0, x + y - (n - 1))."""
    leq = [[i <= j for j in range(n)] for i in range(n)]
    odot = [[max(0, x + y - (n - 1)) for y in range(n)] for x in range(n)]
    return from_order([str(i) for i in range(n)], leq, odot)


def build_product(a: ResiduatedLattice, b: ResiduatedLattice) -> ResiduatedLattice:
    """The direct product a x b, ordered and multiplied componentwise."""
    pairs = [(x, y) for x in range(a.size) for y in range(b.size)]
    labels = tuple(f"{a.labels[x]}.{b.labels[y]}" for x, y in pairs)
    leq = [[a.leq(x, u) and b.leq(y, v) for u, v in pairs] for x, y in pairs]
    odot = [
        [pairs.index((a.odot[x][u], b.odot[y][v])) for u, v in pairs]
        for x, y in pairs
    ]
    return from_order(labels, leq, odot)


def relabeled(lat: ResiduatedLattice, perm) -> ResiduatedLattice:
    """lat with element perm[i] at position i, through from_tables: never
    validated, so a test sees every validation that its code runs."""
    pos = {x: i for i, x in enumerate(perm)}

    def tab(t):
        return [[pos[t[x][y]] for y in perm] for x in perm]

    return from_tables(
        [lat.labels[x] for x in perm],
        [[lat.leq(x, y) for y in perm] for x in perm],
        tab(lat.join), tab(lat.meet), tab(lat.odot), tab(lat.imp),
        pos[lat.bottom], pos[lat.top],
    )


def over_fresh_reduct(lat: ResiduatedLattice, odot=None) -> ResiduatedLattice:
    """lat's tables, with another product if given, over a new reduct, so
    that it shares no analysis with any other lattice."""
    reduct = BoundedLattice(lat.up, lat.join, lat.meet, lat.bottom, lat.top)
    return ResiduatedLattice.over(reduct, lat.labels, odot or lat.odot, lat.imp)


def build_two_chain() -> ResiduatedLattice:
    return build_chain(2)


def build_boolean4() -> ResiduatedLattice:
    """The four-element Boolean algebra 0 < a, b < 1."""
    labels = ("0", "a", "b", "1")
    leq = leq_from_covers(4, ((0, 1), (0, 2), (1, 3), (2, 3)))
    odot = [
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 0, 2, 2],
        [0, 1, 2, 3],
    ]
    return from_order(labels, leq, odot)


def godel_chain_document(n: int) -> dict:
    """The n-element Goedel chain (product = meet) as a lattice document."""
    labels = [str(i) for i in range(n)]
    return {
        "name": f"chain{n}",
        "size": n,
        "labels": labels,
        "order": [[labels[i], labels[i + 1]] for i in range(n - 1)],
        "odot": [[labels[min(x, y)] for y in range(n)] for x in range(n)],
    }


def mask(lat: ResiduatedLattice, names: str) -> int:
    """Bitmask from space-separated labels, e.g. mask(a6, 'a b d 1')."""
    pos = {c: i for i, c in enumerate(lat.labels)}
    out = 0
    for name in names.split():
        out |= 1 << pos[name]
    return out


def names(lat: ResiduatedLattice, m: int) -> str:
    return " ".join(lat.label_set(m))
