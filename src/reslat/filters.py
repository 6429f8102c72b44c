"""Filter generation, the filter lattice, comaximality, quotients, domains.

A filter is a subset closed under the product and upward closed.  Filters
are bitmasks over the carrier; the set of all filters of a finite
residuated lattice forms a finite distributive lattice under intersection
and generated join.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import (
    ContractError,
    InternalCheckError,
    ResiduatedLattice,
    bits,
    from_tables,
    validate_axioms,
)


def upward_closure(lat: ResiduatedLattice, subset: int) -> int:
    m = subset
    for x in bits(subset):
        m |= lat.up[x]
    return m


def generated_filter(lat: ResiduatedLattice, subset: int) -> int:
    """Least filter containing the subset: upward closure of the product closure."""
    cur = subset | 1 << lat.top
    while True:
        nxt = cur
        els = list(bits(cur))
        for i, x in enumerate(els):
            row = lat.odot[x]
            for y in els[i:]:
                nxt |= 1 << row[y]
        nxt = upward_closure(lat, nxt)
        if nxt == cur:
            return cur
        cur = nxt


def principal_filter(lat: ResiduatedLattice, x: int) -> int:
    return generated_filter(lat, 1 << x)


def is_filter(lat: ResiduatedLattice, subset: int) -> bool:
    return subset != 0 and generated_filter(lat, subset) == subset


def canonical_sort(masks) -> tuple[int, ...]:
    """Canonical order for families of subsets: by size, then by bitmask."""
    return tuple(sorted(masks, key=lambda m: (bin(m).count("1"), m)))


class FilterLattice:
    """All filters of a lattice with a join table over filter indices."""

    def __init__(self, lat: ResiduatedLattice, filters: tuple[int, ...]):
        self.lattice = lat
        self.filters = filters
        self.index = {f: i for i, f in enumerate(filters)}
        m = len(filters)
        self.join_table = tuple(
            tuple(self.index[generated_filter(lat, filters[i] | filters[j])] for j in range(m))
            for i in range(m)
        )

    def __len__(self) -> int:
        return len(self.filters)


@cache
def filter_lattice(lat: ResiduatedLattice) -> FilterLattice:
    """Every filter, found by closing the principal filters under joins."""
    found = {principal_filter(lat, x) for x in range(lat.size)}
    found.add(1 << lat.top)
    while True:
        new = set()
        fs = list(found)
        for i, f in enumerate(fs):
            for g in fs[i + 1:]:
                j = generated_filter(lat, f | g)
                if j not in found:
                    new.add(j)
        if not new:
            break
        found |= new
    return FilterLattice(lat, canonical_sort(found))


def all_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    return filter_lattice(lat).filters


def filter_meet(lat: ResiduatedLattice, f: int, g: int) -> int:
    return f & g


def filter_join(lat: ResiduatedLattice, f: int, g: int) -> int:
    return generated_filter(lat, f | g)


@dataclass(frozen=True)
class ComaximalWitness:
    """f and g multiply to bottom; single element a has a in F, ~a in G."""

    f: int
    g: int
    a: int


def comaximal(
    lat: ResiduatedLattice, f: int, g: int
) -> tuple[bool, ComaximalWitness | None]:
    """Whether two proper filters join to the whole carrier, with witnesses.

    When true, returns a pair (f0, g0) with odot(f0, g0) = bottom and the
    single-element witness a with a in F and imp(a, bottom) in G.
    """
    if not is_filter(lat, f) or not is_filter(lat, g):
        raise ContractError("comaximal: inputs must be filters")
    if f == lat.full_mask or g == lat.full_mask:
        raise ContractError("comaximal: inputs must be proper")
    if filter_join(lat, f, g) != lat.full_mask:
        return False, None
    pair = None
    for x in bits(f):
        for y in bits(g):
            if lat.odot[x][y] == lat.bottom:
                pair = (x, y)
                break
        if pair:
            break
    single = None
    for a in bits(f):
        if g >> lat.imp[a][lat.bottom] & 1:
            single = a
            break
    if pair is None or single is None:
        raise InternalCheckError("comaximal witnesses missing despite full join")
    return True, ComaximalWitness(pair[0], pair[1], single)


# ---------------------------------------------------------------------------
# quotients


def congruence_classes(lat: ResiduatedLattice, f: int) -> tuple[int, ...]:
    """Classes of a ~ b iff imp(a,b) and imp(b,a) both lie in the filter.

    Ordered with the class of bottom first and the class of top last;
    intermediate classes by their smallest member.
    """
    if not is_filter(lat, f):
        raise ContractError("quotient: modulus must be a filter")
    n = lat.size
    classes: list[int] = []
    seen = 0
    for a in range(n):
        if seen >> a & 1:
            continue
        cls = 0
        for b in range(n):
            if f >> lat.imp[a][b] & 1 and f >> lat.imp[b][a] & 1:
                cls |= 1 << b
        classes.append(cls)
        seen |= cls
    classes.sort(key=lambda c: (bool(c >> lat.top & 1), c & -c))
    return tuple(classes)


def quotient(lat: ResiduatedLattice, f: int) -> ResiduatedLattice:
    """The residuated lattice induced on the congruence classes of a filter."""
    classes = congruence_classes(lat, f)
    n = lat.size
    class_of = [0] * n
    for i, cls in enumerate(classes):
        for a in bits(cls):
            class_of[a] = i
    for table in (lat.join, lat.meet, lat.odot, lat.imp):
        for cls in classes:
            members = list(bits(cls))
            a0 = members[0]
            for a in members[1:]:
                for b in range(n):
                    if class_of[table[a0][b]] != class_of[table[a][b]]:
                        raise InternalCheckError(
                            "congruence is not compatible with the operations"
                        )
    reps = [next(bits(cls)) for cls in classes]
    m = len(classes)
    qleq = [
        [bool(f >> lat.imp[reps[i]][reps[j]] & 1) for j in range(m)] for i in range(m)
    ]
    def tab(table):
        return [[class_of[table[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    labels = tuple("{" + ",".join(lat.labels[a] for a in bits(cls)) + "}" for cls in classes)
    qlat = from_tables(
        labels, qleq, tab(lat.join), tab(lat.meet), tab(lat.odot), tab(lat.imp),
        class_of[lat.bottom], class_of[lat.top],
    )
    report = validate_axioms(qlat)
    if not report.valid:
        raise InternalCheckError(f"quotient is not a residuated lattice: {report}")
    return qlat


def is_domain(lat: ResiduatedLattice) -> tuple[bool, tuple[int, int] | None]:
    """No two elements below the top join to the top.

    Equivalently the one-element filter {top} is prime; the witness is an
    offending pair.  The degenerate lattice (bottom = top) is not a
    domain, mirroring the convention for the zero ring; it gets no
    witness pair.
    """
    if lat.bottom == lat.top:
        return False, None
    n = lat.size
    for x in range(n):
        if x == lat.top:
            continue
        for y in range(x, n):
            if y == lat.top:
                continue
            if lat.join[x][y] == lat.top:
                return False, (x, y)
    return True, None
