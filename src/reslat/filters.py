"""Filter generation, the filter lattice, comaximality, quotients, domains.

A filter is a nonempty subset closed under the product and upward closed;
filters are bitmasks over the carrier and form a finite distributive
lattice under intersection and generated join.  Every function here takes
a lattice that passes ``validate_axioms`` (``parse_document``, the
enumerator's ``_build`` and ``quotient`` all read the lattice's cached
``validation`` report; a quotient whose int fields equal its input's,
such as the quotient by {top}, reuses the input's report, and any other
quotient is validated in full), where every filter F is up(e) for
exactly one idempotent e:

- odot(x, y) <= meet(x, y), so e = meet(F) lies in F and F = up(e);
- odot(e, e) lies in F, so e <= odot(e, e) <= e: e is idempotent;
- conversely x, y >= e gives odot(x, y) >= odot(e, e) = e.

So up(e) joined with up(e') is up(odot(e, e')), and the filter generated
by S is up(p^k) for the product p of S and the first k with p^k = p^(k+1).
Generating a filter costs O(|S|) lookups plus the squarings, finding all
filters O(n), and the join table of m filters O(m^2) lookups.  Joining
two filters is then O(1): two index lookups and one table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import (
    ContractError,
    InternalCheckError,
    ResiduatedLattice,
    bits,
    format_set,
    from_tables,
    is_subset,
)


def generated_filter(lat: ResiduatedLattice, subset: int) -> int:
    """Least filter containing the subset: up(p^k) for its product p.

    Squaring finds p^k: p^(2m) <= p^(m+1) <= p^m, so p^m = p^(2m) is
    stable, and the squares descend, so fewer than n squarings suffice.
    """
    odot = lat.odot
    p = lat.top
    for x in bits(subset):
        p = odot[p][x]
    for _ in range(lat.size):
        if odot[p][p] == p:
            return lat.up[p]
        p = odot[p][p]
    raise ContractError("generated_filter: no idempotent power; the lattice fails its axioms")


def principal_filter(lat: ResiduatedLattice, x: int) -> int:
    return generated_filter(lat, 1 << x)


def is_filter(lat: ResiduatedLattice, subset: int) -> bool:
    return subset != 0 and generated_filter(lat, subset) == subset


def canonical_sort(masks) -> tuple[int, ...]:
    """Canonical order for families of subsets: by size, then by bitmask."""
    return tuple(sorted(masks, key=lambda m: (bin(m).count("1"), m)))


def maximal_members(masks) -> list[int]:
    """The members of a family of subsets inside no other member, in order."""
    return [f for f in masks if not any(g != f and is_subset(f, g) for g in masks)]


class FilterLattice:
    """All filters of a lattice with a join table over filter indices."""

    def __init__(self, lat: ResiduatedLattice, filters: tuple[int, ...]):
        self.lattice = lat
        self.filters = filters
        self.index = {f: i for i, f in enumerate(filters)}
        least = {lat.up[e]: e for e in range(lat.size)}
        gens = [least[f] for f in filters]
        self.join_table = tuple(
            tuple(self.index[lat.up[lat.odot[e][e2]]] for e2 in gens) for e in gens
        )

    def __len__(self) -> int:
        return len(self.filters)


@cache
def filter_lattice(lat: ResiduatedLattice) -> FilterLattice:
    """Every filter: up(e) for each idempotent e, in canonical order."""
    idempotents = (e for e in range(lat.size) if lat.odot[e][e] == e)
    return FilterLattice(lat, canonical_sort(lat.up[e] for e in idempotents))


def all_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    return filter_lattice(lat).filters


def filter_meet(lat: ResiduatedLattice, f: int, g: int) -> int:
    return f & g


def filter_join(lat: ResiduatedLattice, f: int, g: int) -> int:
    """up(odot(e, e')) for the least elements e, e' of two filters, in O(1):
    read from the join table of the filter lattice."""
    fl = filter_lattice(lat)
    i, j = fl.index.get(f), fl.index.get(g)
    if i is None or j is None:
        raise ContractError("filter_join: inputs must be filters")
    return fl.filters[fl.join_table[i][j]]


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

    The filter is up(e) for its least element e, which is idempotent, and
    imp(a,b) in up(e) iff odot(e,a) <= b.  Hence a ~ b iff odot(e,a) =
    odot(e,b): multiplying odot(e,a) <= b by e gives odot(e,a) <= odot(e,b).
    The classes are the fibres of a -> odot(e,a), found in O(n).

    Ordered with the class of bottom first and the class of top last;
    intermediate classes by their smallest member.
    """
    if not is_filter(lat, f):
        raise ContractError("quotient: modulus must be a filter")
    e = next(x for x in bits(f) if lat.up[x] == f)
    fibres: dict[int, int] = {}
    for a, v in enumerate(lat.odot[e]):
        fibres[v] = fibres.get(v, 0) | 1 << a
    return tuple(sorted(fibres.values(), key=lambda c: (bool(c >> lat.top & 1), c & -c)))


def quotient(lat: ResiduatedLattice, f: int) -> ResiduatedLattice:
    """The residuated lattice induced on the congruence classes of a filter.

    The quotient is validated, except that when its int fields equal the
    input's (compared as tuples, not by hash), it takes the input's
    ``validation`` report: a report reads no label, so it would be the
    same.  The quotient by {top} is the input itself with labels {a}, so it
    is validated with the input, once; when its class order relabels the
    carrier (bottom not first, or top not last), its tables differ and it
    is validated in full.
    """
    classes = congruence_classes(lat, f)
    n = lat.size
    class_of = [0] * n
    for i, cls in enumerate(classes):
        for a in bits(cls):
            class_of[a] = i
    # compatible: within a class, the rows of each table agree up to class
    class_table = bytes(class_of) + bytes(256 - n)
    for table in (lat.join, lat.meet, lat.odot, lat.imp):
        rows = [bytes(row).translate(class_table) for row in table]
        for cls in classes:
            if len({rows[a] for a in bits(cls)}) != 1:
                raise InternalCheckError("congruence is not compatible with the operations")
    reps = [next(bits(cls)) for cls in classes]
    m = len(classes)
    qleq = [
        [bool(f >> lat.imp[reps[i]][reps[j]] & 1) for j in range(m)] for i in range(m)
    ]
    def tab(table):
        return [[class_of[table[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    labels = tuple(format_set(lat, cls) for cls in classes)
    qlat = from_tables(
        labels, qleq, tab(lat.join), tab(lat.meet), tab(lat.odot), tab(lat.imp),
        class_of[lat.bottom], class_of[lat.top],
    )
    report = lat.validation if qlat._int_fields() == lat._int_fields() else qlat.validation
    if not report.valid:
        raise InternalCheckError(f"quotient is not a residuated lattice: {report}")
    return qlat


def first_join_into(lat: ResiduatedLattice, subset: int) -> tuple[int, int] | None:
    """The first pair x <= y (by index), both outside the subset, whose join
    lies in it; None when there is none.

    A proper filter is prime exactly when this is None.
    """
    outside = [x for x in range(lat.size) if not subset >> x & 1]
    for i, x in enumerate(outside):
        row = lat.join[x]
        for y in outside[i:]:
            if subset >> row[y] & 1:
                return x, y
    return None


def is_join_closed(lat: ResiduatedLattice, subset: int) -> bool:
    els = list(bits(subset))
    return all(subset >> lat.join[x][y] & 1 for x in els for y in els)


def is_domain(lat: ResiduatedLattice) -> tuple[bool, tuple[int, int] | None]:
    """No two elements below the top join to the top.

    Equivalently the one-element filter {top} is prime; the witness is an
    offending pair.  The degenerate lattice (bottom = top) is not a
    domain, mirroring the convention for the zero ring; it gets no
    witness pair.
    """
    if lat.bottom == lat.top:
        return False, None
    pair = first_join_into(lat, 1 << lat.top)
    return pair is None, pair
