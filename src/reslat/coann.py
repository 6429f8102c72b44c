"""Coannihilators, coannulets, the skeleton, Baer/Rickart classification.

The coannihilator of a subset X is the intersection of the primes not
containing X.  Coannihilators form a Boolean lattice (the skeleton of the
filter lattice) under intersection and the skeleton join; the coannulets
are the single-element case.  coann(X) is the intersection of the
coannulets of the elements of X: a prime fails to contain X exactly when
it misses some x in X, so {P | X not in P} is the union over x in X of
{P | x not in P}, and the empty X gives the whole carrier.  The spectrum
keeps one coannulet per element, so coann(X) costs |X| mask operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import InternalCheckError, ResiduatedLattice
from .filters import all_filters, canonical_sort, filter_join
from .spectra import meet_rows, prime_spectrum


def coannihilator(lat: ResiduatedLattice, subset: int) -> int:
    """Intersection of the primes that do not contain the subset."""
    return meet_rows(prime_spectrum(lat).coannulets, subset, lat.full_mask)


def coannulet(lat: ResiduatedLattice, x: int) -> int:
    return prime_spectrum(lat).coannulets[x]


class SkeletonLattice:
    """Coannihilators with the skeleton join, plus the coannulet sublattice."""

    def __init__(
        self,
        members: tuple[int, ...],
        coannulets: tuple[int, ...],
        join_table: tuple[tuple[int, ...], ...],
    ):
        self.members = members
        self.coannulets = coannulets
        self.index = {f: i for i, f in enumerate(members)}
        self.join_table = join_table

    def skeleton_join(self, f: int, g: int) -> int:
        return self.members[self.join_table[self.index[f]][self.index[g]]]


@cache
def skeleton(lat: ResiduatedLattice) -> SkeletonLattice:
    """The skeleton, verified to be a Boolean lattice.

    Membership ranges over filters only: the coannihilator of any subset
    equals that of the filter it generates, so nothing is missed.

    The skeleton join of f and g is coann(coann(f) & coann(g)).  It is
    read from two tables over member positions, built once here: the
    complement comp[i] of each member and the intersection meet[i][j] of
    each pair, so join[i][j] = comp[meet[comp[i]][comp[j]]].  Every law
    below is checked through these tables on every member, pair or triple
    of members.
    """
    members = canonical_sort({coannihilator(lat, f) for f in all_filters(lat)})
    gamma = canonical_sort({coannulet(lat, x) for x in range(lat.size)})
    index = {f: i for i, f in enumerate(members)}
    one, full = 1 << lat.top, lat.full_mask
    if one not in index or full not in index:
        raise InternalCheckError("skeleton lacks its bounds")
    comp = [index.get(coannihilator(lat, f)) for f in members]
    if None in comp:
        raise InternalCheckError("skeleton not closed under complement")
    meet = [[index.get(f & g) for g in members] for f in members]
    if any(None in row for row in meet):
        raise InternalCheckError("skeleton not closed under intersection")
    m = len(members)
    join = tuple(tuple(comp[meet[ci][cj]] for cj in comp) for ci in comp)
    for i, f in enumerate(members):
        if f & members[comp[i]] != one:
            raise InternalCheckError("skeleton complement fails the meet law")
        ji = join[i]
        if members[ji[comp[i]]] != full:
            raise InternalCheckError("skeleton complement fails the join law")
        for j in range(m):
            if comp[ji[j]] != meet[comp[i]][comp[j]]:
                raise InternalCheckError("skeleton De Morgan law fails")
            meet_j, meet_ij = meet[j], meet[ji[j]]
            if any(ji[meet_j[h]] != meet_ij[ji[h]] for h in range(m)):
                raise InternalCheckError("skeleton is not distributive")
    for g in gamma:
        if g not in index:
            raise InternalCheckError("coannulets must be coannihilators")
    gamma_set = set(gamma)
    for x in gamma:
        for y in gamma:
            if x & y not in gamma_set or members[join[index[x]][index[y]]] not in gamma_set:
                raise InternalCheckError("coannulets not a sublattice of the skeleton")
    return SkeletonLattice(members, gamma, join)


@dataclass(frozen=True)
class BaerRickart:
    baer: bool
    rickart: bool


def classify_baer_rickart(lat: ResiduatedLattice) -> BaerRickart:
    """Baer: the skeleton join agrees with the filter join on coannihilators.
    Rickart: the coannulets are closed under the filter join and each has a
    complement among the coannulets."""
    skel = skeleton(lat)
    baer = all(
        skel.skeleton_join(f, g) == filter_join(lat, f, g)
        for f in skel.members
        for g in skel.members
    )
    gamma = set(skel.coannulets)
    one = 1 << lat.top
    rickart = all(
        filter_join(lat, f, g) in gamma for f in gamma for g in gamma
    ) and all(
        any(
            f & g == one and filter_join(lat, f, g) == lat.full_mask
            for g in gamma
        )
        for f in gamma
    )
    return BaerRickart(baer=baer, rickart=rickart)
