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

from .core import InternalCheckError, ResiduatedLattice, per_lattice
from .filters import all_filters, canonical_sort, filter_lattice
from .spectra import meet_rows, prime_spectrum


def coannihilator(lat: ResiduatedLattice, subset: int) -> int:
    """Intersection of the primes that do not contain the subset."""
    return meet_rows(prime_spectrum(lat).coannulets, subset, lat.full_mask)


def coannulet(lat: ResiduatedLattice, x: int) -> int:
    return prime_spectrum(lat).coannulets[x]


@dataclass
class SkeletonLattice:
    """The coannihilators, the coannulets among them, and the skeleton
    join of each pair of coannihilators, keyed by the pair of masks."""

    members: tuple[int, ...]
    coannulets: tuple[int, ...]
    join: dict[tuple[int, int], int]


@per_lattice
def skeleton(lat: ResiduatedLattice) -> SkeletonLattice:
    """The skeleton, verified to be a Boolean lattice.

    Membership ranges over filters only: the coannihilator of any subset
    equals that of the filter it generates, so nothing is missed.

    The skeleton join of f and g is coann(coann(f) & coann(g)).  It is
    read from two tables over member positions, built once here: the
    complement comp[i] of each member and the intersection meet[i][j] of
    each pair, so join[i][j] = comp[meet[comp[i]][comp[j]]].  Every law
    below is checked through these tables on every member, pair or triple
    of members; the join is then kept keyed by member masks.
    """
    members = canonical_sort({coannihilator(lat, f) for f in all_filters(lat)})
    gamma = canonical_sort({coannulet(lat, x) for x in range(lat.size)})
    index = {f: i for i, f in enumerate(members)}
    one, full = 1 << lat.top, lat.full_mask
    # coann(A) is the meet of all primes, which is {top} by theorem
    if one not in index:
        raise InternalCheckError("skeleton lacks the one filter")
    # a coannihilator is a meet of primes, a filter, so its own is a member
    comp = [index.get(coannihilator(lat, f)) for f in members]
    if None in comp:
        raise InternalCheckError("skeleton not closed under complement")
    # coann(X) & coann(Y) = coann(X | Y), which is coann of a filter
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
    skel_join = {
        (f, g): members[join[i][j]] for i, f in enumerate(members) for j, g in enumerate(members)
    }
    for g in gamma:
        if g not in index:
            raise InternalCheckError("coannulets must be coannihilators")
    gamma_set = set(gamma)
    for x in gamma:
        for y in gamma:
            if x & y not in gamma_set or skel_join[x, y] not in gamma_set:
                raise InternalCheckError("coannulets not a sublattice of the skeleton")
    return SkeletonLattice(members, gamma, skel_join)


@dataclass(frozen=True)
class BaerRickart:
    baer: bool
    rickart: bool


def classify_baer_rickart(lat: ResiduatedLattice) -> BaerRickart:
    """Baer: the skeleton join agrees with the filter join on coannihilators.
    Rickart: the coannulets are closed under the filter join and each has a
    complement among the coannulets.

    Coannihilators are meets of primes, so filters: each is up(e) for its
    least element e, and the filter join of up(e) and up(e') is
    up(odot(e, e')).  Every join is one lookup on least elements, and a
    join lies in the coannulets exactly when its least element is one of
    theirs.
    """
    skel = skeleton(lat)
    least = filter_lattice(lat).least
    up, odot, bottom = lat.up, lat.odot, lat.bottom
    baer = all(
        skel.join[f, g] == up[odot[least[f]][least[g]]]
        for f in skel.members
        for g in skel.members
    )
    gamma = {f: least[f] for f in skel.coannulets}
    gens = set(gamma.values())
    one = 1 << lat.top
    rickart = all(
        odot[e][e2] in gens for e in gens for e2 in gens
    ) and all(
        any(f & g == one and odot[e][e2] == bottom for g, e2 in gamma.items())
        for f, e in gamma.items()
    )
    return BaerRickart(baer=baer, rickart=rickart)
