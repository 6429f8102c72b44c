"""Prime spectra, hull-kernel machinery, and finite Alexandrov topologies.

Prime filters are the meet-irreducible proper filters, detected by the
element-wise condition (x v y in P implies x in P or y in P) and
cross-checked against meet-primality in the filter lattice.  Every finite
topology is Alexandrov, so spaces are stored as minimal-open-neighbourhood
maps and all predicates reduce to preorder computations: no space's open
or closed sets are enumerated.

The hull h(X) of a set X of elements is the set of primes containing X,
and the kernel k(S) of a set S of primes is their intersection: a Galois
connection.  The spectrum keeps each prime as its least element (see
``reslat.filters``), so each side is one fold of a lattice table: h(X) is
the incidence row ``hulls[m]`` of the meet m of X, and k(S) is up of the
join of the least elements of the primes in S.  The hull-kernel
topologies are read off the containment order of the primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import (
    ContractError,
    InternalCheckError,
    ResiduatedLattice,
    _converse,
    bits,
    is_subset,
    per_lattice,
    transitive_closure,
)
from .filters import filter_lattice, first_join_into, idempotent_class


def fold(table, start: int, items) -> int:
    """The join (or meet, by the table) of start and the items."""
    for i in items:
        start = table[start][i]
    return start


class Spectrum:
    """The prime filters of a lattice with their maximal and minimal positions.

    ``primes[i]`` is up(gens[i]), in canonical order.  ``hulls[x]`` is the
    bitmask of prime positions i with x in primes[i] (gens[i] <= x), and
    ``above[i]``, that of the primes holding primes[i], is hulls[gens[i]];
    ``below[i]`` is the converse.  ``coannulets[x]``, the intersection of
    the primes not containing x, is up(Gamma[x]) for the join Gamma[x] of
    the gens not below x (the bottom when there is none).  Gamma is
    ``coannulet_least``, one byte per element.  As up is injective, two
    coannulets are equal exactly when their bytes are, and the filter join
    of coannulets x and y is up(odot(Gamma[x], Gamma[y])): one lookup.
    """

    def __init__(self, lat: ResiduatedLattice, gens: bytes):
        up, k = lat.up, len(gens)
        self.gens = gens
        self.primes = tuple(up[e] for e in gens)
        self.index = {p: i for i, p in enumerate(self.primes)}
        self.hulls = tuple(_converse(self.primes, lat.size))
        self.above = tuple(self.hulls[e] for e in gens)
        self.below = tuple(_converse(self.above, k))
        self.maximal = tuple(i for i in range(k) if self.above[i] == 1 << i)
        self.minimal = tuple(i for i in range(k) if self.below[i] == 1 << i)
        self.minimal_mask = sum(1 << i for i in self.minimal)
        self.coannulet_least = bytes(
            fold(lat.join, lat.bottom, (e for e in gens if not up[e] >> x & 1))
            for x in range(lat.size)
        )
        self.coannulets = tuple(up[g] for g in self.coannulet_least)

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def all_points(self) -> int:
        return (1 << len(self.primes)) - 1


def _lattice_prime(lat: ResiduatedLattice, e: int, idempotents: int) -> bool:
    """Whether the join of the idempotents (a mask) strictly below e stays below e."""
    return fold(lat.join, lat.bottom, bits(lat.down_masks[e] & idempotents & ~(1 << e))) != e


@per_lattice(key=idempotent_class)
def prime_spectrum(lat: ResiduatedLattice) -> Spectrum:
    """All prime filters, with the meet-primality cross-check kept enabled.

    The element-wise test is ``first_join_into``.  The lattice-wise one,
    meet-primality in the filter lattice, reads least elements: up is an
    anti-isomorphism from the idempotents I onto the filter lattice, with
    up(a) & up(b) = up(a v b): I is closed under join and holds the
    bottom.  In a finite distributive lattice meet-prime is meet-irreducible,
    so a proper filter up(e) is meet-prime iff e has one lower cover in I:
    iff the join of the idempotents strictly below e stays below e.
    """
    fl = filter_lattice(lat)
    idempotents = sum(1 << e for e in fl.least.values())
    gens = []
    for p in fl.filters:
        if p == lat.full_mask:
            continue
        e = fl.least[p]
        elementwise = first_join_into(lat, p) is None
        if elementwise != _lattice_prime(lat, e, idempotents):
            raise InternalCheckError(
                f"primality tests disagree on {lat.label_set(p)}"
            )
        if elementwise:
            gens.append(e)
    return Spectrum(lat, bytes(gens))


# ---------------------------------------------------------------------------
# hull / kernel


def hull(lat: ResiduatedLattice, subset: int) -> int:
    """Positions of the primes containing the subset: up(e) holds it iff
    e is below its meet (the top, in every prime, for the empty subset)."""
    return prime_spectrum(lat).hulls[fold(lat.meet, lat.top, bits(subset))]


def kernel(lat: ResiduatedLattice, point_mask: int) -> int:
    """Intersection of the selected primes; the empty intersection is A."""
    gens = prime_spectrum(lat).gens
    return lat.up[fold(lat.join, lat.bottom, map(gens.__getitem__, bits(point_mask)))]


def generalization(lat: ResiduatedLattice, point_mask: int) -> int:
    """Primes contained in some member of the given set."""
    return reduce(or_, map(prime_spectrum(lat).below.__getitem__, bits(point_mask)), 0)


# ---------------------------------------------------------------------------
# finite topologies


@dataclass(frozen=True)
class FiniteTopology:
    """A finite space given by its minimal-open-neighbourhood map.

    ``point_filters[i]`` is the filter sitting at position i; min_nbhd
    masks are over positions.  Opens are exactly the unions of minimal
    neighbourhoods; open and closed sets are tested, never enumerated.
    Each constructor gives a reflexive, transitive map: a containment
    order, the identity, or intersections of the opens holding a point.
    """

    point_filters: tuple[int, ...]
    min_nbhd: tuple[int, ...]

    @classmethod
    def from_subbasis(cls, point_filters: tuple[int, ...], subbasis: list[int]) -> "FiniteTopology":
        """The topology generated by a subbasis of open point masks: the
        minimal neighbourhood of a point is the intersection of the
        subbasic opens containing it."""
        full = (1 << len(point_filters)) - 1
        min_nbhd = []
        for i in range(len(point_filters)):
            nb = full
            for u in subbasis:
                if u >> i & 1:
                    nb &= u
            min_nbhd.append(nb)
        return cls(point_filters, tuple(min_nbhd))

    def __len__(self) -> int:
        return len(self.point_filters)

    @property
    def all_points(self) -> int:
        return (1 << len(self.point_filters)) - 1

    def is_open(self, subset: int) -> bool:
        return all(is_subset(self.min_nbhd[i], subset) for i in bits(subset))

    def is_closed(self, subset: int) -> bool:
        return self.is_open(self.all_points & ~subset)


def hull_kernel_topology(lat: ResiduatedLattice, space: str, variant: str) -> FiniteTopology:
    """Topology on a prime collection from the basis {h(x) | x in A}.

    hull: the h(x) form a closed basis; dual: they form an open basis;
    patch: the topology generated by both.  The minimal open set around a
    prime P is read off the containment order.  Dual: the h(x) with x in P
    intersect in the primes above P.  Hull: the complements of the h(x)
    with x not in P intersect in the primes below P.  Patch: P alone.  Min
    is an antichain, so all three are discrete there.
    """
    spec = prime_spectrum(lat)
    if space == "spec":
        points = spec.primes
    elif space == "min":
        points = tuple(spec.primes[g] for g in spec.minimal)
    else:
        raise ContractError(f"unknown space {space!r}")
    if variant not in ("hull", "dual", "patch"):
        raise ContractError(f"unknown variant {variant!r}")
    if space == "min" or variant == "patch":
        return FiniteTopology(points, tuple(1 << i for i in range(len(points))))
    return FiniteTopology(points, spec.below if variant == "hull" else spec.above)


# ---------------------------------------------------------------------------
# separation


@dataclass(frozen=True)
class SeparationReport:
    """``discrete``: the space is T1, which on a finite space is the same
    as Hausdorff and as discrete.  ``witness`` is a pair of points with
    disjoint closures and meeting minimal neighbourhoods when the space
    is not normal, else None."""

    discrete: bool
    normal: bool
    witness: tuple[int, int] | None


def separation_check(top: FiniteTopology) -> SeparationReport:
    """T1, Hausdorff and normality of a finite space, with a normality witness.

    Finite spaces are T1 iff Hausdorff iff discrete, so one field,
    ``discrete``, reports all three: whether every minimal neighbourhood
    is a single point.  Normality uses the pointwise criterion: whenever
    two point closures are disjoint, the two minimal neighbourhoods must
    be disjoint; this is equivalent to the open-set definition on finite
    spaces (closed sets are unions of point closures, and minimal open
    supersets are unions of minimal neighbourhoods).
    """
    k = len(top.point_filters)
    # the closure of point i: the points whose minimal neighbourhood holds i
    closures = _converse(top.min_nbhd, k)
    discrete = all(nb == 1 << i for i, nb in enumerate(top.min_nbhd))
    witness = next(
        (
            (i, j)
            for i in range(k)
            for j in range(i + 1, k)
            if not closures[i] & closures[j] and top.min_nbhd[i] & top.min_nbhd[j]
        ),
        None,
    )
    return SeparationReport(discrete, witness is None, witness)


# ---------------------------------------------------------------------------
# linkage relations on the prime space


@dataclass(frozen=True)
class LinkageRelation:
    """Transitive closure of a reflexive symmetric relation on Spec.

    ``closed[i]`` is the class of prime i.  The classes partition the
    prime space; the map sending a minimal prime to its class is a
    homeomorphism onto the quotient of the dual prime space exactly when
    the partition consists of the up-sets of the minimal primes.
    """

    closed: tuple[int, ...]
    collapse_bijective: bool
    collapse_homeomorphism: bool


def prime_linkage(lat: ResiduatedLattice, kind: str) -> LinkageRelation:
    """The linkage relation of the given kind (see ``LinkageRelation``).

    kind "filters": p related to q when their filter join stays proper.
    kind "ideals": p related to q when the lattice-ideal join of their
    complements stays proper.  The complements of primes are lattice
    ideals, and their ideal join is the down-closure of pairwise joins:
    it is everything iff some x outside p and some y outside q join to
    the top.  ``reach[i]``, the OR of ``top_joiners[x]`` over the x
    outside primes[i], holds every such y for p = primes[i], so p is
    related to q iff reach[i] lies in q.  For kind "filters", the join of
    up(e) and up(e') is the carrier exactly when odot(e, e') is the
    bottom, so p is related to q iff odot(e, e') is not, for their least
    elements e and e'.  Either way each row is one mask, built in one
    pass over the primes; both relations are symmetric, as join and odot
    are commutative.
    """
    spec = prime_spectrum(lat)
    primes = spec.primes
    k = len(spec)
    if kind == "filters":
        odot, bottom, gens = lat.odot, lat.bottom, spec.gens
        rows = [sum(1 << j for j, g in enumerate(gens) if odot[e][g] != bottom) for e in gens]
    elif kind == "ideals":
        joiners = lat.top_joiners
        reach = [reduce(or_, map(joiners.__getitem__, bits(lat.full_mask & ~p)), 0) for p in primes]
        rows = [sum(1 << j for j, q in enumerate(primes) if not r & ~q) for r in reach]
    else:
        raise ContractError(f"unknown linkage kind {kind!r}")
    # for kind "ideals" this is primality at the top (no x, y outside p join
    # to it), read apart from prime_spectrum; for "filters", p v p = p
    for i in range(k):
        if not rows[i] >> i & 1:
            raise InternalCheckError("linkage relation must be reflexive")
    closed = transitive_closure(rows)
    classes = set(closed)
    # the collapse map sends a minimal prime to its class; it is always
    # onto (every prime is linked to each minimal prime below it)
    mins = spec.minimal
    class_of_min = [closed[i] for i in mins]
    bijective = len(set(class_of_min)) == len(mins) == len(classes)
    # Min with the dual topology is discrete, so the collapse is a
    # homeomorphism iff it is bijective and every class is open in the
    # dual prime space, i.e. an up-set of the containment order.
    classes_open = all(
        is_subset(spec.above[i], cls) for cls in classes for i in bits(cls)
    )
    return LinkageRelation(
        closed=closed,
        collapse_bijective=bijective,
        collapse_homeomorphism=bijective and classes_open,
    )
