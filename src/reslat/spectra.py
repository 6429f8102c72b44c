"""Prime spectra, hull-kernel machinery, and finite Alexandrov topologies.

Prime filters are the meet-irreducible proper filters, detected by the
element-wise condition (x v y in P implies x in P or y in P) and
cross-checked against meet-primality in the filter lattice.  Every finite
topology is Alexandrov, so spaces are stored as minimal-open-neighbourhood
maps and all predicates reduce to preorder computations: no space's open
or closed sets are enumerated.

The hull h(X) of a set X of elements is the set of primes containing X,
and the kernel k(S) of a set S of primes is their intersection: a Galois
connection.  The spectrum stores the one relation "prime i contains x" as
the incidence table ``hulls`` (bit i of ``hulls[x]``).  h(X) is the AND of
hulls[x] over x in X, k(S) the AND of the primes in S, and the coannulet
of x is k of the primes outside hulls[x]; ``meet_rows`` is that one fold.
The hull-kernel topologies are read off the containment order of the primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import (
    ContractError,
    InternalCheckError,
    ResiduatedLattice,
    _converse,
    bits,
    is_subset,
    transitive_closure,
)
from .filters import all_filters, canonical_sort, filter_lattice, first_join_into


def meet_rows(rows, selected: int, empty: int) -> int:
    """The AND of rows[i] over the set bits i of selected; empty when none is."""
    out = empty
    for i in bits(selected):
        out &= rows[i]
    return out


class Spectrum:
    """The prime filters of a lattice with their maximal and minimal positions.

    ``hulls[x]`` is the bitmask of prime positions i with x in primes[i].
    ``above[i]`` is the bitmask of prime positions j with primes[i] a
    subset of primes[j], which is the hull of primes[i]; ``below[i]`` is
    the converse.  Positions are indices into the canonically ordered
    ``primes`` tuple.  ``coannulets[x]`` is the intersection of the primes
    not containing the element x (the carrier when every prime contains x).

    ``coannulet_least`` is Gamma, one byte per element: Gamma[x] is the least
    element of ``coannulets[x]``.  A coannulet is a meet of primes, or the
    carrier, and an intersection of filters is a filter, so it is up(e) for
    one idempotent e (see ``reslat.filters``) and the filter lattice's
    ``least`` holds it.  As up is injective, two coannulets are equal
    exactly when their bytes are, and the filter join of coannulets x and
    y is up(odot(Gamma[x], Gamma[y])): a join of coannulets is one lookup.
    """

    def __init__(self, lat: ResiduatedLattice, primes: tuple[int, ...]):
        self.primes = primes
        self.index = {p: i for i, p in enumerate(primes)}
        k = len(primes)
        everything = (1 << k) - 1
        self.hulls = tuple(_converse(primes, lat.size))
        self.above = tuple(meet_rows(self.hulls, p, everything) for p in primes)
        self.below = tuple(_converse(self.above, k))
        self.maximal = tuple(i for i in range(k) if self.above[i] == 1 << i)
        self.minimal = tuple(i for i in range(k) if self.below[i] == 1 << i)
        self.minimal_mask = sum(1 << i for i in self.minimal)
        self.coannulets = tuple(
            meet_rows(primes, everything & ~h, lat.full_mask) for h in self.hulls
        )
        least = filter_lattice(lat).least
        self.coannulet_least = bytes(least[c] for c in self.coannulets)

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def all_points(self) -> int:
        return (1 << len(self.primes)) - 1


def _meet_prime(p: int, filters: tuple[int, ...]) -> bool:
    """No two of the filters outside p meet inside p."""
    for f in filters:
        if is_subset(f, p):
            continue
        for g in filters:
            if is_subset(f & g, p) and not is_subset(g, p):
                return False
    return True


@cache
def prime_spectrum(lat: ResiduatedLattice) -> Spectrum:
    """All prime filters, with the meet-primality cross-check kept enabled."""
    filters = all_filters(lat)
    primes = []
    for p in filters:
        if p == lat.full_mask:
            continue
        elementwise = first_join_into(lat, p) is None
        lattice_wise = _meet_prime(p, filters)
        if elementwise != lattice_wise:
            raise InternalCheckError(
                f"primality tests disagree on {lat.label_set(p)}"
            )
        if elementwise:
            primes.append(p)
    return Spectrum(lat, canonical_sort(primes))


# ---------------------------------------------------------------------------
# hull / kernel


def hull(lat: ResiduatedLattice, subset: int) -> int:
    """Positions of the primes containing the subset."""
    spec = prime_spectrum(lat)
    return meet_rows(spec.hulls, subset, spec.all_points)


def kernel(lat: ResiduatedLattice, point_mask: int) -> int:
    """Intersection of the selected primes; the empty intersection is A."""
    return meet_rows(prime_spectrum(lat).primes, point_mask, lat.full_mask)


def generalization(lat: ResiduatedLattice, point_mask: int) -> int:
    """Primes contained in some member of the given set."""
    spec = prime_spectrum(lat)
    out = 0
    for i in bits(point_mask):
        out |= spec.below[i]
    return out


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
    outside primes[i], holds every such y for p = primes[i], so each pair
    of kind "ideals" is one AND.  For kind "filters", the join of
    up(e) and up(e') is the carrier exactly when odot(e, e') is the
    bottom, so each pair is one lookup on the primes' least elements.
    """
    spec = prime_spectrum(lat)
    primes = spec.primes
    k = len(spec)
    if kind == "filters":
        least = filter_lattice(lat).least
        odot, bottom = lat.odot, lat.bottom
        gens = [least[p] for p in primes]

        def linked(i: int, j: int) -> bool:
            return odot[gens[i]][gens[j]] != bottom
    elif kind == "ideals":
        joiners = lat.top_joiners
        reach = [0] * k
        for i, p in enumerate(primes):
            for x in bits(lat.full_mask & ~p):
                reach[i] |= joiners[x]

        def linked(i: int, j: int) -> bool:
            return not reach[i] & ~primes[j]
    else:
        raise ContractError(f"unknown linkage kind {kind!r}")
    rows = [0] * k
    for i in range(k):
        for j in range(i, k):
            if linked(i, j):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
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
