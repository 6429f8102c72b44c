"""Prime spectra, hull-kernel machinery, and finite Alexandrov topologies.

Prime filters are the meet-irreducible proper filters, detected by the
element-wise condition (x v y in P implies x in P or y in P) and
cross-checked against meet-primality in the filter lattice.  Every finite
topology is Alexandrov, so spaces are stored as minimal-open-neighbourhood
maps and all predicates reduce to preorder computations.

The hull h(X) of a set X of elements is the set of primes containing X,
and the kernel k(S) of a set S of primes is their intersection: a Galois
connection.  The spectrum stores the one relation "prime i contains x" as
the incidence table ``hulls`` (bit i of ``hulls[x]``).  h(X) is the AND of
hulls[x] over x in X, k(S) the AND of the primes in S, and the coannulet
of x is k of the primes outside hulls[x]; ``meet_rows`` is that one fold.
The hull-kernel topologies take their subbases from the incidence.
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
from .filters import (
    all_filters,
    canonical_sort,
    filter_join,
    first_join_into,
    is_filter,
    is_join_closed,
    maximal_members,
)


def meet_rows(rows, selected: int, empty: int) -> int:
    """The AND of rows[i] over the set bits i of selected; empty when none is."""
    out = empty
    for i in bits(selected):
        out &= rows[i]
    return out


class Spectrum:
    """The prime filters of a lattice with maximal/minimal flags.

    ``hulls[x]`` is the bitmask of prime positions i with x in primes[i].
    ``above[i]`` is the bitmask of prime positions j with primes[i] a
    subset of primes[j], which is the hull of primes[i]; ``below[i]`` is
    the converse.  Positions are indices into the canonically ordered
    ``primes`` tuple.  ``coannulets[x]`` is the intersection of the primes
    not containing the element x (the carrier when every prime contains x).
    """

    def __init__(self, lat: ResiduatedLattice, primes: tuple[int, ...]):
        self.lattice = lat
        self.primes = primes
        self.index = {p: i for i, p in enumerate(primes)}
        k = len(primes)
        everything = (1 << k) - 1
        self.hulls = tuple(_converse(primes, lat.size))
        self.above = tuple(meet_rows(self.hulls, p, everything) for p in primes)
        self.below = tuple(_converse(self.above, k))
        self.is_maximal = tuple(self.above[i] == 1 << i for i in range(k))
        self.is_minimal = tuple(self.below[i] == 1 << i for i in range(k))
        self.maximal = tuple(i for i in range(k) if self.is_maximal[i])
        self.minimal = tuple(i for i in range(k) if self.is_minimal[i])
        self.coannulets = tuple(
            meet_rows(primes, everything & ~h, lat.full_mask) for h in self.hulls
        )

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def all_points(self) -> int:
        return (1 << len(self.primes)) - 1

    @property
    def minimal_mask(self) -> int:
        return sum(1 << i for i in self.minimal)


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
    spec = Spectrum(lat, canonical_sort(primes))
    for i in range(len(spec)):
        if not spec.is_minimal[i] and not any(
            spec.is_minimal[j] for j in bits(spec.below[i])
        ):
            raise InternalCheckError("a prime contains no minimal prime")
    return spec


def prime_avoiding(lat: ResiduatedLattice, f: int, avoid: int) -> int:
    """A filter containing f that is maximal among those disjoint from avoid.

    The avoided set must be join closed and disjoint from f.  The result
    is prime; this is asserted.
    """
    if not is_filter(lat, f):
        raise ContractError("prime_avoiding: f must be a filter")
    if f & avoid:
        raise ContractError("prime_avoiding: f meets the avoided set")
    if not is_join_closed(lat, avoid):
        raise ContractError("prime_avoiding: avoided set is not join closed")
    candidates = [g for g in all_filters(lat) if is_subset(f, g) and not g & avoid]
    result = maximal_members(candidates)[0]
    spec = prime_spectrum(lat)
    if result not in spec.index:
        raise InternalCheckError("maximal avoiding filter is not prime")
    return result


# ---------------------------------------------------------------------------
# hull / kernel


def hull(lat: ResiduatedLattice, subset: int) -> int:
    """Positions of the primes containing the subset."""
    spec = prime_spectrum(lat)
    return meet_rows(spec.hulls, subset, spec.all_points)


def kernel(lat: ResiduatedLattice, point_mask: int) -> int:
    """Intersection of the selected primes; the empty intersection is A."""
    return meet_rows(prime_spectrum(lat).primes, point_mask, lat.full_mask)


def specialization(lat: ResiduatedLattice, point_mask: int) -> int:
    """Primes containing some member of the given set."""
    spec = prime_spectrum(lat)
    out = 0
    for i in bits(point_mask):
        out |= spec.above[i]
    return out


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
    neighbourhoods.
    """

    space: str
    variant: str
    point_filters: tuple[int, ...]
    min_nbhd: tuple[int, ...]

    def __post_init__(self):
        k = len(self.point_filters)
        for i in range(k):
            if not self.min_nbhd[i] >> i & 1:
                raise InternalCheckError("point outside its own neighbourhood")
        for i in range(k):
            for j in bits(self.min_nbhd[i]):
                if not is_subset(self.min_nbhd[j], self.min_nbhd[i]):
                    raise InternalCheckError("neighbourhood map is not transitive")

    @classmethod
    def from_subbasis(
        cls, space: str, variant: str, point_filters: tuple[int, ...], subbasis: list[int]
    ) -> "FiniteTopology":
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
        return cls(space, variant, point_filters, tuple(min_nbhd))

    def __len__(self) -> int:
        return len(self.point_filters)

    @property
    def all_points(self) -> int:
        return (1 << len(self.point_filters)) - 1

    def is_open(self, subset: int) -> bool:
        return all(is_subset(self.min_nbhd[i], subset) for i in bits(subset))

    def is_closed(self, subset: int) -> bool:
        return self.is_open(self.all_points & ~subset)

    def closure(self, subset: int) -> int:
        return sum(
            1 << i for i in range(len(self.point_filters))
            if self.min_nbhd[i] & subset
        )

    def open_sets(self) -> list[int]:
        """All opens by brute force; only sensible for small spaces."""
        k = len(self.point_filters)
        if k > 20:
            raise ContractError("open-set enumeration capped at 20 points")
        return [u for u in range(1 << k) if self.is_open(u)]

    def closed_sets(self) -> list[int]:
        full = self.all_points
        return [full & ~u for u in self.open_sets()]


def hull_kernel_topology(lat: ResiduatedLattice, space: str, variant: str) -> FiniteTopology:
    """Topology on a prime collection from the basis {h(x) | x in A}.

    hull: the h(x) form a closed basis; dual: they form an open basis;
    patch: the topology generated by both.
    """
    spec = prime_spectrum(lat)
    if space == "spec":
        points = spec.primes
    elif space == "min":
        points = tuple(spec.primes[g] for g in spec.minimal)
    else:
        raise ContractError(f"unknown space {space!r}")
    full = (1 << len(points)) - 1
    hulls = _converse(points, lat.size)
    subbasic: list[int] = []
    if variant in ("dual", "patch"):
        subbasic.extend(hulls)
    if variant in ("hull", "patch"):
        subbasic.extend(full & ~h for h in hulls)
    if variant not in ("hull", "dual", "patch"):
        raise ContractError(f"unknown variant {variant!r}")
    return FiniteTopology.from_subbasis(space, variant, points, subbasic)


# ---------------------------------------------------------------------------
# separation


@dataclass(frozen=True)
class SeparationReport:
    t1: bool
    hausdorff: bool
    normal: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    def witness(self, kind: str):
        for k, w in self.witnesses:
            if k == kind:
                return w
        return None


def separation_check(top: FiniteTopology) -> SeparationReport:
    """T1, Hausdorff and normality of a finite space, with witnesses.

    Finite spaces are T1 iff Hausdorff iff discrete.  Normality uses the
    pointwise criterion: whenever two point closures are disjoint, the two
    minimal neighbourhoods must be disjoint; this is equivalent to the
    open-set definition on finite spaces (closed sets are unions of point
    closures, and minimal open supersets are unions of minimal
    neighbourhoods).
    """
    k = len(top.point_filters)
    # the closure of point i: the points whose minimal neighbourhood holds i
    closures = _converse(top.min_nbhd, k)
    witnesses: list[tuple[str, tuple[int, ...]]] = []
    t1 = True
    for i, cl in enumerate(closures):
        if cl != 1 << i:
            t1 = False
            other = next(j for j in bits(cl) if j != i)
            witnesses.append(("t1", (i, other)))
            break
    hausdorff = True
    for i in range(k):
        if top.min_nbhd[i] != 1 << i:
            hausdorff = False
            other = next(j for j in bits(top.min_nbhd[i]) if j != i)
            witnesses.append(("hausdorff", (i, other)))
            break
    if t1 != hausdorff:
        raise InternalCheckError("finite space: T1 and Hausdorff must coincide")
    normal = True
    for i in range(k):
        if not normal:
            break
        for j in range(i + 1, k):
            if closures[i] & closures[j]:
                continue
            if top.min_nbhd[i] & top.min_nbhd[j]:
                normal = False
                witnesses.append(("normal", (i, j)))
                break
    return SeparationReport(t1, hausdorff, normal, tuple(witnesses))


def minimal_primes_separated(lat: ResiduatedLattice) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether distinct minimal primes have disjoint neighbourhoods in the
    dual topology on the whole prime space.

    The minimal dual-open around a prime p is h(p), so two minimal primes
    are separated exactly when no prime contains both.  The witness is
    (position of m1, position of m2, position of a shared prime).
    """
    spec = prime_spectrum(lat)
    mins = spec.minimal
    for ai in range(len(mins)):
        for bi in range(ai + 1, len(mins)):
            shared = spec.above[mins[ai]] & spec.above[mins[bi]]
            if shared:
                return False, (mins[ai], mins[bi], next(bits(shared)))
    return True, None


# ---------------------------------------------------------------------------
# retraction


@dataclass(frozen=True)
class RetractionReport:
    exists: bool
    mapping: tuple[int, ...] | None
    continuous: bool
    fixes_minimal: bool
    witness: int | None


def retraction_check(lat: ResiduatedLattice) -> RetractionReport:
    """The map sending a prime to its unique minimal prime, when it exists.

    Continuity in the dual topologies amounts to the map being constant
    on the up-set of every prime.  When some prime contains two minimal
    primes the witness names it and no retraction is returned.
    """
    spec = prime_spectrum(lat)
    k = len(spec)
    mapping = []
    for i in range(k):
        below_min = [j for j in bits(spec.below[i]) if spec.is_minimal[j]]
        if len(below_min) != 1:
            return RetractionReport(False, None, False, False, i)
        mapping.append(below_min[0])
    continuous = all(
        mapping[j] == mapping[i] for i in range(k) for j in bits(spec.above[i])
    )
    fixes = all(mapping[i] == i for i in spec.minimal)
    return RetractionReport(True, tuple(mapping), continuous, fixes, None)


# ---------------------------------------------------------------------------
# linkage relations on the prime space


@dataclass(frozen=True)
class LinkageRelation:
    """Transitive closure of a reflexive symmetric relation on Spec.

    kind "filters": p related to q when their filter join stays proper.
    kind "ideals": p related to q when the lattice-ideal join of their
    complements stays proper.  The classes partition the prime space; the
    map sending a minimal prime to its class is a homeomorphism onto the
    quotient of the dual prime space exactly when the partition consists
    of the up-sets of the minimal primes.
    """

    kind: str
    base: tuple[int, ...]
    closed: tuple[int, ...]
    classes: tuple[int, ...]
    collapse_bijective: bool
    collapse_homeomorphism: bool

    def related(self, i: int, j: int) -> bool:
        return bool(self.closed[i] >> j & 1)

    def class_of(self, i: int) -> int:
        for cls in self.classes:
            if cls >> i & 1:
                return cls
        raise KeyError(i)


def prime_linkage(lat: ResiduatedLattice, kind: str) -> LinkageRelation:
    """The linkage relation of the given kind (see ``LinkageRelation``).

    The complements of primes are lattice ideals, and their ideal join is
    the down-closure of pairwise joins: it is everything iff some x outside
    p and some y outside q join to the top.  ``reach[i]``, the OR of
    ``top_joiners[x]`` over the x outside primes[i], holds every such y for
    p = primes[i], so each pair of kind "ideals" is one AND.
    """
    spec = prime_spectrum(lat)
    primes = spec.primes
    k = len(spec)
    if kind == "filters":
        def linked(i: int, j: int) -> bool:
            return filter_join(lat, primes[i], primes[j]) != lat.full_mask
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
    for i in range(k):
        if not rows[i] >> i & 1:
            raise InternalCheckError("linkage relation must be reflexive")
    closed = transitive_closure(rows)
    classes = canonical_sort({closed[i] for i in range(k)})
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
        kind=kind,
        base=tuple(rows),
        closed=closed,
        classes=classes,
        collapse_bijective=bijective,
        collapse_homeomorphism=bijective and classes_open,
    )


# ---------------------------------------------------------------------------
# closed sets of the dual prime space


def dual_closed_sets(lat: ResiduatedLattice) -> tuple[int, ...]:
    """Every closed set of the dual topology on the prime space.

    Each one is verified to have the form {p | p disjoint from X} for some
    subset X of the carrier, and to be patch-closed and stable under
    generalization.
    """
    spec = prime_spectrum(lat)
    k = len(spec)
    if k > 20:
        raise ContractError("closed-set enumeration capped at 20 points")
    top = hull_kernel_topology(lat, "spec", "dual")
    patch = hull_kernel_topology(lat, "spec", "patch")
    out = []
    for c in range(1 << k):
        if not top.is_closed(c):
            continue
        witness_x = sum(1 << x for x, h in enumerate(spec.hulls) if not h & c)
        rebuilt = sum(
            1 << i for i in range(k) if not spec.primes[i] & witness_x
        )
        if rebuilt != c:
            raise InternalCheckError("dual-closed set is not an avoidance set")
        if not patch.is_closed(c):
            raise InternalCheckError("dual-closed set is not patch-closed")
        if generalization(lat, c) != c:
            raise InternalCheckError("dual-closed set is not generalization-stable")
        out.append(c)
    return tuple(out)
