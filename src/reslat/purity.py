"""Omega-filters, divisor filters, pure filters and the pure spectrum.

The omega-filter of a lattice ideal I is {a | a v x = top for some x in
I}, and the divisor filter of a prime is the omega-filter of its
complement.  A filter F is pure when it equals its pure core, the set of elements
whose coannulet is comaximal with F; equivalently the kernel of the
generalization of the hull of F.  Both routes are always computed and
compared.
"""

from __future__ import annotations

from .core import (
    ContractError,
    InternalCheckError,
    ResiduatedLattice,
    _converse,
    is_subset,
    per_lattice,
)
from .filters import (
    all_filters,
    canonical_sort,
    filter_join,
    filter_lattice,
    idempotent_class,
    is_filter,
    maximal_members,
)
from .spectra import FiniteTopology, generalization, hull, kernel, prime_spectrum


# ---------------------------------------------------------------------------
# omega-filters


def omega_filter(lat: ResiduatedLattice, ideal: int) -> int:
    """{a | a v x = top for some x in the ideal}; join-closedness suffices.

    One mask test per element a: does the ideal meet the set of the x
    with a v x = top (``lat.top_joiners[a]``)?  That is O(n) whatever
    the size of the ideal.  It reads the reduct only; ``omega_lattice``
    tests that each omega-filter is a filter of the product.
    """
    if ideal == 0:
        raise ContractError("omega_filter: ideal must be non-empty")
    out = 0
    for a, joiners in enumerate(lat.top_joiners):
        if joiners & ideal:
            out |= 1 << a
    return out


def _divisor_of_prime(lat: ResiduatedLattice, i: int) -> int:
    """omega of the complement of prime i, cross-checked against the kernel
    of the generalization of the prime, over all primes and over the
    minimal ones."""
    spec = prime_spectrum(lat)
    d = omega_filter(lat, lat.full_mask & ~spec.primes[i])
    via_all = kernel(lat, spec.below[i])
    via_min = kernel(lat, spec.below[i] & spec.minimal_mask)
    if d != via_all or d != via_min:
        raise InternalCheckError(
            "divisor filter disagrees with the kernel of the generalization"
        )
    return d


class OmegaLattice:
    """The omega-filters with their representative-independent join.

    Every ideal of a finite lattice is principal, so omega(down m) is
    {a | a v m = top} and the ideal join of down m and down k is
    down (m v k).  omega is computed once per element; one pass over all
    element pairs then checks that omega(m v k) depends only on
    (omega(m), omega(k)) and records it in ``vee``, keyed by the pair of
    omega-filters: omega of the ideal join of any representatives of
    each.  That covers every pair of representative ideals at O(n^2)
    table lookups.

    ``divisors`` holds the divisor filter of each prime, in spectrum
    order.  A prime's divisor filter is omega of its complement, an ideal,
    so it is an omega-filter; each is computed and cross-checked once.
    Neither this nor PureSpectrum keeps the lattice, whose memo (or its
    reduct's) keeps them: the lattice is freed as soon as its last
    reference goes.
    """

    def __init__(self, lat: ResiduatedLattice):
        omega = [omega_filter(lat, i) for i in lat.down_masks]
        member_set = set(omega)
        self.members = canonical_sort(member_set)
        self.vee: dict[tuple[int, int], int] = {}
        for m, f in enumerate(omega):
            row = lat.join[m]
            for k, g in enumerate(omega):
                out = omega[row[k]]
                if self.vee.setdefault((f, g), out) != out:
                    raise InternalCheckError(
                        f"omega join depends on representatives for {lat.label_set(f)}"
                        f" and {lat.label_set(g)}"
                    )
        for f in self.members:
            for g in self.members:
                if f & g not in member_set:
                    raise InternalCheckError("omega-filters not closed under meet")
        self.divisors = tuple(_divisor_of_prime(lat, i) for i in range(len(prime_spectrum(lat))))


@per_lattice(key=idempotent_class)
def omega_of_class(lat: ResiduatedLattice) -> OmegaLattice:
    """The omega lattice shared by the products of an idempotent class:
    it reads the reduct, the spectrum and the labels (see
    ``filters.idempotent_class``), but not whether its members are
    filters of the product, which ``omega_lattice`` tests."""
    return OmegaLattice(lat)


@per_lattice
def omega_lattice(lat: ResiduatedLattice) -> OmegaLattice:
    """The omega lattice of the class (``omega_of_class``), each distinct
    omega-filter of it, divisors included, tested to be a filter of this
    product.  The test reads odot beyond I x I, so it runs per product."""
    om = omega_of_class(lat)
    for f in {*om.members, *om.divisors}:
        if not is_filter(lat, f):
            raise InternalCheckError("omega of an ideal must be a filter")
    return om


# ---------------------------------------------------------------------------
# the pure core and pure filters


def pure_core(lat: ResiduatedLattice, f: int) -> int:
    """Elements whose coannulet is comaximal with f.

    Computed both as {a | f join coannulet(a) = A} and as the kernel of
    the generalization of the hull of f; a mismatch is an internal error.
    The first route reads the filter join through least elements: f is
    up(e), coannulet(a) is up(Gamma[a]) (see ``Spectrum``), and their join
    is the carrier exactly when odot(e, Gamma[a]) is the bottom.  So it is
    one translate of Gamma through e's row of the product.
    """
    e = filter_lattice(lat).least.get(f)
    if e is None:
        raise ContractError("pure_core: input must be a filter")
    row = lat.odot[e] + bytes(256 - lat.size)
    products = prime_spectrum(lat).coannulet_least.translate(row)
    bottom = lat.bottom
    elementwise = 0
    for a, v in enumerate(products):
        if v == bottom:
            elementwise |= 1 << a
    via_primes = kernel(lat, generalization(lat, hull(lat, f)))
    if elementwise != via_primes:
        raise InternalCheckError(
            f"pure core mismatch on {lat.label_set(f)}: "
            f"{lat.label_set(elementwise)} vs {lat.label_set(via_primes)}"
        )
    return elementwise


def _meet_prime(p: int, filters: tuple[int, ...]) -> bool:
    """No two of the filters outside p meet inside p."""
    for f in filters:
        if is_subset(f, p):
            continue
        for g in filters:
            if is_subset(f & g, p) and not is_subset(g, p):
                return False
    return True


class PureSpectrum:
    """Pure filters, the purely-maximal and purely-prime ones, and the
    topology on the purely-prime filters with opens {P | F not <= P}."""

    def __init__(self, lat: ResiduatedLattice):
        self.pure = tuple(f for f in all_filters(lat) if pure_core(lat, f) == f)
        # pure_core({top}) is the meet of all primes by either route: {top} by theorem
        if 1 << lat.top not in self.pure:
            raise InternalCheckError("the one filter must be pure")
        proper = [f for f in self.pure if f != lat.full_mask]
        self.purely_maximal = tuple(maximal_members(proper))
        self.purely_prime = tuple(p for p in proper if _meet_prime(p, self.pure))
        for f in self.purely_maximal:
            if f not in self.purely_prime:
                raise InternalCheckError("purely-maximal must be purely-prime")
        self.topology = self._build_topology(lat)

    def _build_topology(self, lat: ResiduatedLattice) -> FiniteTopology:
        """Subbasic opens: the complements of the pure hulls {P | F <= P},
        P holding F = up(e) iff e is in P.  The hulls are closed by
        construction, and a finite space's closed sets are the unions of
        point closures, so the closed sets are the hulls iff the empty set
        and every point closure are hulls and the hulls are closed under
        binary union."""
        points = self.purely_prime
        full = (1 << len(points)) - 1
        incidence = _converse(points, lat.size)
        least = filter_lattice(lat).least
        hulls = {incidence[least[f]] for f in self.pure}
        top = FiniteTopology.from_subbasis(points, [full & ~h for h in hulls])
        # the closure of point i: the points whose minimal neighbourhood holds i
        closures = _converse(top.min_nbhd, len(points))
        if 0 not in hulls or not hulls.issuperset(closures) or any(
            g | h not in hulls for g in hulls for h in hulls
        ):
            raise InternalCheckError(
                "closed sets of the pure spectrum are not the pure hulls"
            )
        return top


@per_lattice(key=idempotent_class)
def pure_spectrum(lat: ResiduatedLattice) -> PureSpectrum:
    return PureSpectrum(lat)


def pure_part(lat: ResiduatedLattice, f: int) -> int:
    """Join of all pure filters inside f; the largest pure filter in it."""
    if not is_filter(lat, f):
        raise ContractError("pure_part: input must be a filter")
    ps = pure_spectrum(lat)
    out = 1 << lat.top
    for g in ps.pure:
        if is_subset(g, f):
            out = filter_join(lat, out, g)
    if pure_core(lat, out) != out:
        raise InternalCheckError(
            "join of pure filters failed to be pure "
            f"(witness {lat.label_set(out)} inside {lat.label_set(f)})"
        )
    return out
