"""Decide the mp property through every equivalent characterization.

A lattice is mp when every prime filter contains a unique minimal prime
filter.  Five families of checks decide this independently: spectral,
algebraic, quotient-based, topological and purity-based.  All verdicts
must agree; a disagreement would falsify an equivalence theorem and is
raised as a hard error carrying the lattice for reproduction.

Every verdict but three is one lazy search for a counterexample over
the spectrum's tables (``_first``): a false verdict's witness is the
first failing candidate in the family's iteration order, so witnesses
are reproducible.  The three are ``spec_dual_normal``, read from
``separation_check``, and the two ``min_equals_*`` set comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import chain, combinations
from operator import or_
from typing import Any, Iterable

from .core import ResiduatedLattice, bits, format_set, negation
from .filters import all_filters, filter_join, filter_lattice, is_domain, principal_filter, quotient
from .spectra import hull, hull_kernel_topology, prime_linkage, prime_spectrum, separation_check
from .coann import coannulet
from .purity import omega_lattice, pure_core, pure_spectrum


@dataclass(frozen=True)
class Verdict:
    value: bool
    witness: Any = None


class MpDisagreement(Exception):
    def __init__(self, report: "MpReport", lattice_json: str):
        # args are the constructor's arguments, so the error pickles from an
        # enumeration worker to its parent
        super().__init__(report, lattice_json)
        self.report = report
        self.lattice_json = lattice_json

    def __str__(self) -> str:
        """Name the minority verdicts by family (False on a tie)."""
        verdicts = self.report.verdicts
        count = {value: sum(v.value == value for v in verdicts.values()) for value in (False, True)}
        minority = count[True] < count[False]
        groups = []
        for family, names in self.report.families.items():
            dissent = [k for k in names if verdicts[k].value == minority]
            if dissent:
                groups.append(f"{family}: {', '.join(dissent)}")
        return (
            f"mp characterizations disagree: {count[minority]} of {len(verdicts)} verdicts"
            f" say {minority}, the rest {not minority}; {'; '.join(groups)}"
            f"\nlattice: {self.lattice_json}"
        )


@dataclass
class MpReport:
    verdicts: dict[str, Verdict]
    families: dict[str, tuple[str, ...]]
    agree: bool
    final: bool | None

    def witnesses(self) -> dict[str, Any]:
        return {k: v.witness for k, v in self.verdicts.items() if v.witness is not None}


def _first(witnesses: Iterable[dict]) -> Verdict:
    """The verdict of a lazy search for counterexamples: true when the
    search yields nothing, otherwise false with the first witness."""
    witness = next(iter(witnesses), None)
    return Verdict(witness is None, witness)


def _pair(lat: ResiduatedLattice, f: int, g: int) -> dict:
    return {"pair": [format_set(lat, f), format_set(lat, g)]}


# ---------------------------------------------------------------------------
# spectral family


def mp_via_spectral(lat: ResiduatedLattice) -> dict[str, Verdict]:
    spec = prime_spectrum(lat)
    primes = spec.primes
    verdicts: dict[str, Verdict] = {}

    verdicts["unique_minimal_per_prime"] = _first(
        {
            "prime": format_set(lat, primes[i]),
            "contains": [format_set(lat, primes[j]) for j in mins],
        }
        for i in range(len(spec))
        if len(mins := list(bits(spec.below[i] & spec.minimal_mask))) > 1
    )
    verdicts["minimal_pairwise_comaximal"] = _first(
        _pair(lat, f, g)
        for f, g in combinations([primes[i] for i in spec.minimal], 2)
        if filter_join(lat, f, g) != lat.full_mask
    )
    divisors = omega_lattice(lat).divisors
    for name, positions in (
        ("divisor_prime_for_primes", range(len(spec))),
        ("divisor_prime_for_maximals", spec.maximal),
    ):
        verdicts[name] = _first(
            {"prime": format_set(lat, primes[i]), "divisor_filter": format_set(lat, d)}
            for i in positions
            if (d := divisors[i]) == lat.full_mask or d not in spec.index
        )
    return verdicts


# ---------------------------------------------------------------------------
# algebraic family


def _conormal(lat: ResiduatedLattice, members: tuple[int, ...]) -> Verdict:
    """Whether all members f, g with f meet g = {1} have members u, v with
    u meet f = {1}, v meet g = {1} and u join v = A.  The witness is the
    first failing (f, g) in member order.

    Each filter is up(e) for its least element e, an idempotent, and
    up(e) join up(e') = up(e e'), so up(e) join up(e') is the carrier
    exactly when e e' is the bottom.  Bit j of disjoint[i] says members i
    and j meet in {1}; bit j of comax[i] says they join to A.  The scan is
    then O(F^2) operations on F-bit masks.
    """
    least = filter_lattice(lat).least
    one, bottom = 1 << lat.top, lat.bottom
    gens = [least[f] for f in members]
    disjoint = [sum(1 << j for j, g in enumerate(members) if f & g == one) for f in members]
    comax = [
        sum(1 << j for j, e2 in enumerate(gens) if lat.odot[e][e2] == bottom) for e in gens
    ]
    reach = [reduce(or_, (comax[u] for u in bits(d)), 0) for d in disjoint]
    return _first(
        _pair(lat, f, members[j])
        for i, f in enumerate(members)
        for j in bits(disjoint[i])
        if not reach[i] & disjoint[j]
    )


def mp_via_algebraic(lat: ResiduatedLattice) -> dict[str, Verdict]:
    n, full, labels = lat.size, lat.full_mask, lat.labels
    verdicts: dict[str, Verdict] = {}
    filters = all_filters(lat)
    principal = tuple(sorted({principal_filter(lat, x) for x in range(n)}))
    ann = [coannulet(lat, x) for x in range(n)]

    verdicts["filter_lattice_conormal"] = _conormal(lat, filters)
    verdicts["principal_filter_lattice_conormal"] = _conormal(lat, principal)

    join = partial(filter_join, lat)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    to_top = [(x, y) for x, y in pairs if lat.join[x][y] == lat.top]
    verdicts["coannulet_comaximal"] = _first(
        {
            "pair": [labels[x], labels[y]],
            "coannulets": [format_set(lat, ann[x]), format_set(lat, ann[y])],
        }
        for x, y in to_top
        if join(ann[x], ann[y]) != full
    )
    verdicts["coannulet_negation_witness"] = _first(
        {"pair": [labels[x], labels[y]]}
        for x, y in to_top
        if not any(ann[y] >> negation(lat, a) & 1 for a in bits(ann[x]))
    )
    verdicts["coannulet_join_identity"] = _first(
        {"pair": [labels[x], labels[y]], "lhs": format_set(lat, lhs), "rhs": format_set(lat, rhs)}
        for x, y in pairs
        if (lhs := ann[lat.join[x][y]]) != (rhs := join(ann[x], ann[y]))
    )
    verdicts["coannulet_join_top"] = _first(
        {"pair": [labels[x], labels[y]]}
        for x, y in pairs
        if ann[lat.join[x][y]] == full and join(ann[x], ann[y]) != full
    )

    # ints hash to themselves, so the order of this set, and the witness,
    # does not depend on PYTHONHASHSEED
    gamma = set(ann)
    verdicts["coannulet_join_closed"] = _first(
        _pair(lat, f, g) for f in gamma for g in gamma if join(f, g) not in gamma
    )

    om = omega_lattice(lat)
    members = set(om.members)
    total = reduce(join, om.members, 1 << lat.top)
    verdicts["omega_join_closed"] = _first(chain(
        (_pair(lat, f, g) for f in om.members for g in om.members if join(f, g) not in members),
        [{"pair": ["join of all omega-filters"]}] if total not in members else [],
    ))
    verdicts["omega_vee_top"] = _first(
        _pair(lat, f, g)
        for f in om.members
        for g in om.members
        if om.vee[f, g] == full and join(f, g) != full
    )
    return verdicts


# ---------------------------------------------------------------------------
# quotient family


def mp_via_quotient(lat: ResiduatedLattice) -> dict[str, Verdict]:
    spec = prime_spectrum(lat)
    verdicts: dict[str, Verdict] = {}
    # Both searches visit the maximal primes, and primes can share a
    # divisor, so each quotient is built once.  Only the labels of its
    # first pair joining to top are kept (None for a domain), not the
    # quotient.
    @cache
    def quotient_pair(d: int) -> tuple[str, str] | None:
        if d == 1 << lat.top:
            # L/{top} is L, so it is not built.  up(top) = {top}, so the
            # classes are the fibres of a -> top.a = a, the singletons {a}.
            # Their order is index order with {top} moved last, and top lies
            # in no searched pair, so is_domain meets the same pairs in the
            # same order on L.  Compatibility holds on singletons, and L's
            # validation report is L/{top}'s.
            domain, pair = is_domain(lat)
            return None if domain else tuple(format_set(lat, 1 << x) for x in pair)
        q = quotient(lat, d)
        domain, pair = is_domain(q)
        return None if domain else (q.labels[pair[0]], q.labels[pair[1]])

    divisors = omega_lattice(lat).divisors
    for name, positions in (
        ("divisor_quotient_domain_for_primes", range(len(spec))),
        ("divisor_quotient_domain_for_maximals", spec.maximal),
    ):
        verdicts[name] = _first(
            {"prime": format_set(lat, spec.primes[i]), "quotient_pair": list(qpair)}
            for i in positions
            if (qpair := quotient_pair(divisors[i])) is not None
        )
    return verdicts


# ---------------------------------------------------------------------------
# topological family


def mp_via_topology(lat: ResiduatedLattice) -> dict[str, Verdict]:
    spec = prime_spectrum(lat)
    primes = spec.primes
    verdicts: dict[str, Verdict] = {}

    # the minimal dual-open around a prime is its up-set, so two minimal
    # primes are separated exactly when no prime contains both
    verdicts["min_dual_hausdorff"] = _first(
        {
            **_pair(lat, primes[i], primes[j]),
            "shared_prime": format_set(lat, primes[next(bits(shared))]),
        }
        for i, j in combinations(spec.minimal, 2)
        if (shared := spec.above[i] & spec.above[j])
    )

    dual = hull_kernel_topology(lat, "spec", "dual")
    verdicts["min_hull_closed_in_spec_dual"] = _first(
        {"minimal_prime": format_set(lat, primes[i])}
        for i in spec.minimal
        if not dual.is_closed(hull(lat, primes[i]))
    )

    # The retraction sends each prime to the unique minimal prime below it,
    # so it exists when every prime has exactly one.  It is then continuous
    # in the dual topologies, i.e. constant on the up-set of every prime:
    # if p <= q, the minimal prime under p is under q, so it is q's unique
    # one.  It fixes Min, since a minimal prime is the only minimal prime
    # under itself.  Only existence is searched.
    verdicts["retraction_to_minimal"] = _first(
        {"prime": format_set(lat, primes[i])}
        for i, below in enumerate(spec.below)
        if (below & spec.minimal_mask).bit_count() != 1
    )

    sep = separation_check(dual)
    witness = None
    if not sep.normal:
        i, j = sep.witness
        witness = _pair(lat, primes[i], primes[j])
    verdicts["spec_dual_normal"] = Verdict(sep.normal, witness)

    # each linkage relation is built at most once, when a search first
    # reaches its kind, and both verdicts read it
    linkage = cache(partial(prime_linkage, lat))
    kinds = ("filters", "ideals")
    verdicts["linkage_class_is_hull"] = _first(
        {
            "kind": kind,
            "minimal_prime": format_set(lat, primes[i]),
            "differs_at": format_set(lat, primes[next(bits(diff))]),
        }
        for kind in kinds
        for i in spec.minimal
        if (diff := linkage(kind).closed[i] ^ spec.above[i])
    )
    verdicts["linkage_quotient_homeomorphism"] = _first(
        {"kind": kind, "bijective": rel.collapse_bijective}
        for kind in kinds
        if not (rel := linkage(kind)).collapse_homeomorphism
    )
    return verdicts


# ---------------------------------------------------------------------------
# purity family


def mp_via_purity(lat: ResiduatedLattice) -> dict[str, Verdict]:
    spec = prime_spectrum(lat)
    ps = pure_spectrum(lat)
    pure = set(ps.pure)
    om = omega_lattice(lat)
    verdicts: dict[str, Verdict] = {}

    # the maximals-only divisor variant is deliberately absent: the divisor
    # filter of a maximal over several minimal primes is their
    # intersection, which can be pure without the lattice being mp
    for name, family in (
        ("coannulets_pure", sorted({coannulet(lat, x) for x in range(lat.size)})),
        ("omega_filters_pure", om.members),
        ("minimal_primes_pure", [spec.primes[i] for i in spec.minimal]),
        ("divisor_pure_for_primes", om.divisors),
    ):
        verdicts[name] = _first(
            {"filter": format_set(lat, f), "pure_core": format_set(lat, pure_core(lat, f))}
            for f in family
            if f not in pure
        )

    mins = {spec.primes[i] for i in spec.minimal}
    for key in ("purely_maximal", "purely_prime"):
        found = getattr(ps, key)
        value = mins == set(found)
        witness = None
        if not value:
            witness = {
                "minimal": sorted(format_set(lat, f) for f in mins),
                key: sorted(format_set(lat, f) for f in found),
            }
        verdicts[f"min_equals_{key}"] = Verdict(value, witness)

    # Min with the dual topology is discrete: the minimal dual-open around a
    # minimal prime is its up-set within Min, which is the prime itself.  So
    # the identity onto Min is a homeomorphism iff the pure spectrum is too.
    verdicts["pure_min_identity_homeomorphism"] = _first(
        [{"bijective": False}]
        if set(ps.purely_prime) != mins
        else ({"bijective": True} for i, nb in enumerate(ps.topology.min_nbhd) if nb != 1 << i)
    )
    return verdicts


# ---------------------------------------------------------------------------
# aggregation


FAMILIES = (
    ("spectral", mp_via_spectral),
    ("algebraic", mp_via_algebraic),
    ("quotient", mp_via_quotient),
    ("topological", mp_via_topology),
    ("purity", mp_via_purity),
)


def mp_check(lat: ResiduatedLattice) -> MpReport:
    """Run every characterization family and assert their agreement.

    A disagreement raises MpDisagreement carrying the serialized lattice;
    the report is attached to the exception.
    """
    verdicts: dict[str, Verdict] = {}
    families: dict[str, tuple[str, ...]] = {}
    for family, fn in FAMILIES:
        vs = fn(lat)
        families[family] = tuple(vs)
        verdicts.update(vs)
    values = {v.value for v in verdicts.values()}
    agree = len(values) == 1
    report = MpReport(
        verdicts=verdicts,
        families=families,
        agree=agree,
        final=values.pop() if agree else None,
    )
    if not agree:
        from .latfile import serialize_lattice

        raise MpDisagreement(report, serialize_lattice(lat))
    return report
