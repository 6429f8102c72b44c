"""Decide the mp property through every equivalent characterization.

A lattice is mp when every prime filter contains a unique minimal prime
filter.  Five families of checks decide this independently: spectral,
algebraic, quotient-based, topological and purity-based.  All verdicts
must agree; a disagreement would falsify an equivalence theorem and is
raised as a hard error carrying the lattice for reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import ResiduatedLattice, bits, negation
from .filters import all_filters, filter_join, filter_lattice, is_domain, principal_filter, quotient
from .spectra import (
    hull,
    hull_kernel_topology,
    minimal_primes_separated,
    prime_linkage,
    prime_spectrum,
    retraction_check,
    separation_check,
)
from .coann import coannulet
from .purity import (
    omega_lattice,
    pure_core,
    pure_min_identity,
    pure_spectrum,
)


@dataclass(frozen=True)
class Verdict:
    value: bool
    witness: Any = None


@dataclass(frozen=True)
class MpDisagreement(Exception):
    report: "MpReport"
    lattice_json: str

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


def _lab(lat: ResiduatedLattice, mask: int) -> str:
    return "{" + ",".join(lat.label_set(mask)) + "}"


# ---------------------------------------------------------------------------
# spectral family


def mp_via_spectral(lat: ResiduatedLattice) -> dict[str, Verdict]:
    spec = prime_spectrum(lat)
    verdicts: dict[str, Verdict] = {}

    unique = True
    witness = None
    for i in range(len(spec)):
        mins = [j for j in bits(spec.below[i]) if spec.is_minimal[j]]
        if len(mins) > 1:
            unique = False
            witness = {
                "prime": _lab(lat, spec.primes[i]),
                "contains": [_lab(lat, spec.primes[j]) for j in mins],
            }
            break
    verdicts["unique_minimal_per_prime"] = Verdict(unique, witness)

    comax = True
    witness = None
    mins = spec.minimal
    for a in range(len(mins)):
        for b in range(a + 1, len(mins)):
            f, g = spec.primes[mins[a]], spec.primes[mins[b]]
            if filter_join(lat, f, g) != lat.full_mask:
                comax = False
                witness = {"pair": [_lab(lat, f), _lab(lat, g)]}
                break
        if witness:
            break
    verdicts["minimal_pairwise_comaximal"] = Verdict(comax, witness)

    divisors = omega_lattice(lat).divisors
    for name, positions in (
        ("divisor_prime_for_primes", range(len(spec))),
        ("divisor_prime_for_maximals", spec.maximal),
    ):
        value = True
        witness = None
        for i in positions:
            d = divisors[i]
            if d == lat.full_mask or d not in spec.index:
                value = False
                witness = {
                    "prime": _lab(lat, spec.primes[i]),
                    "divisor_filter": _lab(lat, d),
                }
                break
        verdicts[name] = Verdict(value, witness)
    return verdicts


# ---------------------------------------------------------------------------
# algebraic family


def _conormal(lat: ResiduatedLattice, members: tuple[int, ...]) -> tuple[bool, Any]:
    """Whether all members f, g with f meet g = {1} have members u, v with
    u meet f = {1}, v meet g = {1} and u join v = A.  The witness is the
    first failing (f, g) in member order.

    Joins come from the filter lattice's join table.  Bit j of disjoint[i]
    says members i and j meet in {1}; bit j of comax[i] says they join to
    A.  The scan is then O(F^2) operations on F-bit masks.
    """
    fl = filter_lattice(lat)
    one = 1 << lat.top
    full = fl.index[lat.full_mask]
    pos = [fl.index[f] for f in members]
    disjoint = [sum(1 << j for j, g in enumerate(members) if f & g == one) for f in members]
    comax = [
        sum(1 << j for j, q in enumerate(pos) if fl.join_table[p][q] == full) for p in pos
    ]
    for i, f in enumerate(members):
        reach = 0
        for u in bits(disjoint[i]):
            reach |= comax[u]
        for j in bits(disjoint[i]):
            if not reach & disjoint[j]:
                return False, {"pair": [_lab(lat, f), _lab(lat, members[j])]}
    return True, None


def mp_via_algebraic(lat: ResiduatedLattice) -> dict[str, Verdict]:
    n = lat.size
    verdicts: dict[str, Verdict] = {}
    filters = all_filters(lat)
    principal = tuple(sorted({principal_filter(lat, x) for x in range(n)}))
    ann = [coannulet(lat, x) for x in range(n)]

    value, witness = _conormal(lat, filters)
    verdicts["filter_lattice_conormal"] = Verdict(value, witness)
    value, witness = _conormal(lat, principal)
    verdicts["principal_filter_lattice_conormal"] = Verdict(value, witness)

    def pair_check(name: str, holds, extra=lambda x, y: {}) -> None:
        # extra(x, y) formats the witness of the first failing pair only
        for x in range(n):
            for y in range(n):
                if not holds(x, y):
                    verdicts[name] = Verdict(
                        False, {"pair": [lat.labels[x], lat.labels[y]], **extra(x, y)}
                    )
                    return
        verdicts[name] = Verdict(True, None)

    def comax_cond(x, y):
        return lat.join[x][y] != lat.top or filter_join(lat, ann[x], ann[y]) == lat.full_mask

    def comax_extra(x, y):
        return {"coannulets": [_lab(lat, ann[x]), _lab(lat, ann[y])]}

    def witness_cond(x, y):
        if lat.join[x][y] != lat.top:
            return True
        return any(ann[y] >> negation(lat, a) & 1 for a in bits(ann[x]))

    def join_identity_cond(x, y):
        return ann[lat.join[x][y]] == filter_join(lat, ann[x], ann[y])

    def join_identity_extra(x, y):
        return {
            "lhs": _lab(lat, ann[lat.join[x][y]]),
            "rhs": _lab(lat, filter_join(lat, ann[x], ann[y])),
        }

    def join_top_cond(x, y):
        if ann[lat.join[x][y]] != lat.full_mask:
            return True
        return filter_join(lat, ann[x], ann[y]) == lat.full_mask

    pair_check("coannulet_comaximal", comax_cond, comax_extra)
    pair_check("coannulet_negation_witness", witness_cond)
    pair_check("coannulet_join_identity", join_identity_cond, join_identity_extra)
    pair_check("coannulet_join_top", join_top_cond)

    gamma = set(ann)
    value = True
    witness = None
    for f in gamma:
        for g in gamma:
            if filter_join(lat, f, g) not in gamma:
                value = False
                witness = {"pair": [_lab(lat, f), _lab(lat, g)]}
                break
        if witness:
            break
    verdicts["coannulet_join_closed"] = Verdict(value, witness)

    om = omega_lattice(lat)
    members = set(om.members)
    value = True
    witness = None
    for f in om.members:
        for g in om.members:
            if filter_join(lat, f, g) not in members:
                value = False
                witness = {"pair": [_lab(lat, f), _lab(lat, g)]}
                break
        if witness:
            break
    if value:
        total = 1 << lat.top
        for f in om.members:
            total = filter_join(lat, total, f)
        if total not in members:
            value = False
            witness = {"pair": ["join of all omega-filters"]}
    verdicts["omega_join_closed"] = Verdict(value, witness)

    value = True
    witness = None
    for f in om.members:
        for g in om.members:
            if om.vee(f, g) == lat.full_mask and filter_join(lat, f, g) != lat.full_mask:
                value = False
                witness = {"pair": [_lab(lat, f), _lab(lat, g)]}
                break
        if witness:
            break
    verdicts["omega_vee_top"] = Verdict(value, witness)
    return verdicts


# ---------------------------------------------------------------------------
# quotient family


def mp_via_quotient(lat: ResiduatedLattice) -> dict[str, Verdict]:
    spec = prime_spectrum(lat)
    verdicts: dict[str, Verdict] = {}
    # Both loops visit the maximal primes, and primes can share a divisor,
    # so each quotient is built once.  Only the labels of its first pair
    # joining to top are kept (None for a domain), not the quotient.
    non_domain: dict[int, tuple[str, str] | None] = {}
    divisors = omega_lattice(lat).divisors
    for name, positions in (
        ("divisor_quotient_domain_for_primes", range(len(spec))),
        ("divisor_quotient_domain_for_maximals", spec.maximal),
    ):
        value = True
        witness = None
        for i in positions:
            d = divisors[i]
            if d not in non_domain:
                q = quotient(lat, d)
                domain, pair = is_domain(q)
                non_domain[d] = None if domain else (q.labels[pair[0]], q.labels[pair[1]])
            if non_domain[d] is not None:
                value = False
                witness = {
                    "prime": _lab(lat, spec.primes[i]),
                    "quotient_pair": list(non_domain[d]),
                }
                break
        verdicts[name] = Verdict(value, witness)
    return verdicts


# ---------------------------------------------------------------------------
# topological family


def mp_via_topology(lat: ResiduatedLattice) -> dict[str, Verdict]:
    spec = prime_spectrum(lat)
    verdicts: dict[str, Verdict] = {}

    separated, wit = minimal_primes_separated(lat)
    witness = None
    if not separated:
        i, j, shared = wit
        witness = {
            "pair": [_lab(lat, spec.primes[i]), _lab(lat, spec.primes[j])],
            "shared_prime": _lab(lat, spec.primes[shared]),
        }
    verdicts["min_dual_hausdorff"] = Verdict(separated, witness)

    dual = hull_kernel_topology(lat, "spec", "dual")
    value = True
    witness = None
    for i in spec.minimal:
        if not dual.is_closed(hull(lat, spec.primes[i])):
            value = False
            witness = {"minimal_prime": _lab(lat, spec.primes[i])}
            break
    verdicts["min_hull_closed_in_spec_dual"] = Verdict(value, witness)

    retr = retraction_check(lat)
    value = retr.exists and retr.continuous and retr.fixes_minimal
    witness = None
    if not value and retr.witness is not None:
        witness = {"prime": _lab(lat, spec.primes[retr.witness])}
    verdicts["retraction_to_minimal"] = Verdict(value, witness)

    sep = separation_check(dual)
    witness = None
    if not sep.normal:
        i, j = sep.witness("normal")
        witness = {"pair": [_lab(lat, spec.primes[i]), _lab(lat, spec.primes[j])]}
    verdicts["spec_dual_normal"] = Verdict(sep.normal, witness)

    value = True
    witness = None
    for kind in ("filters", "ideals"):
        rel = prime_linkage(lat, kind)
        for i in spec.minimal:
            linked = rel.closed[i]
            h = spec.above[i]
            if linked != h:
                value = False
                diff = linked & ~h | h & ~linked
                witness = {
                    "kind": kind,
                    "minimal_prime": _lab(lat, spec.primes[i]),
                    "differs_at": _lab(lat, spec.primes[next(bits(diff))]),
                }
                break
        if witness:
            break
    verdicts["linkage_class_is_hull"] = Verdict(value, witness)

    value = True
    witness = None
    for kind in ("filters", "ideals"):
        rel = prime_linkage(lat, kind)
        if not rel.collapse_homeomorphism:
            value = False
            witness = {"kind": kind, "bijective": rel.collapse_bijective}
            break
    verdicts["linkage_quotient_homeomorphism"] = Verdict(value, witness)
    return verdicts


# ---------------------------------------------------------------------------
# purity family


def mp_via_purity(lat: ResiduatedLattice) -> dict[str, Verdict]:
    spec = prime_spectrum(lat)
    ps = pure_spectrum(lat)
    pure = set(ps.pure)
    verdicts: dict[str, Verdict] = {}

    def containment(name: str, family) -> None:
        for f in family:
            if f not in pure:
                verdicts[name] = Verdict(
                    False, {"filter": _lab(lat, f), "pure_core": _lab(lat, pure_core(lat, f))}
                )
                return
        verdicts[name] = Verdict(True, None)

    containment(
        "coannulets_pure", sorted({coannulet(lat, x) for x in range(lat.size)})
    )
    containment("omega_filters_pure", omega_lattice(lat).members)
    containment("minimal_primes_pure", (spec.primes[i] for i in spec.minimal))
    # the maximals-only variant is deliberately absent: the divisor filter
    # of a maximal over several minimal primes is their intersection, which
    # can be pure without the lattice being mp
    containment("divisor_pure_for_primes", omega_lattice(lat).divisors)

    mins = {spec.primes[i] for i in spec.minimal}
    value = mins == set(ps.purely_maximal)
    witness = None
    if not value:
        witness = {
            "minimal": sorted(_lab(lat, f) for f in mins),
            "purely_maximal": sorted(_lab(lat, f) for f in ps.purely_maximal),
        }
    verdicts["min_equals_purely_maximal"] = Verdict(value, witness)

    value = mins == set(ps.purely_prime)
    witness = None
    if not value:
        witness = {
            "minimal": sorted(_lab(lat, f) for f in mins),
            "purely_prime": sorted(_lab(lat, f) for f in ps.purely_prime),
        }
    verdicts["min_equals_purely_prime"] = Verdict(value, witness)

    ident = pure_min_identity(lat)
    verdicts["pure_min_identity_homeomorphism"] = Verdict(
        ident.homeomorphism,
        None if ident.homeomorphism else {"bijective": ident.bijective},
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


def mp_check(lat: ResiduatedLattice, strict: bool = True) -> MpReport:
    """Run every characterization family and assert their agreement.

    With strict=True a disagreement raises MpDisagreement carrying the
    serialized lattice; the report is still attached to the exception.
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
    if not agree and strict:
        from .latfile import serialize_lattice

        raise MpDisagreement(report, serialize_lattice(lat))
    return report
