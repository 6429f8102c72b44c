from __future__ import annotations

import hashlib
import json

import pytest

from reslat import parse_lattice
from reslat.core import format_set as _lab
from reslat.filters import all_filters, generated_filter, is_domain, principal_filter
from reslat.purity import omega_lattice
from reslat.mp import (
    FAMILIES,
    MpDisagreement,
    MpReport,
    Verdict,
    mp_check,
    mp_via_algebraic,
    mp_via_purity,
    mp_via_quotient,
    mp_via_spectral,
    mp_via_topology,
)

from lattices import build_boolean4, build_chain, build_product, build_two_chain, relabeled
from oracles import quotient_family


def test_worked_example_is_mp(a6):
    report = mp_check(a6)
    assert report.agree
    assert report.final is True


def test_worked_counterexample_is_not_mp(a8):
    report = mp_check(a8)
    assert report.agree
    assert report.final is False


def test_every_family_contributes(a6):
    report = mp_check(a6)
    assert set(report.families) == {name for name, _ in FAMILIES}
    assert sum(len(v) for v in report.families.values()) == len(report.verdicts)


def test_false_verdicts_carry_witnesses(a8):
    report = mp_check(a8)
    for name, verdict in report.verdicts.items():
        assert verdict.value is False
        assert verdict.witness is not None, name


def test_family_functions_match_aggregate(a6, a8):
    for lat in (a6, a8):
        report = mp_check(lat)
        merged = {}
        for fn in (mp_via_spectral, mp_via_algebraic, mp_via_quotient,
                   mp_via_topology, mp_via_purity):
            merged.update(fn(lat))
        assert {k: v.value for k, v in merged.items()} == {
            k: v.value for k, v in report.verdicts.items()
        }


def test_small_standard_examples_are_mp():
    for lat in (build_two_chain(), build_boolean4(), build_chain(3),
                build_chain(4), build_chain(3, {1: 0})):
        assert mp_check(lat).final is True


def test_chains_are_mp(corpus5):
    # on a chain the one filter is the unique minimal prime, so every
    # prime contains exactly it
    for lat in corpus5:
        linear = all(
            lat.leq(x, y) or lat.leq(y, x)
            for x in range(lat.size)
            for y in range(lat.size)
        )
        if linear:
            assert mp_check(lat).final is True


def test_prelinearity_does_not_force_mp():
    # the prelinear Heyting algebra on 0 < c < a,b < 1 has a prime filter
    # above both of its minimal primes; linearity-style identities do not
    # decide the property
    from lattices import leq_from_covers
    from reslat import from_order

    leq = leq_from_covers(5, ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4)))
    meet = [[max(m for m in range(5) if leq[m][x] and leq[m][y]) for y in range(5)]
            for x in range(5)]
    lat = from_order(("0", "c", "a", "b", "1"), leq, meet)
    prelinear = all(
        lat.join[lat.imp[x][y]][lat.imp[y][x]] == lat.top
        for x in range(5)
        for y in range(5)
    )
    divisible = all(
        lat.meet[x][y] == lat.odot[x][lat.imp[x][y]]
        for x in range(5)
        for y in range(5)
    )
    assert prelinear and divisible
    report = mp_check(lat)
    assert report.agree
    assert report.final is False


def test_strict_mode_never_raises_on_corpus(corpus5):
    for lat in corpus5:
        mp_check(lat)


def test_disagreement_is_detectable():
    report = mp_check(build_two_chain())
    assert report.agree and report.final is True
    flipped = report.families["algebraic"][0]
    verdicts = dict(report.verdicts)
    verdicts[flipped] = Verdict(False)
    fabricated = MpReport(verdicts, report.families, agree=False, final=None)
    message = str(MpDisagreement(fabricated, '{"size": 2}'))
    first, lattice_line = message.split("\n")
    assert first == (
        f"mp characterizations disagree: 1 of {len(verdicts)} verdicts say False,"
        f" the rest True; algebraic: {flipped}"
    )
    assert lattice_line == 'lattice: {"size": 2}'


def test_disagreement_raises_with_the_lattice(monkeypatch):
    import reslat.mp

    lat = build_two_chain()
    (name, family), *others = FAMILIES

    def flipped(lat):
        return {k: Verdict(not v.value, v.witness) for k, v in family(lat).items()}

    monkeypatch.setattr(reslat.mp, "FAMILIES", ((name, flipped), *others))
    with pytest.raises(MpDisagreement) as exc:
        mp_check(lat)
    assert (exc.value.report.agree, exc.value.report.final) == (False, None)
    assert parse_lattice(exc.value.lattice_json) == lat


def _conormal_by_definition(lat, members):
    # the plain scan over 4-tuples, closing u | v for every candidate
    one = 1 << lat.top
    for f in members:
        for g in members:
            if f & g != one:
                continue
            if not any(
                u & f == one and v & g == one
                and generated_filter(lat, u | v) == lat.full_mask
                for u in members
                for v in members
            ):
                return Verdict(False, {"pair": [_lab(lat, f), _lab(lat, g)]})
    return Verdict(True)


def test_conormal_matches_definitional_scan(a6, a8, corpus5):
    # a8 x 2 fails on several pairs per filter, which pins the witness order
    seen = set()
    for lat in (a6, a8, build_product(a8, build_two_chain()), *corpus5):
        verdicts = mp_via_algebraic(lat)
        principal = tuple(sorted({principal_filter(lat, x) for x in range(lat.size)}))
        for name, members in (
            ("filter_lattice_conormal", all_filters(lat)),
            ("principal_filter_lattice_conormal", principal),
        ):
            assert verdicts[name] == _conormal_by_definition(lat, members)
            seen.add(verdicts[name].value)
    assert seen == {True, False}


def test_quotient_family_builds_each_quotient_once(monkeypatch, a6, a8, corpus5):
    from reslat import mp

    built = []
    quotient = mp.quotient
    monkeypatch.setattr(mp, "quotient", lambda lat, f: built.append(f) or quotient(lat, f))
    for lat in (a6, a8, *corpus5):
        built.clear()
        mp_via_quotient(lat)
        divisors = set(omega_lattice(lat).divisors)
        assert len(built) == len(set(built)) and set(built) <= divisors
        assert 1 << lat.top not in built


def test_quotient_family_reads_the_quotient_by_top_as_the_lattice(corpus7, a6, a8, a6xa8):
    """L/{top} is L: the verdicts and witnesses are those of building every
    quotient, {top} included, also on a8 listed top first, bottom last."""
    reversed_a8 = relabeled(a8, range(a8.size - 1, -1, -1))
    non_domains = 0
    for lat in (*corpus7, a6, a8, a6xa8, reversed_a8):
        assert mp_via_quotient(lat) == quotient_family(lat)
        divisors = omega_lattice(lat).divisors
        non_domains += 1 << lat.top in divisors and not is_domain(lat)[0]
    # lattices on which the shortcut's witness search finds a pair
    assert non_domains == 20


def test_census_validates_each_lattice_once(monkeypatch, validations):
    """Orders <= 6: each of the 166 products is validated when built, and
    so is each of the 14 quotients that the quotient family builds.  None
    of them is by {top}: L/{top} is L, and the family reads L instead."""
    from reslat import mp
    from reslat.enumerator import census

    by_top = []
    quotient = mp.quotient
    monkeypatch.setattr(
        mp, "quotient", lambda lat, f: by_top.append(f == 1 << lat.top) or quotient(lat, f)
    )
    census(6, workers=1)
    assert (len(by_top), sum(by_top)) == (14, 0)
    assert len(validations) == 166 + 14


def test_mp_check_builds_each_linkage_kind_once(monkeypatch, a6, a8, corpus5):
    from reslat import mp

    built = []
    real = mp.prime_linkage
    monkeypatch.setattr(mp, "prime_linkage", lambda lat, kind: built.append(kind) or real(lat, kind))
    for lat in (a6, a8, *corpus5):
        built.clear()
        report = mp_check(lat)
        # a non-mp lattice fails both searches on the first kind already
        assert sorted(built) == (["filters", "ideals"] if report.final else ["filters"])


def _pinned(actual, expected):
    assert actual == expected
    assert repr(actual) == repr(expected)  # the key order is printed too


def test_a8_witnesses_are_pinned(a8):
    mins = ["{f,1}", "{c,e,1}"]
    prime = "{a,c,d,e,f,1}"
    _pinned(mp_check(a8).witnesses(), {
        "unique_minimal_per_prime": {"prime": prime, "contains": mins},
        "minimal_pairwise_comaximal": {"pair": mins},
        "divisor_prime_for_primes": {"prime": prime, "divisor_filter": "{1}"},
        "divisor_prime_for_maximals": {"prime": prime, "divisor_filter": "{1}"},
        "filter_lattice_conormal": {"pair": mins},
        "principal_filter_lattice_conormal": {"pair": mins[::-1]},
        "coannulet_comaximal": {"pair": ["c", "f"], "coannulets": mins},
        "coannulet_negation_witness": {"pair": ["c", "f"]},
        "coannulet_join_identity": {
            "pair": ["c", "f"], "lhs": "{0,a,b,c,d,e,f,1}", "rhs": prime,
        },
        "coannulet_join_top": {"pair": ["c", "f"]},
        "coannulet_join_closed": {"pair": mins[::-1]},
        "omega_join_closed": {"pair": mins},
        "omega_vee_top": {"pair": mins},
        "divisor_quotient_domain_for_primes": {"prime": prime, "quotient_pair": ["{c}", "{f}"]},
        "divisor_quotient_domain_for_maximals": {"prime": prime, "quotient_pair": ["{c}", "{f}"]},
        "min_dual_hausdorff": {"pair": mins, "shared_prime": prime},
        "min_hull_closed_in_spec_dual": {"minimal_prime": "{f,1}"},
        "retraction_to_minimal": {"prime": prime},
        "spec_dual_normal": {"pair": mins},
        "linkage_class_is_hull": {
            "kind": "filters", "minimal_prime": "{f,1}", "differs_at": "{c,e,1}",
        },
        "linkage_quotient_homeomorphism": {"kind": "filters", "bijective": False},
        "coannulets_pure": {"filter": "{c,e,1}", "pure_core": "{1}"},
        "omega_filters_pure": {"filter": "{f,1}", "pure_core": "{1}"},
        "minimal_primes_pure": {"filter": "{f,1}", "pure_core": "{1}"},
        "divisor_pure_for_primes": {"filter": "{f,1}", "pure_core": "{1}"},
        "min_equals_purely_maximal": {"minimal": sorted(mins), "purely_maximal": ["{1}"]},
        "min_equals_purely_prime": {"minimal": sorted(mins), "purely_prime": ["{1}"]},
        "pure_min_identity_homeomorphism": {"bijective": False},
    })


def _x(left, right):
    # the product set left x right of a6 x a8, formatted as in witnesses
    return "{" + ",".join(f"{x}.{y}" for x in left.split() for y in right.split()) + "}"


def test_a6xa8_witnesses_are_pinned(a6xa8):
    a6 = "0 a b c d 1"
    mins = [_x(a6, "f 1"), _x(a6, "c e 1")]
    prime = _x(a6, "a c d e f 1")
    ones = _x(a6, "1")
    top_mins = [_x("1", "f 1"), _x("1", "c e 1")]
    quotient_pair = [_x(a6, "c"), _x(a6, "f")]
    minimal = sorted([*mins, _x("1", "0 a b c d e f 1")])
    purely = [ones, _x("1", "0 a b c d e f 1")]
    _pinned(mp_check(a6xa8).witnesses(), {
        "unique_minimal_per_prime": {"prime": prime, "contains": mins},
        "minimal_pairwise_comaximal": {"pair": mins},
        "divisor_prime_for_primes": {"prime": prime, "divisor_filter": ones},
        "divisor_prime_for_maximals": {"prime": prime, "divisor_filter": ones},
        "filter_lattice_conormal": {"pair": top_mins},
        "principal_filter_lattice_conormal": {"pair": top_mins[::-1]},
        "coannulet_comaximal": {"pair": ["0.c", "1.f"], "coannulets": [top_mins[0], mins[1]]},
        "coannulet_negation_witness": {"pair": ["0.c", "1.f"]},
        "coannulet_join_identity": {
            "pair": ["0.c", "0.f"],
            "lhs": _x("1", "0 a b c d e f 1"),
            "rhs": _x("1", "a c d e f 1"),
        },
        "coannulet_join_top": {"pair": ["0.c", "1.f"]},
        "coannulet_join_closed": {"pair": top_mins},
        "omega_join_closed": {"pair": top_mins},
        "omega_vee_top": {"pair": [top_mins[0], mins[1]]},
        "divisor_quotient_domain_for_primes": {"prime": prime, "quotient_pair": quotient_pair},
        "divisor_quotient_domain_for_maximals": {"prime": prime, "quotient_pair": quotient_pair},
        "min_dual_hausdorff": {"pair": mins, "shared_prime": prime},
        "min_hull_closed_in_spec_dual": {"minimal_prime": mins[0]},
        "retraction_to_minimal": {"prime": prime},
        "spec_dual_normal": {"pair": mins},
        "linkage_class_is_hull": {
            "kind": "filters", "minimal_prime": mins[0], "differs_at": mins[1],
        },
        "linkage_quotient_homeomorphism": {"kind": "filters", "bijective": False},
        "coannulets_pure": {"filter": top_mins[1], "pure_core": _x("1", "1")},
        "omega_filters_pure": {"filter": top_mins[0], "pure_core": _x("1", "1")},
        "minimal_primes_pure": {"filter": mins[0], "pure_core": ones},
        "divisor_pure_for_primes": {"filter": mins[0], "pure_core": ones},
        "min_equals_purely_maximal": {"minimal": minimal, "purely_maximal": purely},
        "min_equals_purely_prime": {"minimal": minimal, "purely_prime": purely},
        "pure_min_identity_homeomorphism": {"bijective": False},
    })


# sha256 of every verdict's value and witness, as sorted-key JSON, over
# a6, a8, a8 x 2, a6 x a8, a8 x a8 and the 166 lattices of order <= 6: any
# change to a verdict, a witness or a search order changes it
VERDICT_DIGEST = "a4397cab870fe0dee926bdca666c66c9dcff06f3c7d1e4209d0f9c5cd4390cf7"


def test_verdicts_and_witnesses_are_pinned(a6, a8, a6xa8, corpus6):
    lattices = (
        a6, a8, build_product(a8, build_two_chain()), a6xa8, build_product(a8, a8), *corpus6,
    )
    assert len(lattices) == 171
    rows = [
        {name: [v.value, v.witness] for name, v in mp_check(lat).verdicts.items()}
        for lat in lattices
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == VERDICT_DIGEST
