from __future__ import annotations

import copy
import dataclasses
from types import SimpleNamespace

import pytest

from reslat import ContractError, InternalCheckError, bits, purity
from reslat.coann import coannulet
from reslat.filters import all_filters, filter_join, is_filter
from reslat.purity import (
    PureSpectrum,
    omega_filter,
    omega_lattice,
    pure_core,
    pure_part,
    pure_spectrum,
)
from reslat.mp import Verdict, mp_via_purity
from reslat.spectra import FiniteTopology, hull_kernel_topology, prime_spectrum

from lattices import build_boolean4, build_chain, build_product, build_two_chain, mask
from oracles import (
    ideal_join,
    is_lattice_ideal,
    lattice_ideals,
    pure_envelope,
    pure_hulls_are_closed_sets,
)


def _divisor_filter(lat, prime):
    return omega_lattice(lat).divisors[prime_spectrum(lat).index[prime]]


def test_lattice_ideals_golden(a6):
    ideals = lattice_ideals(a6)
    assert mask(a6, "0") in ideals
    assert mask(a6, "0 a b c d") in ideals  # the down-set of d
    assert a6.full_mask in ideals
    assert len(ideals) == 6


def test_two_chain_ideals():
    lat = build_two_chain()
    assert set(lattice_ideals(lat)) == {1, 3}


def test_ideals_match_brute_force(a6, a8, corpus4):
    # independent enumeration over every subset of the carrier
    for lat in (a6, a8, *corpus4):
        brute = {
            s for s in range(1, lat.full_mask + 1) if is_lattice_ideal(lat, s)
        }
        assert set(lattice_ideals(lat)) == brute


def test_principal_downsets_are_ideals(a6):
    for x in range(a6.size):
        assert is_lattice_ideal(a6, a6.down_masks[x])


def test_omega_golden(a6):
    assert omega_filter(a6, mask(a6, "0")) == mask(a6, "1")
    assert omega_filter(a6, a6.full_mask) == a6.full_mask
    assert omega_filter(a6, mask(a6, "0 c")) == mask(a6, "1")


def test_omega_results_are_filters(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        for ideal in lattice_ideals(lat):
            assert is_filter(lat, omega_filter(lat, ideal))


def test_omega_that_is_no_filter_raises(monkeypatch, a6):
    # only the filter test can object: the mask itself is computed right
    monkeypatch.setattr(purity, "is_filter", lambda lat, f: False)
    with pytest.raises(InternalCheckError, match="^omega of an ideal must be a filter$"):
        omega_filter(a6, mask(a6, "0"))


def test_divisor_filter_golden(a6, a8):
    assert _divisor_filter(a6, mask(a6, "a b d 1")) == mask(a6, "1")
    spec8 = prime_spectrum(a8)
    top_prime = spec8.primes[spec8.maximal[0]]
    d = _divisor_filter(a8, top_prime)
    assert d == mask(a8, "1")
    assert d not in spec8.index  # not prime: the failure that marks non-mp


def test_divisor_filter_fixes_minimal_primes(corpus5):
    for lat in corpus5:
        spec = prime_spectrum(lat)
        for i, p in enumerate(spec.primes):
            fixed = _divisor_filter(lat, p) == p
            assert fixed == (i in spec.minimal)


def test_omega_lattice_golden(a6, a8):
    assert set(omega_lattice(a6).members) == {mask(a6, "1"), a6.full_mask}
    assert set(omega_lattice(a8).members) == {
        mask(a8, "1"), mask(a8, "c e 1"), mask(a8, "f 1"), a8.full_mask,
    }


def test_coannulets_are_omega_filters(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        members = set(omega_lattice(lat).members)
        for x in range(lat.size):
            assert coannulet(lat, x) in members


def test_omega_vee_is_representative_independent(a6, a8, corpus5):
    for lat in (a6, a8, *corpus5):
        om = omega_lattice(lat)
        representatives = {}
        for ideal in lattice_ideals(lat):
            representatives.setdefault(omega_filter(lat, ideal), []).append(ideal)
        assert set(representatives) == set(om.members)
        for f in om.members:
            for g in om.members:
                results = {
                    omega_filter(lat, ideal_join(lat, i, j))
                    for i in representatives[f]
                    for j in representatives[g]
                }
                assert len(results) == 1
                assert om.vee[f, g] == results.pop()


def test_omega_lattice_detects_representative_dependence(monkeypatch):
    # on the chain 0 < a < 1, send omega(down 0) to the carrier: the pairs
    # (0, a) and (1, a) then share the key (A, {1}) but join to {1} and A
    lat = build_chain(3)
    real = purity.omega_filter
    bottom = 1 << lat.bottom

    def faulty(lat, ideal):
        return lat.full_mask if ideal == bottom else real(lat, ideal)

    monkeypatch.setattr(purity, "omega_filter", faulty)
    with pytest.raises(InternalCheckError, match="depends on representatives"):
        purity.OmegaLattice(lat)


def test_omega_lattice_detects_a_meet_outside_it(monkeypatch):
    # on the chain 0 < a < 1, give the three principal ideals the distinct
    # omegas {0,1}, {a,1} and A: each pair of omegas has one pair of
    # representatives, so the join is well defined, but {0,1} & {a,1} = {1}
    lat = build_chain(3)
    omegas = {mask(lat, "0"): mask(lat, "0 1"), mask(lat, "0 a"): mask(lat, "a 1")}
    monkeypatch.setattr(purity, "omega_filter", lambda lat, ideal: omegas.get(ideal, lat.full_mask))
    with pytest.raises(InternalCheckError, match="^omega-filters not closed under meet$"):
        purity.OmegaLattice(lat)


def test_pure_core_routes_that_disagree_raise(monkeypatch, a6):
    # with no generalization the kernel route gives A; the element-wise
    # route gives the meet of the primes, {1}
    monkeypatch.setattr(purity, "generalization", lambda lat, points: 0)
    with pytest.raises(InternalCheckError, match=r"^pure core mismatch on \('1',\)"):
        pure_core(a6, mask(a6, "1"))


def test_pure_core_golden(a6, a8):
    assert pure_core(a6, a6.full_mask) == a6.full_mask
    assert pure_core(a6, mask(a6, "d 1")) == mask(a6, "1")
    assert pure_core(a6, mask(a6, "a b d 1")) == mask(a6, "1")
    assert pure_core(a8, mask(a8, "f 1")) == mask(a8, "1")


def test_pure_core_of_maximal_is_divisor_filter(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        spec = prime_spectrum(lat)
        for i in spec.maximal:
            m = spec.primes[i]
            assert pure_core(lat, m) == _divisor_filter(lat, m)


def test_pure_core_is_monotone_and_deflationary(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        for f in all_filters(lat):
            sf = pure_core(lat, f)
            assert sf & ~f == 0
            for g in all_filters(lat):
                if f & ~g == 0:
                    assert sf & ~pure_core(lat, g) == 0


def test_pure_core_is_idempotent_on_mp_lattices(corpus5):
    from reslat.mp import mp_check

    for lat in corpus5:
        if mp_check(lat).final:
            for f in all_filters(lat):
                s = pure_core(lat, f)
                assert pure_core(lat, s) == s


def test_pure_spectrum_golden(a6, a8):
    ps6 = pure_spectrum(a6)
    assert set(ps6.pure) == {mask(a6, "1"), a6.full_mask}
    assert ps6.purely_maximal == (mask(a6, "1"),)
    spec6 = prime_spectrum(a6)
    assert set(ps6.purely_maximal) == {spec6.primes[i] for i in spec6.minimal}

    ps8 = pure_spectrum(a8)
    assert set(ps8.pure) == {mask(a8, "1"), a8.full_mask}
    assert ps8.purely_prime == (mask(a8, "1"),)
    spec8 = prime_spectrum(a8)
    assert set(ps8.purely_prime) != {spec8.primes[i] for i in spec8.minimal}


def test_pure_spectrum_without_the_one_filter_raises(monkeypatch, a6):
    one = mask(a6, "1")
    monkeypatch.setattr(purity, "pure_core", lambda lat, f: lat.full_mask if f == one else f)
    with pytest.raises(InternalCheckError, match="^the one filter must be pure$"):
        PureSpectrum(a6)


def test_purely_maximal_filter_that_is_not_purely_prime_raises(monkeypatch, a6):
    monkeypatch.setattr(purity, "_meet_prime", lambda p, filters: False)
    with pytest.raises(InternalCheckError, match="^purely-maximal must be purely-prime$"):
        PureSpectrum(a6)


def test_two_chain_everything_pure():
    lat = build_two_chain()
    ps = pure_spectrum(lat)
    assert set(ps.pure) == set(all_filters(lat))
    assert ps.purely_prime == (1 << lat.top,)


def test_pure_filters_closed_under_meet_and_join(corpus5):
    for lat in corpus5:
        pure = set(pure_spectrum(lat).pure)
        for f in pure:
            for g in pure:
                assert f & g in pure
                assert filter_join(lat, f, g) in pure


def test_purely_prime_pairs_comaximal(corpus5):
    # distinct pure prime filters can only join to the whole carrier
    for lat in corpus5:
        spec = prime_spectrum(lat)
        pure = set(pure_spectrum(lat).pure)
        pp = [p for p in spec.primes if p in pure]
        for i, p in enumerate(pp):
            for q in pp[i + 1:]:
                assert filter_join(lat, p, q) == lat.full_mask


def test_pure_part_golden(a6):
    assert pure_part(a6, a6.full_mask) == a6.full_mask
    assert pure_part(a6, mask(a6, "1")) == mask(a6, "1")
    assert pure_part(a6, mask(a6, "a b d 1")) == mask(a6, "1")
    b4 = build_boolean4()
    assert pure_part(b4, mask(b4, "a 1")) == mask(b4, "a 1")


def test_pure_part_that_is_not_pure_raises(monkeypatch, a6):
    # the join of every pure filter inside A is A, and a pure core that
    # shrinks everything to {1} says A is not pure
    ps = pure_spectrum(a6)
    monkeypatch.setattr(purity, "pure_spectrum", lambda lat: ps)
    monkeypatch.setattr(purity, "pure_core", lambda lat, f: 1 << lat.top)
    with pytest.raises(InternalCheckError, match="^join of pure filters failed to be pure"):
        pure_part(a6, a6.full_mask)


def test_pure_envelope_golden(a6):
    assert pure_envelope(a6, 4) == mask(a6, "1")  # element d
    b4 = build_boolean4()
    assert pure_envelope(b4, 1) == mask(b4, "a 1")


def test_pure_envelope_of_top_is_one(a6, a8, corpus4):
    # the pure parts of all maximal filters intersect to the one filter
    for lat in (a6, a8, *corpus4):
        if lat.size == 1:
            continue
        assert pure_envelope(lat, lat.top) == 1 << lat.top


def test_identity_comparison_golden(a6, a8):
    def identity(lat):
        return mp_via_purity(lat)["pure_min_identity_homeomorphism"]

    assert identity(a6) == identity(build_two_chain())
    # a6: bijective and a homeomorphism; a8: not even bijective
    assert identity(a6) == Verdict(True, None)
    assert identity(a8) == Verdict(False, {"bijective": False})


def _omega_by_scan(lat, ideal):
    # the definition: a belongs when a v x = top for some x in the ideal
    return sum(
        1 << a for a in range(lat.size)
        if any(lat.join[a][x] == lat.top for x in bits(ideal))
    )


def test_purity_functions_reject_bad_input(a6):
    with pytest.raises(ContractError, match="^omega_filter: ideal must be non-empty$"):
        omega_filter(a6, 0)
    for bad in (0, mask(a6, "d"), mask(a6, "0 1")):
        with pytest.raises(ContractError, match="^pure_core: input must be a filter$"):
            pure_core(a6, bad)
        with pytest.raises(ContractError, match="^pure_part: input must be a filter$"):
            pure_part(a6, bad)


def test_omega_filter_matches_join_scan_on_every_ideal(oracle_set):
    for lat in oracle_set:
        for ideal in lattice_ideals(lat):
            assert omega_filter(lat, ideal) == _omega_by_scan(lat, ideal)


def test_divisor_filter_is_omega_of_the_complement(oracle_set):
    for lat in oracle_set:
        for p in prime_spectrum(lat).primes:
            assert _divisor_filter(lat, p) == _omega_by_scan(lat, lat.full_mask & ~p)


def test_wrong_divisor_filter_fails_the_kernel_check(monkeypatch, a6, a8):
    # the carrier is a filter, so only the kernel cross-check can object
    for lat in (a6, a8):
        om = purity.OmegaLattice(lat)
        monkeypatch.setattr(purity, "omega_filter", lambda lat, ideal: lat.full_mask)
        with pytest.raises(InternalCheckError, match="divisor filter disagrees"):
            om.divisors
        monkeypatch.undo()


def test_mp_check_cross_checks_each_divisor_filter_once(monkeypatch, a6, a8, corpus5):
    from reslat.mp import mp_check

    checked = []
    real = purity._divisor_of_prime
    monkeypatch.setattr(
        purity, "_divisor_of_prime", lambda lat, i: checked.append(i) or real(lat, i)
    )
    for source in (a6, a8, *corpus5):
        lat = dataclasses.replace(source)  # a copy whose memo starts empty
        checked.clear()
        mp_check(lat)
        assert sorted(checked) == list(range(len(prime_spectrum(lat))))


# ---------------------------------------------------------------------------
# the pure spectrum's closed sets and the identity onto Min, by theorem


CLOSED_SETS_MESSAGE = "closed sets of the pure spectrum are not the pure hulls"


@pytest.fixture(scope="module")
def topology_set(corpus6, a6, a8, a6xa8):
    """The order <= 6 corpus, a6, a8 and the a8 products."""
    return (*corpus6, a6, a8, build_product(a8, build_two_chain()), a6xa8, build_product(a8, a8))


def _closed_set_check_passes(lat, pure, points) -> bool:
    candidate = SimpleNamespace(lattice=lat, pure=pure, purely_prime=points)
    try:
        PureSpectrum._build_topology(candidate)
    except InternalCheckError as exc:
        assert str(exc) == CLOSED_SETS_MESSAGE
        return False
    return True


def test_closed_set_check_matches_brute_force(topology_set):
    # the pure filters pass both checks; each family with one pure filter
    # left out gets the same answer from both
    failures = 0
    for lat in topology_set:
        ps = pure_spectrum(lat)
        assert pure_hulls_are_closed_sets(lat, ps.pure, ps.purely_prime)
        for f in ps.pure:
            family = tuple(g for g in ps.pure if g != f)
            expected = pure_hulls_are_closed_sets(lat, family, ps.purely_prime)
            assert _closed_set_check_passes(lat, family, ps.purely_prime) == expected
            failures += not expected
    assert failures > 0


def test_min_dual_topology_is_discrete(topology_set):
    # pure_min_identity_homeomorphism compares with Min by this theorem
    for lat in topology_set:
        top = hull_kernel_topology(lat, "min", "dual")
        assert top.min_nbhd == tuple(1 << i for i in range(len(top)))


def test_hulls_not_closed_under_union_fail_the_closed_set_check():
    # Boolean 4 without the pure filter {1}: the hulls of {a,1} and {b,1}
    # are the two points, whose union, the hull of {1}, is missing; the
    # space is discrete, so the empty set and every point closure are hulls
    lat = build_boolean4()
    ps = pure_spectrum(lat)
    assert len(ps.purely_prime) == 2
    family = tuple(f for f in ps.pure if f != 1 << lat.top)
    assert not pure_hulls_are_closed_sets(lat, family, ps.purely_prime)
    assert not _closed_set_check_passes(lat, family, ps.purely_prime)


def test_non_discrete_pure_spectrum_fails_the_identity(monkeypatch):
    import reslat.mp

    lat = build_boolean4()
    assert mp_via_purity(lat)["pure_min_identity_homeomorphism"] == Verdict(True, None)
    ps = copy.copy(pure_spectrum(lat))
    # point 1 is in the minimal neighbourhood of point 0
    ps.topology = FiniteTopology(ps.purely_prime, (0b11, 0b10))
    monkeypatch.setattr(reslat.mp, "pure_spectrum", lambda lat: ps)
    verdict = mp_via_purity(lat)["pure_min_identity_homeomorphism"]
    assert verdict == Verdict(False, {"bijective": True})
