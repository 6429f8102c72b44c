from __future__ import annotations

import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, strategies as st

from reslat import ContractError, InternalCheckError, bits, spectra
from reslat.core import is_subset, transitive_closure
from reslat.coann import coannihilator
from reslat.filters import all_filters, filter_join, generated_filter, is_filter
from reslat.purity import pure_spectrum
from reslat.spectra import (
    FiniteTopology,
    SeparationReport,
    Spectrum,
    generalization,
    hull,
    hull_kernel_topology,
    kernel,
    prime_linkage,
    prime_spectrum,
    separation_check,
)
from reslat.mp import Verdict, mp_via_topology

from lattices import build_a6, build_a8, build_boolean4, build_chain, mask, names
from oracles import (
    brute_hausdorff,
    brute_normal,
    brute_t1,
    closed_sets,
    closure,
    dual_closed_sets,
    ideal_join_is_everything,
    open_sets,
    prime_avoiding,
)


def prime_sets(lat):
    spec = prime_spectrum(lat)
    return {frozenset(lat.label_set(p)) for p in spec.primes}


def test_a6_spectrum_golden(a6):
    spec = prime_spectrum(a6)
    assert prime_sets(a6) == {
        frozenset("1"),
        frozenset({"a", "b", "d", "1"}),
        frozenset({"c", "d", "1"}),
    }
    assert {frozenset(a6.label_set(spec.primes[i])) for i in spec.maximal} == {
        frozenset({"a", "b", "d", "1"}),
        frozenset({"c", "d", "1"}),
    }
    assert [names(a6, spec.primes[i]) for i in spec.minimal] == ["1"]


def test_a6_middle_filter_is_not_prime(a6):
    # b v c = d lies in {d,1} but neither b nor c does, so primality fails
    # even though {d,1} is a filter
    spec = prime_spectrum(a6)
    middle = mask(a6, "d 1")
    assert middle in all_filters(a6)
    assert middle not in spec.index


def test_a8_spectrum_golden(a8):
    spec = prime_spectrum(a8)
    assert prime_sets(a8) == {
        frozenset({"a", "c", "d", "e", "f", "1"}),
        frozenset({"c", "e", "1"}),
        frozenset({"f", "1"}),
    }
    assert [names(a8, spec.primes[i]) for i in spec.maximal] == ["a c d e f 1"]
    assert {frozenset(a8.label_set(spec.primes[i])) for i in spec.minimal} == {
        frozenset({"c", "e", "1"}),
        frozenset({"f", "1"}),
    }


def test_chain_proper_filters_all_prime():
    for n in (2, 3, 4, 5):
        lat = build_chain(n)
        spec = prime_spectrum(lat)
        proper = [f for f in all_filters(lat) if f != lat.full_mask]
        assert set(spec.primes) == set(proper)
        assert [spec.primes[i] for i in spec.minimal] == [1 << lat.top]


def test_every_prime_contains_a_minimal_prime(corpus5):
    for lat in corpus5:
        spec = prime_spectrum(lat)
        for i in range(len(spec)):
            assert any(j in spec.minimal for j in bits(spec.below[i]))


def test_primality_tests_that_disagree_raise(monkeypatch, a6):
    # a meet-primality test that rejects every filter disagrees with the
    # element-wise test on the first prime
    monkeypatch.setattr(spectra, "_meet_prime", lambda p, filters: False)
    with pytest.raises(InternalCheckError, match="^primality tests disagree on "):
        prime_spectrum.__wrapped__(a6)


def test_prime_avoiding_golden(a6, a8):
    p = prime_avoiding(a6, mask(a6, "1"), mask(a6, "0"))
    spec = prime_spectrum(a6)
    assert p in spec.index and spec.index[p] in spec.maximal
    assert prime_avoiding(a8, mask(a8, "f 1"), mask(a8, "c e")) == mask(a8, "f 1")


def test_prime_avoiding_whole_complement(a6):
    # when the one filter is prime it avoids everything else
    assert prime_avoiding(a6, mask(a6, "1"), a6.full_mask ^ mask(a6, "1")) == mask(a6, "1")


def test_prime_avoiding_postconditions(corpus4):
    for lat in corpus4:
        if lat.size < 2:
            continue
        spec = prime_spectrum(lat)
        p = prime_avoiding(lat, 1 << lat.top, 1 << lat.bottom)
        assert p in spec.index
        assert not p >> lat.bottom & 1


def test_hull_kernel_golden(a6, a8):
    spec8 = prime_spectrum(a8)
    assert hull(a8, 1 << a8.top) == spec8.all_points
    assert kernel(a8, 0) == a8.full_mask
    got = {frozenset(a8.label_set(spec8.primes[i])) for i in bits(hull(a8, mask(a8, "f")))}
    assert got == {frozenset({"f", "1"}), frozenset({"a", "c", "d", "e", "f", "1"})}
    assert kernel(a6, prime_spectrum(a6).all_points) == mask(a6, "1")


@given(st.data())
def test_hull_kernel_connection(data):
    lat = data.draw(st.sampled_from([build_a6(), build_a8()]))
    spec = prime_spectrum(lat)
    subset = data.draw(st.integers(min_value=0, max_value=lat.full_mask))
    points = data.draw(st.integers(min_value=0, max_value=spec.all_points))
    assert hull(lat, subset) == hull(lat, generated_filter(lat, subset))
    k = kernel(lat, points)
    assert is_filter(lat, k)
    assert points & ~hull(lat, k) == 0
    assert subset & ~kernel(lat, hull(lat, subset)) == 0


def test_kernel_of_hull_fixes_filters(a6, a8, corpus4):
    # in the finite case every filter is an intersection of primes above it
    for lat in (a6, a8, *corpus4):
        for f in all_filters(lat):
            assert kernel(lat, hull(lat, f)) == f


def test_dual_topology_minimal_neighbourhoods(a8):
    spec = prime_spectrum(a8)
    top = hull_kernel_topology(a8, "spec", "dual")
    for i in range(len(spec)):
        # the least dual-open around a prime is the set of primes above it
        assert top.min_nbhd[i] == spec.above[i]


def test_hull_topology_specialization_is_containment(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        spec = prime_spectrum(lat)
        top = hull_kernel_topology(lat, "spec", "hull")
        for i in range(len(spec)):
            assert closure(top, 1 << i) == spec.above[i]


def test_unknown_space_variant_and_linkage_kind_are_contract_errors(a6):
    with pytest.raises(ContractError, match="^unknown space 'max'$"):
        hull_kernel_topology(a6, "max", "dual")
    with pytest.raises(ContractError, match="^unknown variant 'zariski'$"):
        hull_kernel_topology(a6, "spec", "zariski")
    with pytest.raises(ContractError, match="^unknown linkage kind 'primes'$"):
        prime_linkage(a6, "primes")


def test_neighbourhood_maps_are_reflexive_and_transitive(a6, a8, corpus4):
    # FiniteTopology takes its map as given, so every constructor must give
    # a preorder: from_subbasis on any family of opens, and each hull-kernel
    # topology
    rng = random.Random(27)
    maps = []
    for _ in range(3000):
        k = rng.randint(0, 8)
        subbasis = [rng.getrandbits(k) for _ in range(rng.randint(0, 6))]
        maps.append(FiniteTopology.from_subbasis(tuple(range(k)), subbasis).min_nbhd)
    for lat in (a6, a8, *corpus4):
        for space in ("spec", "min"):
            for variant in ("hull", "dual", "patch"):
                maps.append(hull_kernel_topology(lat, space, variant).min_nbhd)
    for nb in maps:
        assert all(row >> i & 1 for i, row in enumerate(nb))
        assert transitive_closure(nb) == nb


def test_patch_topology_is_discrete(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        top = hull_kernel_topology(lat, "spec", "patch")
        assert all(top.min_nbhd[i] == 1 << i for i in range(len(top)))


def test_containment_closure_equivalence(a6, a8, corpus4):
    # p <= q iff q is in the hull closure of p iff p is in the dual closure of q
    for lat in (a6, a8, *corpus4):
        spec = prime_spectrum(lat)
        h = hull_kernel_topology(lat, "spec", "hull")
        d = hull_kernel_topology(lat, "spec", "dual")
        for i in range(len(spec)):
            for j in range(len(spec)):
                contained = bool(spec.above[i] >> j & 1)
                assert contained == bool(closure(h, 1 << i) >> j & 1)
                assert contained == bool(closure(d, 1 << j) >> i & 1)


def test_closure_of_point_is_hull_and_specialization(a6, a8):
    for lat in (a6, a8):
        spec = prime_spectrum(lat)
        h = hull_kernel_topology(lat, "spec", "hull")
        for i in range(len(spec)):
            assert closure(h, 1 << i) == hull(lat, spec.primes[i])
            assert closure(h, 1 << i) == spec.above[i]  # the specialization of prime i


def test_generalization_of_maximal_is_everything(a8):
    spec = prime_spectrum(a8)
    m = spec.maximal[0]
    assert generalization(a8, 1 << m) == spec.all_points


def _specialization(spec, point_mask):
    # the primes containing some member of the given set
    return reduce(or_, (spec.above[i] for i in bits(point_mask)), 0)


def test_specialization_is_a_closure_operator(a6, a8):
    for lat in (a6, a8):
        spec = prime_spectrum(lat)
        for subset in range(spec.all_points + 1):
            s = _specialization(spec, subset)
            assert subset & ~s == 0
            assert _specialization(spec, s) == s


def test_separation_matches_brute_force(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        for space in ("spec", "min"):
            for variant in ("hull", "dual", "patch"):
                top = hull_kernel_topology(lat, space, variant)
                assert len(top) <= 12
                sep = separation_check(top)
                assert sep.t1 == brute_t1(top)
                assert sep.hausdorff == brute_hausdorff(top)
                assert sep.normal == brute_normal(top)


def test_normality_witness_is_genuine(a8):
    top = hull_kernel_topology(a8, "spec", "dual")
    sep = separation_check(top)
    assert not sep.normal
    i, j = sep.witness
    assert not closure(top, 1 << i) & closure(top, 1 << j)
    assert top.min_nbhd[i] & top.min_nbhd[j]


def test_dual_opens_are_avoidance_complements(a6, a8, corpus4):
    # opens of the dual prime space are exactly the sets of primes meeting
    # some fixed subset of the carrier
    for lat in (a6, a8, *corpus4):
        spec = prime_spectrum(lat)
        top = hull_kernel_topology(lat, "spec", "dual")
        opens = set(open_sets(top))
        for u in opens:
            x = 0
            for e in range(lat.size):
                if not hull(lat, 1 << e) & ~u:
                    x |= 1 << e
            rebuilt = sum(
                1 << i for i in range(len(spec)) if spec.primes[i] & x
            )
            assert rebuilt == u
        for x_mask in range(lat.full_mask + 1):
            meets = sum(
                1 << i for i in range(len(spec)) if spec.primes[i] & x_mask
            )
            assert meets in opens


def test_dual_closed_iff_patch_closed_and_generalization_stable(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        spec = prime_spectrum(lat)
        assert len(spec) <= 12
        dual = hull_kernel_topology(lat, "spec", "dual")
        patch = hull_kernel_topology(lat, "spec", "patch")
        for subset in range(spec.all_points + 1):
            stable = generalization(lat, subset) == subset
            assert dual.is_closed(subset) == (patch.is_closed(subset) and stable)


def test_dual_closed_sets_enumeration(a6, a8):
    for lat in (a6, a8):
        spec = prime_spectrum(lat)
        closed = dual_closed_sets(lat)
        assert 0 in closed and spec.all_points in closed
        top = hull_kernel_topology(lat, "spec", "dual")
        assert set(closed) == set(closed_sets(top))


def test_hull_of_minimal_closed_only_in_mp_case(a6, a8):
    dual6 = hull_kernel_topology(a6, "spec", "dual")
    spec6 = prime_spectrum(a6)
    for i in spec6.minimal:
        assert dual6.is_closed(hull(a6, spec6.primes[i]))
    dual8 = hull_kernel_topology(a8, "spec", "dual")
    spec8 = prime_spectrum(a8)
    assert not all(
        dual8.is_closed(hull(a8, spec8.primes[i])) for i in spec8.minimal
    )


def test_clopens_of_dual_prime_space_are_central_hulls(a6, a8, corpus4):
    from reslat import boolean_center

    for lat in (a6, a8, *corpus4):
        top = hull_kernel_topology(lat, "spec", "dual")
        clopen = {u for u in open_sets(top) if top.is_closed(u)}
        central = {hull(lat, 1 << e) for e in bits(boolean_center(lat))}
        assert clopen == central


def _prime_at(lat, text):
    # the spectrum position of a prime that a witness names as "{a,b,1}"
    return prime_spectrum(lat).index[mask(lat, " ".join(text.strip("{}").split(",")))]


def test_minimal_primes_separated(a6, a8):
    assert mp_via_topology(a6)["min_dual_hausdorff"] == Verdict(True, None)
    verdict = mp_via_topology(a8)["min_dual_hausdorff"]
    assert not verdict.value
    i, j = (_prime_at(a8, p) for p in verdict.witness["pair"])
    shared = _prime_at(a8, verdict.witness["shared_prime"])
    spec = prime_spectrum(a8)
    assert i in spec.minimal and j in spec.minimal
    assert shared in spec.maximal


def _retraction_by_scan(lat):
    # (exists, continuous, fixes_minimal) of the map sending each prime to
    # the minimal primes inside it, by scan; continuity in the dual
    # topologies is being constant on the up-set of every prime
    spec = prime_spectrum(lat)
    image = [[j for j in spec.minimal if is_subset(spec.primes[j], p)] for p in spec.primes]
    exists = all(len(m) == 1 for m in image)
    continuous = exists and all(
        image[j] == image[i] for i in range(len(spec)) for j in bits(spec.above[i])
    )
    fixes_minimal = exists and all(image[i] == [i] for i in spec.minimal)
    return exists, continuous, fixes_minimal


def test_retraction_golden(a6, a8):
    assert mp_via_topology(a6)["retraction_to_minimal"] == Verdict(True, None)
    assert _retraction_by_scan(a6) == (True, True, True)
    r8 = mp_via_topology(a8)["retraction_to_minimal"]
    assert not r8.value and not _retraction_by_scan(a8)[0]
    assert _prime_at(a8, r8.witness["prime"]) in prime_spectrum(a8).maximal


def test_retraction_on_chains():
    for n in (2, 3, 4):
        lat = build_chain(n)
        assert mp_via_topology(lat)["retraction_to_minimal"] == Verdict(True, None)
        assert _retraction_by_scan(lat) == (True, True, True)


def test_retraction_exists_iff_unique_minimal(corpus5):
    # the verdict searches for existence only: wherever the retraction
    # exists, it is continuous and fixes the minimal primes
    for lat in corpus5:
        spec = prime_spectrum(lat)
        counts = [sum(j in spec.minimal for j in bits(spec.below[i])) for i in range(len(spec))]
        unique = all(c == 1 for c in counts)
        verdict = mp_via_topology(lat)["retraction_to_minimal"]
        assert verdict.value == unique
        assert _retraction_by_scan(lat) == (unique, unique, unique)
        if not unique:
            first = next(i for i, c in enumerate(counts) if c != 1)
            assert _prime_at(lat, verdict.witness["prime"]) == first


def _linkage_base(lat, kind):
    # the relation by definition: the filter join, or the ideal join of
    # the complements, stays proper
    primes = prime_spectrum(lat).primes
    if kind == "filters":
        def linked(p, q):
            return filter_join(lat, p, q) != lat.full_mask
    else:
        def linked(p, q):
            return not _ideal_join_is_everything_by_pairs(lat, p, q)
    return tuple(sum(1 << j for j, q in enumerate(primes) if linked(p, q)) for p in primes)


def test_linkage_base_is_reflexive_and_symmetric(a6, a8):
    for lat in (a6, a8):
        for kind in ("filters", "ideals"):
            base = _linkage_base(lat, kind)
            for i in range(len(base)):
                assert base[i] >> i & 1
                for j in bits(base[i]):
                    assert base[j] >> i & 1
            assert prime_linkage(lat, kind).closed == transitive_closure(base)


def test_ideal_linkage_checks_primality_at_the_top(monkeypatch):
    # {1} of the Boolean square is a filter but no prime, as a v b = 1.
    # Given as the one prime, the filter join {1} v {1} = {1} links it to
    # itself, but the ideal join of its complement with itself is everything
    lat = build_boolean4()
    monkeypatch.setattr(spectra, "prime_spectrum", lambda lat: Spectrum(lat, (1 << lat.top,)))
    assert prime_linkage(lat, "filters").closed == (1,)
    with pytest.raises(InternalCheckError, match="^linkage relation must be reflexive$"):
        prime_linkage(lat, "ideals")


def test_linkage_golden(a6, a8):
    spec6 = prime_spectrum(a6)
    rel6 = prime_linkage(a6, "filters")
    m = spec6.minimal[0]
    assert rel6.closed[m] == spec6.all_points == hull(a6, spec6.primes[m])

    spec8 = prime_spectrum(a8)
    rel8 = prime_linkage(a8, "filters")
    i = spec8.index[mask(a8, "f 1")]
    j = spec8.index[mask(a8, "c e 1")]
    assert rel8.closed[i] >> j & 1
    assert not hull(a8, spec8.primes[i]) >> j & 1


def test_linkage_collapse_against_brute_force(a6, a8, corpus4):
    # the collapse map is a homeomorphism exactly when it is a bijection
    # carrying opens of the discrete minimal spectrum onto quotient opens
    for lat in (a6, a8, *corpus4):
        spec = prime_spectrum(lat)
        spec_top = hull_kernel_topology(lat, "spec", "dual")
        min_top = hull_kernel_topology(lat, "min", "dual")
        for kind in ("filters", "ideals"):
            rel = prime_linkage(lat, kind)
            classes = sorted(set(rel.closed))
            quotient_opens = set()
            for choice in range(1 << len(classes)):
                preimage = 0
                for c in bits(choice):
                    preimage |= classes[c]
                if spec_top.is_open(preimage):
                    quotient_opens.add(choice)
            mins = spec.minimal
            class_pos = {cls: c for c, cls in enumerate(classes)}
            images = [class_pos[rel.closed[i]] for i in mins]
            bijective = len(set(images)) == len(mins) == len(classes)
            homeo = bijective
            if bijective:
                min_opens = set(open_sets(min_top))
                for u in min_opens:
                    image = sum(1 << images[i] for i in bits(u))
                    if image not in quotient_opens:
                        homeo = False
                        break
                if homeo:
                    for w in quotient_opens:
                        preimage = sum(
                            1 << i for i in range(len(mins)) if w >> images[i] & 1
                        )
                        if preimage not in min_opens:
                            homeo = False
                            break
            assert rel.collapse_bijective == bijective
            assert rel.collapse_homeomorphism == homeo


def _ideal_join_is_everything_by_pairs(lat, p, q):
    # the definition: some x outside p and y outside q join to the top
    return any(
        lat.join[x][y] == lat.top
        for x in bits(lat.full_mask & ~p)
        for y in bits(lat.full_mask & ~q)
    )


def test_ideal_linkage_matches_pair_scan(corpus6, a6, a8, a6xa8):
    chains = (build_chain(n) for n in INCIDENCE_CHAINS)
    for lat in (*corpus6, a6, a8, a6xa8, *chains):
        primes = prime_spectrum(lat).primes
        base = [0] * len(primes)
        for i, p in enumerate(primes):
            for j, q in enumerate(primes):
                everything = ideal_join_is_everything(lat, p, q)
                assert everything == _ideal_join_is_everything_by_pairs(lat, p, q)
                base[i] |= (not everything) << j
        assert prime_linkage(lat, "ideals").closed == transitive_closure(base)


# ---------------------------------------------------------------------------
# the element-prime incidence table against the per-point scans it replaced


def _hull_by_scan(spec, subset):
    return sum(1 << i for i, p in enumerate(spec.primes) if is_subset(subset, p))


def _kernel_by_scan(lat, spec, point_mask):
    out = lat.full_mask
    for i in bits(point_mask):
        out &= spec.primes[i]
    return out


def _coannulets_by_scan(lat, spec):
    coannulets = [lat.full_mask] * lat.size
    for p in spec.primes:
        for x in bits(lat.full_mask & ~p):
            coannulets[x] &= p
    return tuple(coannulets)


def _topology_by_scan(lat, space, variant):
    spec = prime_spectrum(lat)
    positions = range(len(spec)) if space == "spec" else spec.minimal
    points = tuple(spec.primes[g] for g in positions)
    full = (1 << len(points)) - 1

    def h_local(x):
        return sum(1 << i for i, p in enumerate(points) if p >> x & 1)

    subbasic = []
    if variant in ("dual", "patch"):
        subbasic.extend(h_local(x) for x in range(lat.size))
    if variant in ("hull", "patch"):
        subbasic.extend(full & ~h_local(x) for x in range(lat.size))
    return FiniteTopology.from_subbasis(points, subbasic)


def _separation_by_closures(top):
    # separation_check as it was, with top.closure recomputed per pair
    k = len(top)
    t1 = all(closure(top, 1 << i) == 1 << i for i in range(k))
    hausdorff = all(top.min_nbhd[i] == 1 << i for i in range(k))
    witness = None
    for i in range(k):
        if witness:
            break
        for j in range(i + 1, k):
            if closure(top, 1 << i) & closure(top, 1 << j):
                continue
            if top.min_nbhd[i] & top.min_nbhd[j]:
                witness = (i, j)
                break
    return SeparationReport(t1, hausdorff, witness is None, witness)


INCIDENCE_CHAINS = (2, 3, 4, 7, 16, 33, 64)


@pytest.fixture(scope="module")
def incidence_set(oracle_set):
    """The oracle set (it holds the order-1 lattice, which has no primes)
    and Goedel chains of up to 64 elements."""
    return (*oracle_set, *(build_chain(n) for n in INCIDENCE_CHAINS))


def test_incidence_matches_per_point_scans(incidence_set):
    assert any(len(prime_spectrum(lat)) == 0 for lat in incidence_set)
    for lat in incidence_set:
        spec = prime_spectrum(lat)
        primes = spec.primes
        assert spec.hulls == tuple(_hull_by_scan(spec, 1 << x) for x in range(lat.size))
        assert spec.above == tuple(_hull_by_scan(spec, p) for p in primes)
        assert spec.below == tuple(
            sum(1 << j for j, q in enumerate(primes) if is_subset(q, p)) for p in primes
        )
        assert spec.coannulets == _coannulets_by_scan(lat, spec)
        for f in (0, *all_filters(lat)):
            h = hull(lat, f)
            assert h == _hull_by_scan(spec, f)
            assert kernel(lat, h) == _kernel_by_scan(lat, spec, h)
            outside = spec.all_points & ~h
            assert coannihilator(lat, f) == _kernel_by_scan(lat, spec, outside)
        for i in range(len(spec)):
            for points in (spec.above[i], spec.below[i], spec.minimal_mask):
                assert kernel(lat, points) == _kernel_by_scan(lat, spec, points)


def test_topologies_match_per_point_scans(incidence_set):
    for lat in incidence_set:
        for space in ("spec", "min"):
            for variant in ("hull", "dual", "patch"):
                top = hull_kernel_topology(lat, space, variant)
                assert top == _topology_by_scan(lat, space, variant)
                assert separation_check(top) == _separation_by_closures(top)


def test_pure_spectrum_matches_per_point_scans(incidence_set):
    for lat in incidence_set:
        ps = pure_spectrum(lat)
        proper = [f for f in ps.pure if f != lat.full_mask]
        assert ps.purely_maximal == tuple(
            f for f in proper if not any(g != f and is_subset(f, g) for g in proper)
        )
        assert ps.purely_prime == tuple(
            p for p in proper
            if all(
                not is_subset(f1 & f2, p) or is_subset(f1, p) or is_subset(f2, p)
                for f1 in ps.pure
                for f2 in ps.pure
            )
        )
        points = ps.purely_prime
        k = len(points)
        subbasic = [
            sum(1 << i for i in range(k) if not is_subset(f, points[i])) for f in ps.pure
        ]
        top = FiniteTopology.from_subbasis(points, subbasic)
        assert ps.topology == top
        hulls = {sum(1 << i for i in range(k) if is_subset(f, points[i])) for f in ps.pure}
        assert set(closed_sets(top)) == hulls
