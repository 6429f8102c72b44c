from __future__ import annotations

import random

import pytest

from reslat import InternalCheckError, bits, coann
from reslat.coann import classify_baer_rickart, coannihilator, coannulet, skeleton
from reslat.filters import all_filters, filter_join
from reslat.spectra import Spectrum, prime_spectrum

from lattices import build_a6, build_boolean4, build_two_chain, mask


def test_coannulet_golden(a6, a8):
    assert coannulet(a8, 6) == mask(a8, "c e 1")  # f-position is 6
    assert coannulet(a8, 3) == mask(a8, "f 1")    # c-position is 3
    assert coannulet(a6, 4) == mask(a6, "1")      # d-position is 4
    assert coannihilator(a6, coannulet(a6, 4)) == a6.full_mask
    assert coannulet(a6, a6.top) == a6.full_mask


def test_coannihilator_is_elementwise_join_condition(a6, a8, corpus4):
    # z lies in the coannihilator of X exactly when z v x = 1 for all x in X
    for lat in (a6, a8, *corpus4):
        for subset in range(0, lat.full_mask + 1, 3):
            expected = 0
            for z in range(lat.size):
                if all(lat.join[z][x] == lat.top for x in bits(subset)):
                    expected |= 1 << z
            assert coannihilator(lat, subset) == expected


def test_coannihilator_depends_only_on_generated_filter(a6, a8):
    from reslat.filters import generated_filter

    for lat in (a6, a8):
        for subset in range(lat.full_mask + 1):
            assert coannihilator(lat, subset) == coannihilator(
                lat, generated_filter(lat, subset)
            )


def test_double_and_triple_coannihilator_laws(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        for f in all_filters(lat):
            double = coannihilator(lat, coannihilator(lat, f))
            assert f & ~double == 0
            assert coannihilator(lat, double) == coannihilator(lat, f)


def test_minimal_primes_contain_precisely_one_of_element_or_coannulet(corpus5):
    for lat in corpus5:
        spec = prime_spectrum(lat)
        for i, p in enumerate(spec.primes):
            precisely_one = all(
                bool(p >> x & 1) != (coannulet(lat, x) & ~p == 0)
                for x in range(lat.size)
            )
            assert precisely_one == (i in spec.minimal)


def test_skeleton_golden(a6, a8):
    sk6 = skeleton(a6)
    assert set(sk6.coannulets) == {mask(a6, "1"), a6.full_mask}
    sk8 = skeleton(a8)
    assert set(sk8.coannulets) == {
        mask(a8, "1"), mask(a8, "c e 1"), mask(a8, "f 1"), a8.full_mask,
    }


def test_two_chain_skeleton_is_two_element_boolean():
    lat = build_two_chain()
    sk = skeleton(lat)
    assert set(sk.members) == {1 << lat.top, lat.full_mask}


def test_dual_coannulets_are_complements_of_coannulets(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        sk = skeleton(lat)
        members = set(sk.members)
        for x in range(lat.size):
            dual = coannihilator(lat, coannulet(lat, x))
            assert dual in members


def test_skeleton_complementation(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        sk = skeleton(lat)
        one = 1 << lat.top
        for f in sk.members:
            c = coannihilator(lat, f)
            assert f & c == one
            assert sk.join[f, c] == lat.full_mask


def test_classification_golden(a6, a8):
    assert classify_baer_rickart(build_boolean4()) == classify_baer_rickart(a6)
    cls6 = classify_baer_rickart(a6)
    assert cls6.baer and cls6.rickart
    cls8 = classify_baer_rickart(a8)
    assert not cls8.baer and not cls8.rickart


def test_a8_coannulets_not_join_closed(a8):
    sk = skeleton(a8)
    gamma = set(sk.coannulets)
    joined = filter_join(a8, mask(a8, "c e 1"), mask(a8, "f 1"))
    assert joined == mask(a8, "a c d e f 1")
    assert joined not in gamma
    assert sk.join[mask(a8, "c e 1"), mask(a8, "f 1")] == a8.full_mask


def test_rickart_iff_coannulets_join_closed_and_boolean(corpus5):
    for lat in corpus5:
        sk = skeleton(lat)
        gamma = set(sk.coannulets)
        one = 1 << lat.top
        closed = all(
            filter_join(lat, f, g) in gamma for f in gamma for g in gamma
        )
        boolean = all(
            any(
                f & g == one and filter_join(lat, f, g) == lat.full_mask
                for g in gamma
            )
            for f in gamma
        )
        assert classify_baer_rickart(lat).rickart == (closed and boolean)


def _coannihilator_by_primes(lat, subset):
    # the definition: intersect every prime that does not contain the subset
    out = lat.full_mask
    for p in prime_spectrum(lat).primes:
        if subset & ~p:
            out &= p
    return out


def test_coannihilator_matches_prime_scan(oracle_set):
    rng = random.Random(20221)
    for lat in oracle_set:
        if lat.size <= 6:
            subsets = range(lat.full_mask + 1)
        else:
            subsets = [rng.getrandbits(lat.size) for _ in range(2000)]
        for subset in subsets:
            assert coannihilator(lat, subset) == _coannihilator_by_primes(lat, subset)
        for x in range(lat.size):
            assert coannulet(lat, x) == _coannihilator_by_primes(lat, 1 << x)


def test_skeleton_rejects_primes_that_do_not_meet_in_the_one_filter(monkeypatch):
    # the Boolean square with only the prime {a,1}: coann(A) = {a,1}, and
    # no coannihilator is {1}
    lat = build_boolean4()
    monkeypatch.setattr(coann, "prime_spectrum", lambda lat: Spectrum(lat, (mask(lat, "a 1"),)))
    with pytest.raises(InternalCheckError, match="^skeleton lacks the one filter$"):
        skeleton.__wrapped__(lat)


def _skeleton_of(monkeypatch, lat, complement: dict[int, int]):
    """skeleton's checks on a made-up family: the members are the values of
    complement, which stands in for coannihilator on members and filters."""
    monkeypatch.setattr(coann, "all_filters", lambda lat: tuple(complement))
    monkeypatch.setattr(coann, "coannihilator", lambda lat, subset: complement[subset])
    return skeleton.__wrapped__(lat)


def test_skeleton_rejects_each_broken_boolean_law(monkeypatch):
    # every member and complement below has the bit of 1, the one filter;
    # all are masks over the six elements of A6
    lat = build_a6()
    one, full = mask(lat, "1"), lat.full_mask
    bounds = {one: full, full: one}
    x, y, z, w = (mask(lat, f"{s} 1") for s in "0abc")
    failing = {
        # {0,a,1} & {a,b,1} = {a,1} is no member
        "not closed under intersection": {**bounds, x | y: y | z, y | z: x | y},
        # {0,1} is its own complement
        "complement fails the meet law": {**bounds, x: x},
        # {1} alone: its complement {1} does not join with it to A
        "complement fails the join law": {one: one, full: one},
        # four atoms, complemented in pairs, make an ortholattice that is
        # not distributive: {0,1} v ({a,1} & {b,1}) = {0,1}, but
        # ({0,1} v {a,1}) & ({0,1} v {b,1}) = A
        "is not distributive": {**bounds, x: y, y: x, z: w, w: z},
    }
    for message, complement in failing.items():
        with pytest.raises(InternalCheckError, match=f"^skeleton {message}$"):
            _skeleton_of(monkeypatch, lat, complement)
    # the same made-up family with the Boolean square's complements passes
    assert _skeleton_of(monkeypatch, lat, {**bounds, x: y, y: x}).members == (one, x, y, full)


def test_skeleton_rejects_coannulets_that_are_no_sublattice(monkeypatch):
    # on the Boolean square the coannulets are {1}, {a,1}, {b,1} and A; with
    # {a,1} for the bottom's, {a,1} & {b,1} = {1} is no coannulet
    lat = build_boolean4()
    real = coann.coannulet
    monkeypatch.setattr(
        coann, "coannulet", lambda lat, x: mask(lat, "a 1") if x == lat.bottom else real(lat, x)
    )
    with pytest.raises(InternalCheckError, match="^coannulets not a sublattice of the skeleton$"):
        skeleton.__wrapped__(lat)


def test_skeleton_rejects_a_coannulet_outside_the_skeleton(monkeypatch, a8):
    # {0} is no filter, so no coannihilator: the check must name it before
    # any table lookup sees it
    real = coann.coannulet
    monkeypatch.setattr(
        coann, "coannulet", lambda lat, x: 1 << lat.bottom if x == 3 else real(lat, x)
    )
    with pytest.raises(InternalCheckError, match="coannulets must be coannihilators"):
        skeleton.__wrapped__(a8)


def test_skeleton_rejects_a_complement_outside_the_skeleton(monkeypatch, a8):
    # members are the coannihilators of the filters; a later, different
    # answer for one of them reaches only the complement table
    real = coann.coannihilator
    target = mask(a8, "c e 1")
    seen = set()

    def faulty(lat, subset):
        if subset == target and subset in seen:
            return 1 << lat.bottom
        seen.add(subset)
        return real(lat, subset)

    monkeypatch.setattr(coann, "coannihilator", faulty)
    with pytest.raises(InternalCheckError, match="not closed under complement"):
        skeleton.__wrapped__(a8)


def test_skeleton_rejects_a_wrong_complement_inside_the_skeleton(monkeypatch, a8):
    # a complement that is a member, but the wrong one, breaks a law that
    # is checked on the tables
    real = coann.coannihilator
    target = mask(a8, "c e 1")
    seen = set()

    def faulty(lat, subset):
        if subset == target and subset in seen:
            return lat.full_mask
        seen.add(subset)
        return real(lat, subset)

    monkeypatch.setattr(coann, "coannihilator", faulty)
    with pytest.raises(InternalCheckError, match="^skeleton .* law"):
        skeleton.__wrapped__(a8)
