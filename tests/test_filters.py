from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from reslat import ContractError, InternalCheckError, bits, filters, mask_of
from reslat.filters import (
    all_filters,
    canonical_sort,
    congruence_classes,
    filter_join,
    filter_lattice,
    first_join_into,
    generated_filter,
    idempotent_class,
    is_domain,
    is_filter,
    principal_filter,
    quotient,
)
from reslat.coann import classify_baer_rickart
from reslat.mp import algebraic_of_class, mp_check, mp_via_purity, mp_via_spectral, mp_via_topology
from reslat.purity import omega_lattice, omega_of_class
from reslat.spectra import prime_spectrum
from reslat.enumerator import enumerate_residuated

from lattices import build_a6, build_a8, build_product, build_two_chain, mask, relabeled
from oracles import comaximal, full_canonical_key


def filter_sets(lat):
    return {frozenset(lat.label_set(f)) for f in all_filters(lat)}


def test_a6_filter_family_golden(a6):
    assert filter_sets(a6) == {
        frozenset("1"),
        frozenset({"a", "b", "d", "1"}),
        frozenset({"c", "d", "1"}),
        frozenset({"d", "1"}),
        frozenset({"0", "a", "b", "c", "d", "1"}),
    }


def test_a8_filter_family_golden(a8):
    assert filter_sets(a8) == {
        frozenset("1"),
        frozenset({"a", "c", "d", "e", "f", "1"}),
        frozenset({"c", "e", "1"}),
        frozenset({"f", "1"}),
        frozenset({"0", "a", "b", "c", "d", "e", "f", "1"}),
    }


def test_two_chain_has_two_filters():
    lat = build_two_chain()
    assert len(all_filters(lat)) == 2


def test_generated_filter_golden(a6):
    assert generated_filter(a6, mask(a6, "b")) == mask(a6, "a b d 1")
    assert generated_filter(a6, mask(a6, "c")) == mask(a6, "c d 1")
    assert generated_filter(a6, 0) == mask(a6, "1")
    assert generated_filter(a6, mask(a6, "0")) == a6.full_mask


@given(st.data())
def test_generated_filter_is_least_filter_containing_subset(data):
    lat = data.draw(st.sampled_from([build_a6(), build_a8()]))
    subset = data.draw(st.integers(min_value=0, max_value=lat.full_mask))
    f = generated_filter(lat, subset)
    assert is_filter(lat, f)
    assert subset & ~f == 0
    for g in all_filters(lat):
        if subset & ~g == 0:
            assert f & ~g == 0


def _closure_filter(lat, subset):
    """Generated filter as a fixpoint: close under products, then upward."""
    cur = subset | 1 << lat.top
    while True:
        nxt = cur
        els = list(bits(cur))
        for i, x in enumerate(els):
            for y in els[i:]:
                nxt |= 1 << lat.odot[x][y]
        for x in list(bits(nxt)):
            nxt |= lat.up[x]
        if nxt == cur:
            return cur
        cur = nxt


def _closure_filter_lattice(lat):
    """Filters by closing the principal ones under joins; joins by m^2 closures."""
    found = {_closure_filter(lat, 1 << x) for x in range(lat.size)} | {1 << lat.top}
    while True:
        fs = list(found)
        new = {_closure_filter(lat, f | g) for i, f in enumerate(fs) for g in fs[i + 1:]}
        if new <= found:
            break
        found |= new
    filters = canonical_sort(found)
    return filters, {(f, g): _closure_filter(lat, f | g) for f in filters for g in filters}


def test_filter_algebra_matches_closure(corpus5):
    a6, a8 = build_a6(), build_a8()
    lats = (
        *corpus5, *enumerate_residuated(6, workers=1),
        a6, a8, build_product(a6, a8), build_product(a8, a8),
    )
    rng = random.Random(20261018)
    for lat in lats:
        fl = filter_lattice(lat)
        joins = {(f, g): filter_join(lat, f, g) for f in fl.filters for g in fl.filters}
        assert (fl.filters, joins) == _closure_filter_lattice(lat)
        for f in fl.filters:
            least = [x for x in bits(f) if f & ~lat.up[x] == 0]
            assert len(least) == 1 and lat.odot[least[0]][least[0]] == least[0]
            assert fl.least[f] == least[0]
        n = lat.size
        if n <= 8:
            subsets = range(1 << n)
        else:
            # half of the draws small, so that not every generated filter is the whole carrier
            sizes = [rng.randint(0, 3) if i % 2 else rng.randint(0, n) for i in range(3000)]
            subsets = [mask_of(rng.sample(range(n), k)) for k in sizes]
        for s in subsets:
            assert generated_filter(lat, s) == _closure_filter(lat, s)


def test_generated_filter_rejects_cyclic_squares(a6):
    a, b = a6.labels.index("a"), a6.labels.index("b")
    odot = [list(row) for row in a6.odot]
    odot[a][a], odot[b][b] = b, a
    bad = dataclasses.replace(a6, odot=tuple(map(bytes, odot)))
    with pytest.raises(ContractError, match="no idempotent power"):
        generated_filter(bad, 1 << a)


def test_principal_filter_power_formula(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        for x in range(lat.size):
            powers = set()
            p = lat.top
            for _ in range(lat.size + 1):
                p = lat.odot[p][x]
                powers.add(p)
            expected = 0
            for a in range(lat.size):
                if any(lat.leq(q, a) for q in powers):
                    expected |= 1 << a
            assert principal_filter(lat, x) == expected


def test_principal_meet_and_join_identities(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        for x in range(lat.size):
            fx = principal_filter(lat, x)
            for y in range(lat.size):
                fy = principal_filter(lat, y)
                assert fx & fy == principal_filter(lat, lat.join[x][y])
                assert filter_join(lat, fx, fy) == principal_filter(lat, lat.odot[x][y])
                if lat.leq(x, y):
                    assert fy & ~fx == 0


def test_filter_lattice_is_distributive(corpus4):
    for lat in corpus4:
        fs = all_filters(lat)
        for f in fs:
            for g in fs:
                for h in fs:
                    lhs = filter_join(lat, f, g) & h
                    rhs = filter_join(lat, f & h, g & h)
                    assert lhs == rhs


def test_join_with_one_and_meet_with_all_neutral(a6):
    one = mask(a6, "1")
    for f in all_filters(a6):
        assert filter_join(a6, f, one) == f
        assert f & a6.full_mask == f


def test_idempotent_products_are_fixed_by_the_order():
    # e.e' is the greatest idempotent below e ^ e': it is idempotent and
    # below both, and an idempotent i below both has i = i.i <= e.e'.  So
    # the key of the shared analyses, (labels, I, odot on I x I), takes one
    # value per pair (lattice, I), and a shared analysis is computed once
    # for each: 1, 1, 2, 5, 12, 37 and 116 times at orders 1 to 7.  The
    # mp check and Baer/Rickart compute their shared parts as often, and
    # the omega lattice's filter test once per product
    for n, classes in enumerate((1, 1, 2, 5, 12, 37, 116), 1):
        lattices = enumerate_residuated(n, workers=1)
        for lat in lattices:
            idempotents = bytes(filter_lattice(lat).least.values())
            idempotent_mask = mask_of(idempotents)
            for e in idempotents:
                for e2 in idempotents:
                    below = lat.down_masks[lat.meet[e][e2]] & idempotent_mask
                    greatest = [i for i in bits(below) if not below & ~lat.down_masks[i]]
                    assert greatest == [lat.odot[e][e2]], (lat, e, e2)
        pairs = {(lat.up, frozenset(filter_lattice(lat).least.values())) for lat in lattices}
        keys = {(lat.up, idempotent_class(lat)) for lat in lattices}
        before = prime_spectrum.cache_info().misses
        for lat in lattices:
            prime_spectrum(lat)
        assert len(keys) == len(pairs) == prime_spectrum.cache_info().misses - before == classes
        counted = (mp_via_spectral, mp_via_topology, mp_via_purity, algebraic_of_class,
                   omega_of_class, classify_baer_rickart, omega_lattice)
        before = [fn.cache_info().misses for fn in counted]
        for lat in lattices:
            mp_check(lat)
            classify_baer_rickart(lat)
        misses = [fn.cache_info().misses - b for fn, b in zip(counted, before)]
        assert misses == [classes] * 6 + [len(lattices)], n


def test_comaximal_golden(a6, a8):
    ok, (x, y, a) = comaximal(a6, mask(a6, "a b d 1"), mask(a6, "c d 1"))
    assert ok
    assert a6.odot[x][y] == a6.bottom
    assert mask(a6, "a b d 1") >> a & 1
    assert mask(a6, "c d 1") >> a6.imp[a][a6.bottom] & 1
    assert comaximal(a6, mask(a6, "d 1"), mask(a6, "c d 1")) == (False, None)
    assert comaximal(a8, mask(a8, "c e 1"), mask(a8, "f 1")) == (False, None)


def test_comaximal_three_conditions_agree(corpus4):
    for lat in corpus4:
        proper = [f for f in all_filters(lat) if f != lat.full_mask]
        for f in proper:
            for g in proper:
                joined = filter_join(lat, f, g) == lat.full_mask
                pair = any(
                    lat.odot[x][y] == lat.bottom
                    for x in bits(f)
                    for y in bits(g)
                )
                single = any(g >> lat.imp[a][lat.bottom] & 1 for a in bits(f))
                assert joined == pair == single


def test_quotient_by_middle_filter_is_boolean_square(a6):
    q = quotient(a6, mask(a6, "d 1"))
    assert q.labels == ("{0}", "{a,b}", "{c}", "{d,1}")
    from reslat import boolean_center

    assert boolean_center(q) == q.full_mask


def test_quotient_by_one_is_isomorphic(a6):
    q = quotient(a6, mask(a6, "1"))
    assert full_canonical_key(q) == full_canonical_key(a6)


def test_quotient_by_everything_is_degenerate(a6):
    assert quotient(a6, a6.full_mask).size == 1


def test_quotient_by_top_of_a_corrupted_lattice_raises(validations):
    lat = relabeled(build_a6(), range(6))
    odot = [list(row) for row in lat.odot]
    odot[1][2] = lat.bottom if odot[1][2] != lat.bottom else lat.top
    bad = dataclasses.replace(lat, odot=tuple(map(bytes, odot)))
    with pytest.raises(InternalCheckError, match="quotient is not a residuated lattice"):
        quotient(bad, 1 << bad.top)
    # the quotient itself is validated, not bad
    [q] = validations
    assert q.odot == bad.odot and q.labels == tuple(f"{{{s}}}" for s in bad.labels)


def test_quotient_by_top_that_relabels_is_validated_in_full(validations):
    lat = relabeled(build_a6(), [5, 4, 3, 2, 1, 0])
    # classes by smallest member, the class of top (position 0) last: the
    # class of bottom (position 5) comes fifth
    classes = congruence_classes(lat, 1 << lat.top)
    assert classes == tuple(1 << x for x in (1, 2, 3, 4, 5, 0))
    q = quotient(lat, 1 << lat.top)
    assert q.up != lat.up
    assert validations == [q] and q.validation.valid


def test_congruence_classes_partition(a6):
    classes = congruence_classes(a6, mask(a6, "a b d 1"))
    assert sum(classes) == a6.full_mask
    assert len(classes) == 2


def test_classes_that_are_no_congruence_fail_the_compatibility_check(monkeypatch, a6):
    # {0, a} with singletons: 0 v c = c but a v c = d, in another class
    classes = (mask(a6, "0 a"), *(mask(a6, x) for x in "bcd1"))
    monkeypatch.setattr(filters, "congruence_classes", lambda lat, f: classes)
    with pytest.raises(InternalCheckError, match="^congruence is not compatible"):
        quotient(a6, mask(a6, "1"))


def test_congruence_classes_reject_non_filters(a6):
    for bad in (0, mask(a6, "d"), mask(a6, "0 1")):
        with pytest.raises(ContractError, match="^quotient: modulus must be a filter$"):
            congruence_classes(a6, bad)


def _imp_pair_classes(lat, f):
    """congruence_classes by its definition: a ~ b iff imp(a,b), imp(b,a) in f."""
    classes, seen = [], 0
    for a in range(lat.size):
        if not seen >> a & 1:
            cls = mask_of(b for b in range(lat.size)
                          if f >> lat.imp[a][b] & 1 and f >> lat.imp[b][a] & 1)
            classes.append(cls)
            seen |= cls
    classes.sort(key=lambda c: (bool(c >> lat.top & 1), c & -c))
    return tuple(classes)


def test_congruence_classes_match_imp_pair_definition(corpus7, a6, a8):
    pairs = 0
    for lat in (*corpus7, a6, a8):
        for f in all_filters(lat):
            assert congruence_classes(lat, f) == _imp_pair_classes(lat, f)
            pairs += 1
    assert pairs == 3009 + 5 + 5  # orders <= 7, then a6 and a8


def test_quotient_domain_iff_prime_filter(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        spec = prime_spectrum(lat)
        for f in all_filters(lat):
            domain, _ = is_domain(quotient(lat, f))
            assert domain == (f in spec.index)


def test_is_domain_golden(a6, a8):
    assert is_domain(a6) == (True, None)
    ok, witness = is_domain(a8)
    assert not ok
    x, y = witness
    assert x != a8.top and y != a8.top
    assert a8.join[x][y] == a8.top


def _join_into_by_pairs(lat, subset):
    # the double loop over all pairs x <= y (by index)
    n = lat.size
    for x in range(n):
        for y in range(x, n):
            if subset >> lat.join[x][y] & 1 and not (subset >> x & 1 or subset >> y & 1):
                return x, y
    return None


def test_first_join_into_matches_pair_scan(oracle_set):
    for lat in oracle_set:
        for f in (1 << lat.top, *all_filters(lat)):
            assert first_join_into(lat, f) == _join_into_by_pairs(lat, f)
        if lat.bottom != lat.top:
            pair = _join_into_by_pairs(lat, 1 << lat.top)
            assert is_domain(lat) == (pair is None, pair)


def test_chains_are_domains():
    from lattices import build_chain

    for n in (2, 3, 4, 5):
        assert is_domain(build_chain(n))[0]


def test_filter_join_matches_closure_on_every_pair(oracle_set):
    # filter_join reads up(odot(e, e')) from the filters' least elements;
    # the definition is the filter generated by the union
    for lat in oracle_set:
        fs = all_filters(lat)
        for f in fs:
            for g in fs:
                assert filter_join(lat, f, g) == generated_filter(lat, f | g)


def test_filter_join_rejects_non_filters(a6):
    # the least-element lookup knows exactly the filters: every other mask
    # of a6, on either side, is refused with the contract's message
    one = mask(a6, "1")
    filters = set(all_filters(a6))
    for subset in range(a6.full_mask + 1):
        if subset in filters:
            assert filter_join(a6, subset, one) == subset
            continue
        for args in ((subset, one), (one, subset)):
            with pytest.raises(ContractError, match="^filter_join: inputs must be filters$"):
                filter_join(a6, *args)
