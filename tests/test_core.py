from __future__ import annotations

import collections
import dataclasses
import gc
import random
import weakref

import pytest

from reslat import (
    InternalCheckError,
    ResiduumError,
    StructureError,
    ValidationFailed,
    ValidationReport,
    Violation,
    bits,
    boolean_center,
    derive_residuum,
    from_order,
    from_tables,
    mask_of,
    negation,
    spectra,
    validate_axioms,
)
from reslat.coann import classify_baer_rickart, skeleton
from reslat.core import MAX_SIZE, ResiduatedLattice, bounded_lattice_ops, is_subset
from reslat.enumerator import enumerate_residuated
from reslat.filters import filter_lattice, idempotent_class, quotient
from reslat.latfile import load_bundled
from reslat.mp import algebraic_of_class, mp_via_purity, mp_via_spectral, mp_via_topology
from reslat.purity import omega_lattice, omega_of_class, pure_spectrum
from reslat.spectra import hull_kernel_topology, hull, prime_spectrum

from oracles import single_pass_validate
from lattices import (
    build_a6,
    build_a8,
    build_boolean4,
    build_chain,
    build_lukasiewicz,
    build_product,
    build_two_chain,
    mask,
    over_fresh_reduct,
)


def test_a6_tables_are_valid(a6):
    assert validate_axioms(a6).valid


def test_a8_tables_are_valid(a8):
    assert validate_axioms(a8).valid


def test_two_chain_with_meet_product_is_valid():
    assert validate_axioms(build_two_chain()).valid


def test_hand_built_matches_bundled(a6, a8):
    assert build_a6() == a6
    assert build_a8() == a8


def _corrupt(lat, x, y, v):
    odot = [list(row) for row in lat.odot]
    odot[x][y] = v
    odot[y][x] = v
    return dataclasses.replace(lat, odot=tuple(map(bytes, odot)))


def test_corrupted_product_reports_adjointness_with_minimal_witness(a6):
    # change the a.c cell from 0 to a; the first adjunction failure is at
    # x=a, argument c, bound 0
    bad = _corrupt(a6, 1, 3, 1)
    report = validate_axioms(bad)
    assert not report.valid
    found = {v.axiom: v.witness for v in report.violations}
    assert found["adjointness"] == (1, 3, 0)


def test_all_violated_axioms_are_listed(a6):
    odot = [list(row) for row in a6.odot]
    odot[1][3] = 1  # one-sided change also breaks commutativity
    bad = dataclasses.replace(a6, odot=tuple(map(bytes, odot)))
    report = validate_axioms(bad)
    found = {v.axiom: v.witness for v in report.violations}
    assert found["odot-commutative"] == (1, 3)
    assert "adjointness" in found


def test_identity_violation_reported(a6):
    bad = _corrupt(a6, 5, 2, 1)  # 1.b = a
    found = {v.axiom for v in validate_axioms(bad).violations}
    assert "odot-identity" in found


AXIOMS = (
    "leq-reflexive", "leq-antisymmetric", "leq-transitive",
    "bottom-least", "top-greatest", "join-lub", "meet-glb",
    "odot-commutative", "odot-associative", "odot-identity", "odot-bottom",
    "adjointness", "odot-join-distributive", "join-odot-inequality",
)


def _reference_validate(lat):
    """The definitional triple-loop scan, lexicographically first witnesses."""
    n = lat.size
    found = {}

    def hit(axiom, *witness):
        if axiom not in found:
            found[axiom] = witness

    leq = lat.leq
    join, meet, odot, imp = lat.join, lat.meet, lat.odot, lat.imp

    for x in range(n):
        if not leq(x, x):
            hit("leq-reflexive", x)
    for x in range(n):
        for y in range(n):
            if x != y and leq(x, y) and leq(y, x):
                hit("leq-antisymmetric", x, y)
    for x in range(n):
        for y in range(n):
            if not leq(x, y):
                continue
            for z in range(n):
                if leq(y, z) and not leq(x, z):
                    hit("leq-transitive", x, y, z)
    for x in range(n):
        if not leq(lat.bottom, x):
            hit("bottom-least", x)
        if not leq(x, lat.top):
            hit("top-greatest", x)
    for x in range(n):
        for y in range(n):
            j = join[x][y]
            if not (leq(x, j) and leq(y, j)):
                hit("join-lub", x, y)
            else:
                for z in range(n):
                    if leq(x, z) and leq(y, z) and not leq(j, z):
                        hit("join-lub", x, y)
                        break
            m = meet[x][y]
            if not (leq(m, x) and leq(m, y)):
                hit("meet-glb", x, y)
            else:
                for z in range(n):
                    if leq(z, x) and leq(z, y) and not leq(z, m):
                        hit("meet-glb", x, y)
                        break
    for x in range(n):
        for y in range(n):
            if odot[x][y] != odot[y][x]:
                hit("odot-commutative", x, y)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if odot[odot[x][y]][z] != odot[x][odot[y][z]]:
                    hit("odot-associative", x, y, z)
    for x in range(n):
        if odot[lat.top][x] != x:
            hit("odot-identity", x)
        if odot[x][lat.bottom] != lat.bottom:
            hit("odot-bottom", x)
    for x in range(n):
        for a in range(n):
            for y in range(n):
                if leq(odot[x][a], y) != leq(a, imp[x][y]):
                    hit("adjointness", x, a, y)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if odot[x][join[y][z]] != join[odot[x][y]][odot[x][z]]:
                    hit("odot-join-distributive", x, y, z)
                if not leq(odot[join[x][y]][join[x][z]], join[x][odot[y][z]]):
                    hit("join-odot-inequality", x, y, z)

    violations = tuple(Violation(a, found[a]) for a in AXIOMS if a in found)
    return ValidationReport(valid=not violations, violations=violations)


def _mutant(rng, lat):
    """Flip one bit of the order, or overwrite 1-3 cells of one table."""
    n = lat.size
    if rng.random() < 0.25:
        up = list(lat.up)
        up[rng.randrange(n)] ^= 1 << rng.randrange(n)
        return dataclasses.replace(lat, up=tuple(up))
    name = rng.choice(("join", "meet", "odot", "imp"))
    table = [list(row) for row in getattr(lat, name)]
    for _ in range(rng.randint(1, 3)):
        table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return dataclasses.replace(lat, **{name: tuple(map(bytes, table))})


def test_validate_matches_reference_scan(a6, a8, corpus5):
    a8x2 = build_product(a8, build_two_chain())
    bases = (*corpus5, a6, a8, a8x2)
    for lat in bases:
        assert validate_axioms(lat) == _reference_validate(lat), lat
    rng = random.Random(20241018)
    seen = collections.Counter()
    sources = [lat for lat in bases if lat.size >= 2]
    for _ in range(2500):
        bad = _mutant(rng, rng.choice(sources))
        report = validate_axioms(bad)
        assert report == _reference_validate(bad), bad
        seen.update(v.axiom for v in report.violations)
    assert set(seen) == set(AXIOMS)


def test_validate_matches_reference_scan_on_a_36_element_product(a6):
    # rows of 36 bytes and blocks of 1296: past the sizes of the corpus
    a6xa6 = build_product(a6, a6)
    assert validate_axioms(a6xa6) == _reference_validate(a6xa6)
    rng = random.Random(36)
    seen = collections.Counter()
    for _ in range(16):
        bad = _mutant(rng, a6xa6)
        report = validate_axioms(bad)
        assert report == _reference_validate(bad), bad
        seen.update(v.axiom for v in report.violations)
    assert {"odot-associative", "adjointness", "odot-join-distributive"} <= set(seen)


def _corrupt_one_cell(rng, lat):
    """lat with one cell of up, join, meet, odot or imp changed, through
    dataclasses.replace: a bit of an up-mask flipped, or a table entry set
    to another element."""
    n = lat.size
    name = rng.choice(("up", "join", "meet", "odot", "imp"))
    x, y = rng.randrange(n), rng.randrange(n)
    if name == "up":
        up = list(lat.up)
        up[x] ^= 1 << y
        return name, dataclasses.replace(lat, up=tuple(up))
    table = [list(row) for row in getattr(lat, name)]
    table[x][y] = rng.choice([v for v in range(n) if v != table[x][y]])
    return name, dataclasses.replace(lat, **{name: tuple(map(bytes, table))})


# the axioms from which the join-odot inequality follows: the order axioms,
# odot-commutative, odot-identity and odot-join-distributive
INEQUALITY_PREMISES = {*AXIOMS[:7], "odot-commutative", "odot-identity", "odot-join-distributive"}


def _compare_corruptions(sources, draws, seed):
    """draws copies of sources, each with one cell corrupted, whose reports
    must be single_pass_validate's, witnesses and order included, and list
    a premise of the join-odot inequality wherever they list it. Returns
    the counts of each (table corrupted, valid) and of each axiom violated,
    and each (corrupted copy, report)."""
    rng = random.Random(seed)
    seen = collections.Counter()
    results = []
    for _ in range(draws):
        lat = rng.choice(sources)
        name, bad = _corrupt_one_cell(rng, lat)
        assert bad.reduct is not lat.reduct
        assert bad.reduct.up is bad.up and bad.reduct.join is bad.join
        report = validate_axioms(bad)
        assert report == single_pass_validate(bad), (name, bad)
        axioms = {v.axiom for v in report.violations}
        assert "join-odot-inequality" not in axioms or axioms & INEQUALITY_PREMISES, (name, bad)
        seen[name, report.valid] += 1
        seen.update(v.axiom for v in report.violations)
        results.append((bad, report))
    return seen, results


def test_validate_matches_single_pass_oracle(corpus5, corpus7, a6, a8):
    # the order axioms come from the reduct, which the products of one
    # lattice share; the report must be the one-pass scan's, witnesses and
    # order included
    for lat in (*corpus7, a6, a8):
        assert validate_axioms(lat) == single_pass_validate(lat) == lat.validation, lat
    # each source's reduct has derived all it derives before it is
    # corrupted: a corrupted copy that reused it would report the source's
    # order axioms
    sources = [lat for lat in (*corpus5, a6, a8) if lat.size >= 2]
    shared = collections.Counter(id(lat.reduct) for lat in sources)
    assert max(shared.values()) > 1
    seen, _ = _compare_corruptions(sources, 3000, 20261020)
    assert set(AXIOMS) <= set(seen)
    for name in ("up", "join", "meet", "odot", "imp"):
        assert seen[name, False], name


def _row_test_passes(masks, table, x):
    # the order axioms' row test of join-lub (masks = up, table = join) or
    # meet-glb (the down-masks and meet) on row x
    return [masks[v] for v in table[x]] == [masks[x] & m for m in masks]


def test_validate_matches_single_pass_oracle_across_sizes(a6xa8):
    # 48, 30 and 72 elements: row tests with rows before a failing one,
    # and the join-odot inequality's pairs read as codes at each size
    luk30, luk72 = build_lukasiewicz(30), build_lukasiewicz(72)
    seen, results = _compare_corruptions((a6xa8, luk30), 150, 20261021)
    large_seen, _ = _compare_corruptions((luk72,), 10, 20261022)
    later_rows = 0
    for bad, report in results:
        for v in report.violations:
            if v.axiom in ("join-lub", "meet-glb"):
                masks, table = (
                    (bad.up, bad.join) if v.axiom == "join-lub" else (bad.down_masks, bad.meet)
                )
                x = v.witness[0]
                later_rows += any(_row_test_passes(masks, table, r) for r in range(x))
    seen += large_seen
    for name in ("up", "join", "meet", "odot", "imp"):
        assert seen[name, False], name
    assert {"leq-transitive", "join-lub", "meet-glb", "join-odot-inequality"} <= set(seen)
    assert later_rows and large_seen["join-odot-inequality"], (later_rows, large_seen)


# ---------------------------------------------------------------------------
# the list implementations of bounded_lattice_ops and derive_residuum, kept
# as oracles for the byte-row kernels that replaced them


def _reference_bounded_lattice_ops(up):
    n = len(up)
    violations = []
    full = (1 << n) - 1
    bottoms = [x for x in range(n) if up[x] == full]
    down = [mask_of(y for y in range(n) if up[y] >> x & 1) for x in range(n)]
    tops = [x for x in range(n) if down[x] == full]
    if len(bottoms) != 1:
        violations.append(Violation("no-bottom", tuple(bottoms[:2])))
    if len(tops) != 1:
        violations.append(Violation("no-top", tuple(tops[:2])))
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            ubs = up[x] & up[y]
            least = [u for u in bits(ubs) if is_subset(ubs, up[u])]
            if len(least) != 1:
                if x <= y:
                    violations.append(Violation("lub-missing", (x, y)))
                continue
            join[x][y] = least[0]
    for x in range(n):
        for y in range(n):
            lbs = down[x] & down[y]
            greatest = [u for u in bits(lbs) if is_subset(lbs, down[u])]
            if len(greatest) != 1:
                if x <= y:
                    violations.append(Violation("glb-missing", (x, y)))
                continue
            meet[x][y] = greatest[0]
    if violations:
        raise ValidationFailed(
            ValidationReport(False, tuple(violations)), "order is not a bounded lattice"
        )
    return bottoms[0], tops[0], tuple(map(bytes, join)), tuple(map(bytes, meet))


def _reference_derive_residuum(up, join, odot):
    n = len(up)
    imp = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            cand = [a for a in range(n) if up[odot[x][a]] >> y & 1]
            j = cand[0] if cand else None
            if j is None:
                raise ResiduumError(x, y)
            for a in cand[1:]:
                j = join[j][a]
            if not up[odot[x][j]] >> y & 1:
                raise ResiduumError(x, y)
            imp[x][y] = j
    return tuple(map(bytes, imp))


def _outcome(fn, *args):
    """("returned", value), or ("raised", the report or pair of the error)."""
    try:
        return "returned", fn(*args)
    except ValidationFailed as exc:
        return "raised", exc.report
    except ResiduumError as exc:
        return "raised", exc.pair


def _order_defects(up):
    n = len(up)
    leq = [[bool(up[x] >> y & 1) for y in range(n)] for x in range(n)]
    r = range(n)
    if not all(leq[x][x] for x in r):
        yield "non-reflexive"
    if any(leq[x][y] and leq[y][x] for x in r for y in r if x != y):
        yield "non-antisymmetric"
    if any(leq[x][y] and leq[y][z] and not leq[x][z] for x in r for y in r for z in r):
        yield "non-transitive"


def _ops(up):
    """bounded_lattice_ops(up) as the reference's (bottom, top, join, meet)."""
    lattice = bounded_lattice_ops(up)
    return lattice.bottom, lattice.top, lattice.join, lattice.meet


def test_bounded_lattice_ops_matches_reference_scan(corpus6):
    for lat in corpus6:
        assert _ops(lat.up) == _reference_bounded_lattice_ops(lat.up)
    # mutants: one or two bits of the order flipped; where a relation that
    # is not a partial order still yields tables, the residuum of the
    # source lattice's product is compared on them too
    rng = random.Random(20261018)
    seen = collections.Counter()
    for _ in range(1500):
        lat = rng.choice(corpus6)
        n = lat.size
        up = list(lat.up)
        for _ in range(rng.randint(1, 2)):
            up[rng.randrange(n)] ^= 1 << rng.randrange(n)
        got = _outcome(_ops, up)
        assert got == _outcome(_reference_bounded_lattice_ops, up), up
        seen.update((defect, got[0]) for defect in _order_defects(up))
        if got[0] == "raised":
            seen.update(v.axiom for v in got[1].violations)
        elif next(_order_defects(up), None):
            lattice = bounded_lattice_ops(up)
            residuum = _outcome(derive_residuum, lattice, lat.odot)
            assert residuum == _outcome(_reference_derive_residuum, up, lattice.join, lat.odot), up
            seen[("residuum of a non-order", residuum[0])] += 1
    for defect in ("non-antisymmetric", "non-transitive"):
        assert seen[(defect, "returned")] and seen[(defect, "raised")], defect
    for axiom in ("lub-missing", "glb-missing", "no-bottom", "no-top"):
        assert seen[axiom], axiom
    assert seen[("residuum of a non-order", "returned")]
    assert seen[("residuum of a non-order", "raised")]


def _principal(lat, odot, x, y):
    # is {a | odot(x, a) <= y} the principal down-set of some element?
    cand = mask_of(a for a in range(lat.size) if lat.up[odot[x][a]] >> y & 1)
    return cand in lat.down_masks


def test_derive_residuum_matches_reference_fold(corpus6):
    for lat in corpus6:
        derived = derive_residuum(lat.reduct, lat.odot)
        assert derived == _reference_derive_residuum(lat.up, lat.join, lat.odot) == lat.imp
    # mutants: one to three product cells overwritten, symmetrically or not;
    # some leave a candidate set that is not principal but holds its join,
    # which the kernel folds, and some have no residuum.  One in five also
    # has a join cell overwritten, so that the join table is not the
    # order's and no lookup may stand in for the fold.
    rng = random.Random(20261019)
    seen = collections.Counter()
    sources = [lat for lat in corpus6 if lat.size >= 3]
    for _ in range(1500):
        lat = rng.choice(sources)
        n = lat.size
        odot = [list(row) for row in lat.odot]
        for _ in range(rng.randint(1, 3)):
            x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            odot[x][y] = v
            if rng.random() < 0.7:
                odot[y][x] = v
        join = [list(row) for row in lat.join]
        if rng.random() < 0.2:
            join[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        reduct = dataclasses.replace(lat.reduct, join=tuple(map(bytes, join)))
        got = _outcome(derive_residuum, reduct, odot)
        assert got == _outcome(_reference_derive_residuum, lat.up, join, odot), (odot, join)
        if got[0] == "raised":
            seen["not realised"] += 1
        elif all(_principal(lat, odot, x, y) for x in range(n) for y in range(n)):
            seen["principal"] += 1
        else:
            seen["folded"] += 1
    assert set(seen) == {"not realised", "principal", "folded"}


def test_analyses_live_and_die_with_their_lattice(a6):
    # equal lattices parsed separately share nothing: each misses once
    first, second = (load_bundled("a8").lattice for _ in range(2))
    before = prime_spectrum.cache_info()
    spec = prime_spectrum(first)
    assert first == second and prime_spectrum(second) is not spec
    assert prime_spectrum(first) is spec
    after = prime_spectrum.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (2, 1)
    # the analyses are freed with their lattice, by reference counting:
    # none of them points back at it
    kept = [weakref.ref(a) for a in (spec, omega_lattice(first), pure_spectrum(first))]
    gc.disable()
    try:
        del first, spec
        assert [ref() for ref in kept] == [None] * 3
    finally:
        gc.enable()
    # a lattice made by dataclasses.replace starts with an empty memo
    bad = _corrupt(a6, 1, 1, 0)  # a.a = 0: a is no longer idempotent
    assert filter_lattice(bad) is not filter_lattice(a6)
    assert filter_lattice(bad).filters != filter_lattice(a6).filters


# the analyses that products over one reduct share by idempotent_class
SHARED = (
    prime_spectrum,
    skeleton,
    pure_spectrum,
    omega_of_class,
    classify_baer_rickart,
    algebraic_of_class,
    mp_via_spectral,
    mp_via_topology,
    mp_via_purity,
)


def _state(value):
    """A shared analysis as compared: a dict of verdicts by its repr, key
    order included, and anything else by its fields."""
    return repr(value) if isinstance(value, dict) else vars(value)


def test_shared_analyses_equal_their_own_computation(corpus7):
    # a product's shared analyses and verdicts, wherever in its class they
    # were computed, are what each function computes on it
    for lat in corpus7:
        for fn in SHARED:
            assert _state(fn(lat)) == _state(fn.__wrapped__(lat)), (lat, fn.__name__)


def test_shared_analyses_read_nothing_of_odot_beyond_their_key(corpus6):
    # odot set at random outside I x I, the diagonal kept (so I stays):
    # over a fresh reduct, where nothing is shared, each shared analysis
    # comes out as before.  The per-product omega lattice, whose filter
    # test reads odot beyond I x I, fails the same probe, so the probe
    # sees such a read
    rng = random.Random(37)
    omega_fails = 0
    for lat in corpus6:
        idempotents = set(filter_lattice(lat).least.values())
        odot = tuple(
            bytes(
                v if x == y or {x, y} <= idempotents else rng.randrange(lat.size)
                for y, v in enumerate(row)
            )
            for x, row in enumerate(lat.odot)
        )
        probe = over_fresh_reduct(lat, odot=odot)
        assert idempotent_class(probe) == idempotent_class(lat)
        for fn in SHARED:
            assert _state(fn(probe)) == _state(fn(lat)), (lat, fn.__name__)
        try:
            omega_fails += vars(omega_lattice(probe)) != vars(omega_lattice(lat))
        except InternalCheckError:
            omega_fails += 1
    assert omega_fails >= len(corpus6) // 4


def test_shared_analyses_need_one_reduct_and_equal_labels(a6):
    first = over_fresh_reduct(a6)
    same = ResiduatedLattice.over(first.reduct, a6.labels, a6.odot, a6.imp)
    renamed = ResiduatedLattice.over(first.reduct, tuple("uvwxyz"), a6.odot, a6.imp)
    own = [fn(a6) for fn in SHARED]
    before = [fn.cache_info().misses for fn in SHARED]
    for fn, kept in zip(SHARED, own):
        assert fn(same) is fn(first) is not kept
        assert fn(renamed) is not fn(first)
    # computed for first and for renamed; same takes first's
    assert [fn.cache_info().misses - b for fn, b in zip(SHARED, before)] == [2] * len(SHARED)


def test_a_shared_analysis_that_raises_keeps_nothing(monkeypatch, a6):
    lat = over_fresh_reduct(a6)
    monkeypatch.setattr(spectra, "_lattice_prime", lambda lat, e, idempotents: False)
    before = prime_spectrum.cache_info().misses
    for _ in range(2):
        with pytest.raises(InternalCheckError, match="^primality tests disagree on "):
            prime_spectrum(lat)
    assert lat.reduct.analyses == {} and "prime_spectrum" not in lat.__dict__
    assert prime_spectrum.cache_info().misses - before == 2
    monkeypatch.undo()
    assert vars(prime_spectrum(lat)) == vars(prime_spectrum(a6))
    assert list(lat.reduct.analyses) == [("prime_spectrum", idempotent_class(lat))]


def test_dimension_mismatch_is_structural(a6):
    rows = [list(r) for r in a6.odot]
    rows[0] = rows[0][:-1]
    with pytest.raises(StructureError):
        from_tables(
            a6.labels,
            [[a6.leq(i, j) for j in range(6)] for i in range(6)],
            a6.join, a6.meet, rows, a6.imp, a6.bottom, a6.top,
        )


def test_out_of_range_entry_is_structural(a6):
    rows = [list(r) for r in a6.odot]
    rows[2][2] = 17
    with pytest.raises(StructureError):
        from_tables(
            a6.labels,
            [[a6.leq(i, j) for j in range(6)] for i in range(6)],
            a6.join, a6.meet, rows, a6.imp, a6.bottom, a6.top,
        )


def _two_chain_tables(**changes):
    tables = dict(
        labels=("0", "1"), leq=[[1, 1], [0, 1]], join=[[0, 1], [1, 1]],
        meet=[[0, 0], [0, 1]], odot=[[0, 0], [0, 1]], imp=[[1, 1], [0, 1]], bottom=0, top=1,
    )
    tables.update(changes)
    return tables


def test_non_sequence_table_row_is_structural():
    assert from_tables(**_two_chain_tables()).size == 2
    with pytest.raises(StructureError, match=r"^join\[0\]: expected a sequence, got 1$"):
        from_tables(**_two_chain_tables(join=[1, 1]))
    with pytest.raises(StructureError, match=r"^meet\[1\]: expected a sequence, got None$"):
        from_tables(**_two_chain_tables(meet=[[0, 0], None]))
    with pytest.raises(StructureError, match=r"^odot: expected a sequence, got 5$"):
        from_tables(**_two_chain_tables(odot=5))


def test_non_sequence_leq_row_is_structural():
    with pytest.raises(StructureError, match=r"^leq\[0\]: expected a sequence, got 1$"):
        from_tables(**_two_chain_tables(leq=[1, 1]))
    with pytest.raises(StructureError, match=r"^leq\[0\]: expected a sequence, got 1$"):
        from_order(("0", "1"), [1, 1], [[0, 0], [0, 1]])


def test_malformed_carrier_or_order_is_structural():
    with pytest.raises(StructureError, match="^empty carrier$"):
        from_tables(**_two_chain_tables(labels=()))
    with pytest.raises(StructureError, match="^labels are not unique$"):
        from_tables(**_two_chain_tables(labels=("x", "x")))
    with pytest.raises(StructureError, match=r"^leq: expected 2 rows, got 3$"):
        from_tables(**_two_chain_tables(leq=[[1, 1], [0, 1], [0, 1]]))
    with pytest.raises(StructureError, match=r"^leq\[1\]: expected 2 entries, got 1$"):
        from_tables(**_two_chain_tables(leq=[[1, 1], [1]]))


def test_product_without_a_residuum_fails_validation():
    # odot(1, 0) = 1, so no a has odot(1, a) <= 0
    with pytest.raises(ValidationFailed) as exc:
        from_order(("0", "1"), [[1, 1], [0, 1]], [[0, 1], [1, 1]])
    assert str(exc.value) == "no residuum exists for this product: ['residuum-not-realised']"
    assert exc.value.report.violations == (Violation("residuum-not-realised", (1, 0)),)


def test_int_subclass_entries_are_accepted():
    # only plain ints take the one-pass check; the entry scan accepts the rest
    import enum

    Two = enum.IntEnum("Two", {"zero": 0, "one": 1}, start=0)
    leq = [[1, 1], [0, 1]]
    enum_odot = [[Two.zero, Two.zero], [Two.zero, Two.one]]
    lat = from_order(("0", "1"), leq, enum_odot)
    assert lat == from_order(("0", "1"), leq, [[0, 0], [0, 1]])
    assert validate_axioms(lat).valid


def test_bottom_and_top_must_be_element_indices():
    for name, bad in (("top", 1.0), ("bottom", False), ("top", 2), ("bottom", -1)):
        message = rf"^{name}: expected an element index 0\.\.1, got {bad}$"
        with pytest.raises(StructureError, match=message):
            from_tables(**_two_chain_tables(**{name: bad}))


def test_oversized_carrier_is_structural(monkeypatch):
    import reslat.core

    def unreachable(*args):
        raise AssertionError("reached on a carrier over the size limit")

    monkeypatch.setattr(reslat.core, "bounded_lattice_ops", unreachable)
    n = MAX_SIZE + 1
    labels = [str(i) for i in range(n)]
    leq = [[i <= j for j in range(n)] for i in range(n)]
    table = [[min(i, j) for j in range(n)] for i in range(n)]
    with pytest.raises(StructureError, match="at most 256"):
        from_order(labels, leq, table)
    with pytest.raises(StructureError, match="at most 256"):
        from_tables(labels, leq, table, table, table, table, 0, n - 1)


def test_non_lattice_order_is_reported():
    # two incomparable tops
    leq = [
        [True, True, True],
        [False, True, False],
        [False, False, True],
    ]
    with pytest.raises(ValidationFailed) as exc:
        from_order(("0", "x", "y"), leq, [[0] * 3] * 3)
    axioms = {v.axiom for v in exc.value.report.violations}
    assert "no-top" in axioms


def test_residuum_golden_entry(a6):
    # b -> c collects candidates {0, c}
    assert a6.imp[2][3] == 3


def test_residuum_rows_forced_by_unit_and_zero(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        for x in range(lat.size):
            assert lat.imp[lat.top][x] == x
            assert lat.imp[lat.bottom][x] == lat.top


def _is_table(table, n):
    return type(table) is tuple and len(table) == n and all(
        type(row) is bytes and len(row) == n for row in table
    )


def test_every_builder_gives_tuples_of_bytes_rows(a6):
    # the one table format: each builder converts what it is given, and
    # every table a lattice holds is a tuple of n bytes rows of length n
    names = ("join", "meet", "odot", "imp")
    leq = [[a6.leq(i, j) for j in range(6)] for i in range(6)]
    lists = {name: [list(row) for row in getattr(a6, name)] for name in names}
    lattices = [
        from_tables(a6.labels, leq, **lists, bottom=a6.bottom, top=a6.top),
        from_order(a6.labels, leq, lists["odot"]),
        from_order(a6.labels, leq, lists["odot"], lists["imp"]),
        load_bundled("a6").lattice,
        quotient(a6, mask(a6, "d 1")),
        *enumerate_residuated(5, workers=1),
        *enumerate_residuated(5, workers=2),
    ]
    for lat in lattices:
        assert all(_is_table(getattr(lat, name), lat.size) for name in names), lat
        assert all(_is_table(getattr(lat.reduct, name), lat.size) for name in names[:2]), lat
    ops = bounded_lattice_ops(a6.up)
    assert _is_table(ops.join, 6) and _is_table(ops.meet, 6)
    assert _is_table(derive_residuum(ops, lists["odot"]), 6)


def test_residuum_round_trip(a6, a8):
    for lat in (a6, a8):
        derived = derive_residuum(lat.reduct, lat.odot)
        assert derived == lat.imp


def test_negation_golden(a6):
    assert negation(a6, 1) == 3  # ~a = c
    assert negation(a6, a6.top) == a6.bottom
    assert negation(a6, a6.bottom) == a6.top


def test_boolean_center_golden(a6):
    assert boolean_center(a6) == mask(a6, "0 1")


def test_boolean_center_of_boolean_algebra_is_everything():
    b4 = build_boolean4()
    assert boolean_center(b4) == b4.full_mask


def test_boolean_center_of_chains_is_bounds():
    for n in (3, 4, 5):
        chain = build_chain(n)
        assert boolean_center(chain) == 1 | 1 << chain.top


def test_derived_laws_hold_everywhere(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        n = lat.size
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    j = lat.join[y][z]
                    assert lat.odot[x][j] == lat.join[lat.odot[x][y]][lat.odot[x][z]]
                    lhs = lat.odot[lat.join[x][y]][lat.join[x][z]]
                    assert lat.leq(lhs, lat.join[x][lat.odot[y][z]])


def test_central_elements_have_clopen_hulls(a6, a8, corpus4):
    for lat in (a6, a8, *corpus4):
        dual = hull_kernel_topology(lat, "spec", "dual")
        for e in bits(boolean_center(lat)):
            h = hull(lat, 1 << e)
            assert dual.is_open(h) and dual.is_closed(h)


def _check_table_by_entries(name, table, n):
    # the entry-by-entry scan that names the first malformed row or entry
    if len(table) != n:
        raise StructureError(f"{name}: expected {n} rows, got {len(table)}")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise StructureError(f"{name}[{i}]: expected {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise StructureError(f"{name}[{i}][{j}]: entry {v!r} out of range 0..{n - 1}")
        rows.append(bytes(row))
    return tuple(rows)


def test_check_table_matches_entry_scan(a6):
    from reslat.core import _check_table

    def outcome(check, table):
        try:
            return check("odot", table, 6)
        except StructureError as exc:
            return str(exc)

    def mutated(i, j, v):
        rows = [list(r) for r in a6.odot]
        rows[i][j] = v
        return rows

    short_row = [list(r) for r in a6.odot]
    short_row[3] = short_row[3][:-1]
    bytes_row = [list(r) for r in a6.odot]
    bytes_row[4] = bytes(bytes_row[4])
    tables = [
        a6.odot,
        [list(r) for r in a6.odot],
        bytes_row,
        [list(r) for r in a6.odot[:-1]],
        short_row,
        mutated(2, 4, True),
        mutated(1, 0, False),
        mutated(5, 5, -1),
        mutated(0, 3, 6),
        mutated(4, 1, 2.0),
        mutated(3, 3, "a"),
        mutated(1, 2, None),
        mutated(2, 2, 1.5) + [],
    ]
    # past a byte: bytes() of these raises ValueError or OverflowError
    for bad_cell in ((0, 0), (5, 5), (2, 3)):
        for v in (True, -1, 6, 1.0, 256, 300, 2**70):
            tables.append(mutated(*bad_cell, v))
    leq = [[a6.leq(i, j) for j in range(6)] for i in range(6)]
    builders = (
        lambda t: from_tables(a6.labels, leq, a6.join, a6.meet, t, a6.imp, a6.bottom, a6.top),
        lambda t: from_order(a6.labels, leq, t),
    )
    messages = set()
    for table in tables:
        expected = outcome(_check_table_by_entries, table)
        assert outcome(_check_table, table) == expected
        messages.add(expected if isinstance(expected, str) else "valid")
        if isinstance(expected, str):
            for build in builders:
                with pytest.raises(StructureError) as exc:
                    build(table)
                assert str(exc.value) == expected
    assert "valid" in messages and len(messages) > 10


def _closure_by_composition(rows):
    # R, then R | R.R, until nothing new appears
    n = len(rows)
    pairs = {(i, j) for i in range(n) for j in bits(rows[i])}
    while True:
        more = pairs | {(i, k) for i, j in pairs for k in bits(rows[j])}
        if more == pairs:
            return tuple(sum(1 << j for a, j in pairs if a == i) for i in range(n))
        pairs = more


def test_transitive_closure_matches_composition():
    from reslat.core import transitive_closure

    rng = random.Random(20221)
    for _ in range(500):
        n = rng.randint(0, 12)
        density = rng.random() / 2
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        assert transitive_closure(rows) == _closure_by_composition(rows)


def _cover_pairs_by_scan(up):
    # the triple scan the mask helper replaced, in its emission order
    n = len(up)
    return [
        (i, j)
        for i in range(n)
        for j in bits(up[i] & ~(1 << i))
        if not any(k != i and k != j and up[i] >> k & 1 and up[k] >> j & 1 for k in range(n))
    ]


def test_cover_pairs_match_triple_scan(corpus5, a6, a8):
    from reslat.core import cover_pairs
    from reslat.spectra import prime_spectrum

    for lat in (*corpus5, a6, a8):
        assert cover_pairs(lat.up) == _cover_pairs_by_scan(lat.up)
        above = prime_spectrum(lat).above
        assert cover_pairs(above) == _cover_pairs_by_scan(above)
