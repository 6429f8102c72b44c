"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from importlib import resources

from reslat import bits, boolean_center
from reslat.coann import coannulet
from reslat.filters import all_filters, filter_join, is_domain, quotient
from reslat.mp import mp_check
from reslat.purity import pure_part, pure_spectrum
from reslat.spectra import (
    generalization,
    hull,
    hull_kernel_topology,
    kernel,
    prime_spectrum,
    separation_check,
)
from reslat.enumerator import enumerate_residuated

from oracles import (
    brute_closure,
    brute_hausdorff,
    brute_normal,
    closure,
    dual_closed_sets,
    full_canonical_key,
    naive_residuated,
    open_sets,
    pure_envelope,
)


def _bundled_path(name: str) -> str:
    return str(resources.files("reslat.data").joinpath(f"{name}.json"))


def _cli(args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "reslat", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=540,
    )


A6_FILTERS = {
    frozenset("1"),
    frozenset({"a", "b", "d", "1"}),
    frozenset({"c", "d", "1"}),
    frozenset({"d", "1"}),
    frozenset({"0", "a", "b", "c", "d", "1"}),
}
A8_FILTERS = {
    frozenset("1"),
    frozenset({"a", "c", "d", "e", "f", "1"}),
    frozenset({"c", "e", "1"}),
    frozenset({"f", "1"}),
    frozenset({"0", "a", "b", "c", "d", "e", "f", "1"}),
}


def test_criterion_1_golden_tables():
    start = time.perf_counter()
    results = {}
    for name in ("a6", "a8"):
        out = subprocess.run(
            [sys.executable, "-m", "reslat", "analyze", _bundled_path(name), "--json"],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0
        results[name] = json.loads(out.stdout)
    elapsed = time.perf_counter() - start

    a6 = results["a6"]
    assert {frozenset(f) for f in a6["filters"]} == A6_FILTERS
    assert {frozenset(f) for f in a6["maximal"]} == {
        frozenset({"a", "b", "d", "1"}), frozenset({"c", "d", "1"}),
    }
    assert {frozenset(f) for f in a6["minimal"]} == {frozenset({"1"})}

    a8 = results["a8"]
    assert {frozenset(f) for f in a8["filters"]} == A8_FILTERS
    assert {frozenset(f) for f in a8["maximal"]} == {
        frozenset({"a", "c", "d", "e", "f", "1"}),
    }
    assert {frozenset(f) for f in a8["minimal"]} == {
        frozenset({"c", "e", "1"}), frozenset({"f", "1"}),
    }
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\ncriterion 1: PASS - golden filter families and Max/Min rows ({elapsed:.2f}s)")


def test_criterion_2_mp_verdicts(a6, a8):
    start = time.perf_counter()
    r6 = mp_check(a6)
    r8 = mp_check(a8)
    elapsed = time.perf_counter() - start
    assert r6.agree and r6.final is True
    assert r8.agree and r8.final is False
    mp6 = _cli(["mp", _bundled_path("a6")])
    mp8 = _cli(["mp", _bundled_path("a8")])
    assert mp6.returncode == 0 and "mp: true" in mp6.stdout
    assert mp8.returncode == 3 and "mp: false" in mp8.stdout
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\ncriterion 2: PASS - mp true/false with all families agreeing ({elapsed:.2f}s)")


def test_criterion_3_meta_theorem_agreement():
    start = time.perf_counter()
    count = 0
    for n in range(1, 6):
        for lat in enumerate_residuated(n, workers=1):
            report = mp_check(lat)  # raises on any disagreement
            assert report.agree
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 37
    assert elapsed < 600, f"took {elapsed:.1f}s"
    print(f"\ncriterion 3: PASS - all {count} lattices of order <= 5 agree ({elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence():
    for n in range(1, 5):
        fast = sorted(full_canonical_key(l) for l in enumerate_residuated(n, workers=1))
        naive = sorted(full_canonical_key(l) for l in naive_residuated(n))
        assert fast == naive, f"order {n}"
    assert len(naive_residuated(3)) == 2
    print("\ncriterion 4: PASS - enumerator matches the brute-force oracle up to order 4")


def test_criterion_5_pure_core_dual_definition(corpus5):
    checked = 0
    for lat in corpus5:
        for f in all_filters(lat):
            via_primes = kernel(lat, generalization(lat, hull(lat, f)))
            elementwise = 0
            for a in range(lat.size):
                if filter_join(lat, f, coannulet(lat, a)) == lat.full_mask:
                    elementwise |= 1 << a
            assert via_primes == elementwise
            checked += 1
    print(f"\ncriterion 5: PASS - pure-core routes coincide on {checked} filters")


def test_criterion_6_topology_engine(corpus5):
    spaces = 0
    for lat in corpus5:
        spec = prime_spectrum(lat)
        assert len(spec) <= 12
        for space in ("spec", "min"):
            for variant in ("hull", "dual", "patch"):
                top = hull_kernel_topology(lat, space, variant)
                sep = separation_check(top)
                assert sep.hausdorff == brute_hausdorff(top)
                assert sep.normal == brute_normal(top)
                for subset in range(1 << len(top)):
                    assert closure(top, subset) == brute_closure(top, subset)
                spaces += 1
        for i in range(len(spec)):
            for j in range(len(spec)):
                contained = bool(spec.above[i] >> j & 1)
                h = hull_kernel_topology(lat, "spec", "hull")
                d = hull_kernel_topology(lat, "spec", "dual")
                assert contained == bool(closure(h, 1 << i) >> j & 1)
                assert contained == bool(closure(d, 1 << j) >> i & 1)
    print(f"\ncriterion 6: PASS - {spaces} spaces match brute-force topology")


def test_criterion_7_structure_theorems(corpus5):
    one_of = lambda lat: 1 << lat.top
    mp_count = 0
    for lat in corpus5:
        report = mp_check(lat)
        spec = prime_spectrum(lat)
        ps = pure_spectrum(lat)
        one = one_of(lat)

        # every lattice: quotient by F is a domain iff F is prime
        for f in all_filters(lat):
            assert is_domain(quotient(lat, f))[0] == (f in spec.index)
        # every lattice: the pure parts of the maximal filters meet in one
        inter = lat.full_mask
        for i in spec.maximal:
            inter &= pure_part(lat, spec.primes[i])
        assert inter == one
        # every lattice: distinct pure primes are comaximal
        pure_primes = [p for p in spec.primes if p in set(ps.pure)]
        for i, p in enumerate(pure_primes):
            for q in pure_primes[i + 1:]:
                assert filter_join(lat, p, q) == lat.full_mask

        if not report.final:
            continue
        mp_count += 1
        minimal_mask = spec.minimal_mask

        # proper pure filters interpolate through the minimal primes above them
        for f in ps.pure:
            if f == lat.full_mask:
                continue
            assert f == kernel(lat, hull(lat, f) & minimal_mask)
        # pure filters are exactly the kernels of minimal primes in closed sets
        closed_form = {
            kernel(lat, c & minimal_mask) for c in dual_closed_sets(lat)
        } | {lat.full_mask}
        assert set(ps.pure) == closed_form
        # and exactly the meets of pure parts of maximals over the hull of a filter
        envelope_form = set()
        for f in all_filters(lat):
            inter = lat.full_mask
            for i in spec.maximal:
                if not f & ~spec.primes[i]:
                    inter &= pure_part(lat, spec.primes[i])
            envelope_form.add(inter)
        assert set(ps.pure) == envelope_form
        # the coannulet of an element meets its envelope in one
        for a in range(lat.size):
            assert coannulet(lat, a) & pure_envelope(lat, a) == one
        # each minimal prime is the join of the envelopes of its members
        for i in spec.minimal:
            m = spec.primes[i]
            joined = one
            for a in bits(m):
                joined = filter_join(lat, joined, pure_envelope(lat, a))
            assert joined == m
        # purely-prime filters are purely-maximal
        assert set(ps.purely_prime) <= set(ps.purely_maximal)
        # the pure spectrum is Hausdorff
        assert separation_check(ps.topology).hausdorff
        # clopens of the minimal spectrum are traces of central hulls
        min_top = hull_kernel_topology(lat, "min", "dual")
        clopen = {u for u in open_sets(min_top) if min_top.is_closed(u)}
        central = set()
        for e in bits(boolean_center(lat)):
            central.add(
                sum(
                    1 << k
                    for k, i in enumerate(spec.minimal)
                    if spec.primes[i] >> e & 1
                )
            )
        assert clopen == central
    print(f"\ncriterion 7: PASS - structure theorems hold ({mp_count} mp lattices)")


def test_criterion_8_enumeration_determinism():
    runs = [
        _cli(["enumerate", "--size", "5"], {"RESLAT_THREADS": w})
        for w in ("1", "3")
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.splitlines()) == 26
    print("\ncriterion 8: PASS - enumeration output is byte-identical across worker counts")
