from __future__ import annotations

import collections
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import random
import sys

import pytest

from reslat import (
    ContractError,
    InternalCheckError,
    ResiduumError,
    ValidationFailed,
    ValidationReport,
    Violation,
    core,
    enumerator,
    spectra,
    validate_axioms,
)
from reslat.core import bounded_lattice_ops
from reslat.enumerator import (
    bounded_lattices,
    census,
    enumerate_documents,
    enumerate_residuated,
    lattice_automorphisms,
    lattice_canonical,
    residuated_products,
    worker_count,
)
from reslat.filters import idempotent_class
from reslat.latfile import to_document_dict

from oracles import (
    canonical_by_full_scan,
    full_canonical_key,
    naive_bounded_orders,
    naive_residuated,
    two_sided_pairs_ok,
)

# unlabeled bounded lattice counts for orders 1..8 (OEIS A006966); the
# order-5 value also follows by hand: the chain, both kites, the diamond
# and the pentagon
LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}

# residuated lattice counts for orders 1..6 (Bělohlávek & Vychodil,
# "Residuated lattices of size <= 12", Order 27, 2010)
RESIDUATED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 7, 5: 26, 6: 129}


def test_lattice_counts():
    for n, expected in LATTICE_COUNTS.items():
        assert len(bounded_lattices(n)) == expected
    # the order-8 representatives themselves, as the full relabeling scan
    # gave them
    rows = json.dumps(bounded_lattices(8), separators=(",", ":")).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "8e1854484af717d0be543a94efb1781d4f48fb0e5ceeaa6d65f49f598c96b39e"
    )


def test_generated_orders_are_lattices():
    for n in range(1, 7):
        for up in bounded_lattices(n):
            lattice = bounded_lattice_ops(up)
            assert lattice.bottom == 0 and lattice.top == n - 1


def _relabelings(up):
    """up relabeled by every permutation fixing bottom 0 and top n-1."""
    n = len(up)
    for perm in itertools.permutations(range(1, n - 1)):
        full = (0,) + perm + (n - 1,)
        yield tuple(
            sum(1 << full[j] for j in range(n) if up[i] >> j & 1)
            for i in [full.index(k) for k in range(n)]
        )


def test_lattice_canonical_is_idempotent_and_invariant():
    for n in range(1, 8):
        for up in bounded_lattices(n):
            assert lattice_canonical(up) == up == canonical_by_full_scan(up), up
            if n <= 6:
                for relabeled in _relabelings(up):
                    assert lattice_canonical(relabeled) == up, relabeled


def _reverse_linear(up):
    """True iff every middle element has a larger index than the middle
    elements above it."""
    n = len(up)
    return all(not up[x] >> y & 1 for x in range(1, n - 1) for y in range(x + 1, n - 1))


def test_canonical_labels_list_higher_elements_first():
    # the theorem in lattice_canonical's docstring, which residuated_products
    # relies on; the 4-chain labeled bottom up is not so labeled
    for n in range(1, 8):
        for up in bounded_lattices(n):
            assert _reverse_linear(up), up
    assert not _reverse_linear((0b1111, 0b1110, 0b1100, 0b1000))


def test_canonical_form_once_per_leaf(monkeypatch):
    # every generated lattice is canonicalized: 320 leaves make the 53
    # classes of order 7, over the 7 subtrees below depth 4, and the split
    # adds no call
    calls, jobs = [], []
    monkeypatch.setattr(
        enumerator, "lattice_canonical", lambda up: calls.append(up) or lattice_canonical(up)
    )
    grow = enumerator._grow
    monkeypatch.setattr(enumerator, "_grow", lambda job: jobs.append(job) or grow(job))
    assert len(enumerator.bounded_lattices(7)) == 53
    assert len(calls) == 320
    assert [(len(prefix), stop) for _, prefix, stop in jobs] == [(1, 4)] + [(4, 7)] * 7


def test_generation_does_not_depend_on_the_worker_count():
    # the subtrees below depth 4 run in a pool; the union of their leaves,
    # sorted, is the output at one worker, also at the orders below the split
    for n in range(1, 8):
        with enumerator._mapper(2) as run:
            assert bounded_lattices(n, run) == bounded_lattices(n), n


def _automorphisms_by_full_scan(up):
    n = len(up)
    perms = [tuple(range(n))] if n <= 2 else [
        (0,) + mid + (n - 1,) for mid in itertools.permutations(range(1, n - 1))
    ]
    out = []
    for perm in perms:
        image = [0] * n
        for x in range(n):
            image[perm[x]] = sum(1 << perm[y] for y in range(n) if up[x] >> y & 1)
        if tuple(image) == up:
            out.append(perm)
    return tuple(out)


def test_automorphisms_match_full_scan():
    for n in range(1, 8):
        for up in bounded_lattices(n):
            assert lattice_automorphisms(up) == _automorphisms_by_full_scan(up), up
    # on any labeling, not only the canonical one: residuated_products
    # takes every reverse-linear one
    labelings = 0
    for n in range(1, 7):
        for up in bounded_lattices(n):
            for relabeled in set(filter(_reverse_linear, _relabelings(up))):
                labelings += 1
                auts = lattice_automorphisms(relabeled)
                assert auts == _automorphisms_by_full_scan(relabeled), relabeled
    assert labelings == 1 + 1 + 1 + 2 + 7 + 39


def test_naive_order_scan_agrees():
    for n in range(1, 5):
        seen = {lattice_canonical_from_any(up) for up in naive_bounded_orders(n)}
        assert len(seen) == len(bounded_lattices(n))


def lattice_canonical_from_any(up):
    # bring an arbitrary labeled order to bottom-first form, then canonicalize
    n = len(up)
    lattice = bounded_lattice_ops(up)
    bottom, top = lattice.bottom, lattice.top
    rest = [i for i in range(n) if i not in (bottom, top)]
    order = [bottom] + rest + ([top] if n > 1 else [])
    new_of = {old: new for new, old in enumerate(order)}
    rows = tuple(
        sum(1 << new_of[j] for j in range(n) if up[order[i]] >> j & 1)
        for i in range(n)
    )
    return lattice_canonical(rows)


def test_three_chain_has_two_products():
    assert len(naive_residuated(3)) == 2
    assert len(enumerate_residuated(3, workers=1)) == 2


def test_two_chain_product_is_forced():
    assert len(enumerate_residuated(2, workers=1)) == 1
    assert len(naive_residuated(1)) == 1


def test_oracle_equivalence_up_to_four():
    for n in range(1, 5):
        fast = {full_canonical_key(lat) for lat in enumerate_residuated(n, workers=1)}
        naive = {full_canonical_key(lat) for lat in naive_residuated(n)}
        assert fast == naive


def test_everything_emitted_is_valid(corpus5):
    for lat in corpus5:
        assert validate_axioms(lat).valid
        assert lat.bottom == 0 and lat.top == lat.size - 1


def test_isomorph_freeness(corpus5):
    keys = [full_canonical_key(lat) for lat in corpus5]
    assert len(keys) == len(set(keys))


def test_worked_example_appears_at_order_six(a6):
    target = full_canonical_key(a6)
    assert any(
        full_canonical_key(lat) == target
        for lat in enumerate_residuated(6, workers=1)
    )


def test_enumeration_is_deterministic():
    first = [lat.odot for lat in enumerate_residuated(5, workers=1)]
    second = [lat.odot for lat in enumerate_residuated(5, workers=1)]
    parallel = [lat.odot for lat in enumerate_residuated(5, workers=2)]
    assert first == second == parallel


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("RESLAT_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("RESLAT_THREADS")
    assert worker_count(2) == 2
    assert worker_count() >= 1


def _recorded_pools(monkeypatch) -> list[list[int]]:
    """Each pool the enumerator makes from now on: its size, then the
    number of tasks of each map sent to it.  Each maps in-process, so no
    process starts."""
    asked = []

    class Pool:
        def __init__(self, max_workers):
            self.record = [max_workers]
            asked.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            self.record.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(enumerator, "ProcessPoolExecutor", Pool)
    return asked


def test_worker_count_is_clamped(monkeypatch):
    assert worker_count(10**9) == enumerator.MAX_WORKERS
    assert worker_count(0) == worker_count(-3) == 1
    asked = _recorded_pools(monkeypatch)
    monkeypatch.setenv("RESLAT_THREADS", str(10**9))
    assert len(enumerate_residuated(7)) == 723
    assert [pool[0] for pool in asked] == [enumerator.MAX_WORKERS]


def test_order_cap():
    with pytest.raises(ContractError):
        bounded_lattices(9)
    with pytest.raises(ContractError):
        naive_residuated(5)


def test_order_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(enumerator, "DEFAULT_CAP", 3)
    assert len(bounded_lattices(3)) == 1
    with pytest.raises(ContractError, match="between 1 and 3"):
        bounded_lattices(4)


def test_census_golden_rows():
    rows = census(4, workers=1)
    by_order = {r.order: r for r in rows}
    assert by_order[2].residuated == 1
    assert by_order[2].mp == 1
    assert by_order[2].domains == 1
    assert by_order[3].residuated == 2
    assert by_order[3].mp == 2
    assert by_order[4].residuated == len(naive_residuated(4))
    assert by_order[1].lattices == 1


def test_automorphism_groups():
    for up in bounded_lattices(5):
        auts = lattice_automorphisms(up)
        assert tuple(range(len(up))) in auts
        # products per lattice are canonical under exactly these symmetries
        for tab in residuated_products(bounded_lattice_ops(up)):
            flats = set()
            n = len(up)
            for perm in auts:
                inv = [0] * n
                for a, p in enumerate(perm):
                    inv[p] = a
                flats.add(
                    tuple(perm[tab[inv[x]][inv[y]]] for x in range(n) for y in range(n))
                )
            assert min(flats) == tuple(v for row in tab for v in row)


def test_build_rejects_a_product_without_residuum():
    # on the square 0 < a, b < 1 the meet is residuated; with a.a = 0 the
    # elements x with a.x <= 0 are 0, a and b, but a.(a v b) = a
    up = next(u for u in bounded_lattices(4) if not u[1] >> 2 & 1 and not u[2] >> 1 & 1)
    lattice = bounded_lattice_ops(up)
    meet = tuple(map(bytes, ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))))
    assert enumerator._build(lattice, meet).odot == meet
    broken = tuple(map(bytes, ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 2, 2), (0, 1, 2, 3))))
    with pytest.raises(InternalCheckError, match=r"no residuum: residuum not realised at \(1, 0\)"):
        enumerator._build(lattice, broken)


def test_build_rejects_a_residuated_product_that_is_not_associative():
    # on the chain 0 < b < a < 1 with b.b = 0 and a.b = a.a = b the product
    # is monotone, so it has a residuum, but (a.a).b = 0 and a.(a.b) = b
    up = (0b1111, 0b1110, 0b1100, 0b1000)
    odot = tuple(map(bytes, ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 1, 2), (0, 1, 2, 3))))
    with pytest.raises(InternalCheckError, match="fails validation: .*odot-associative"):
        enumerator._build(bounded_lattice_ops(up), odot)


def test_lattice_tables_made_and_checked_once_per_lattice(monkeypatch):
    # one BoundedLattice per lattice, from one bounded_lattice_ops call, is
    # the reduct of each of its products, so the order axioms are checked
    # once per lattice with a product, 18 of the 53, not once per product;
    # no table is re-checked per product, since the search and
    # derive_residuum both give Tables of in-range bytes rows, and validation
    # follows in full
    ops_calls, checked = [], collections.Counter()
    real_ops, real_check = bounded_lattice_ops, core._check_table

    def check(name, table, n):
        checked[name] += 1
        return real_check(name, table, n)

    monkeypatch.setattr(
        enumerator, "bounded_lattice_ops", lambda up: ops_calls.append(up) or real_ops(up)
    )
    for module in (core, enumerator):
        monkeypatch.setattr(module, "_check_table", check, raising=False)
    lattices = enumerate_residuated(7, workers=1)
    assert len(lattices) == 723
    assert all(lat.validation is core._VALID for lat in lattices)
    assert len(ops_calls) == 53
    # order_violations is a cached property: checked once per reduct
    reducts = {id(lat.reduct): lat.reduct for lat in lattices}.values()
    assert len(reducts) == len({lat.up for lat in lattices}) == 18
    assert all("order_violations" in reduct.__dict__ for reduct in reducts)
    assert checked == {}


def _reducts_by_lattice(lattices):
    """The set of reduct objects of each order among the lattices, after
    checking that each reduct holds its lattice's own table objects."""
    found = collections.defaultdict(set)
    for lat in lattices:
        reduct = lat.reduct
        assert (reduct.up, reduct.join, reduct.meet) == (lat.up, lat.join, lat.meet)
        assert reduct.up is lat.up and reduct.join is lat.join and reduct.meet is lat.meet
        found[lat.up].add(id(reduct))
    return found


def test_products_of_one_lattice_share_one_reduct():
    # in-process, every product of a lattice carries the one object; 7 of
    # the 15 lattices of order 6 have products
    lattices = bounded_lattices(6)
    found = _reducts_by_lattice(enumerate_residuated(6, workers=1))
    assert len(found) == 7
    assert all(len(ids) == 1 for ids in found.values())
    # in a pool, one object per lattice in each chunk: a chunk comes back as
    # one pickle, which holds each object once
    with enumerator._mapper(2) as run:
        chunks = list(enumerator._per_product(lattices, run, 2, enumerator._build_chunk))
    assert sum(map(len, chunks)) == 129 and len(chunks) > 1
    for chunk in chunks:
        assert all(len(ids) == 1 for ids in _reducts_by_lattice(chunk).values())


def test_document_lines_are_named_across_chunk_boundaries():
    # the workers write each line, named by its chunk's start index plus its
    # place in the chunk; every order from 4 on has a chunk boundary between
    # two products of one lattice at 1 and 2 workers, so an off-by-one start,
    # or a start counted per lattice, gives another name (order 3's two
    # products make one chunk, fewer than SEARCH_BATCH)
    for n in range(1, 7):
        built = enumerate_residuated(n, workers=1)
        expected = [
            json.dumps(to_document_dict(lat, f"R{n}_{i}"), sort_keys=True, separators=(",", ":"))
            for i, lat in enumerate(built)
        ]
        for workers in (1, 2):
            texts = list(enumerate_documents(n, workers))
            assert [line for text in texts for line in text.split("\n")[:-1]] == expected
            assert all(text.endswith("\n") for text in texts)
            ends = list(itertools.accumulate(text.count("\n") for text in texts))[:-1]
            inside = [b for b in ends if built[b - 1].up == built[b].up]
            assert inside or n < 4, (n, workers, ends)


def test_converse_matches_the_double_loop():
    # rows may be narrower than n, as the growing down-set prefix is
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(1, 12)
        masks = [rng.getrandbits(rng.randint(0, n)) for _ in range(n)]
        expected = [sum(1 << y for y in range(n) if masks[y] >> x & 1) for x in range(n)]
        assert core._converse(masks, n) == expected, masks
        # zero rows, as for a lattice with no primes
        assert core._converse([], n) == [0] * n


def test_residuated_counts():
    for n, expected in RESIDUATED_COUNTS.items():
        assert sum(
            len(residuated_products(bounded_lattice_ops(up))) for up in bounded_lattices(n)
        ) == expected


def _full_prefix_search(up):
    """Reference product search: after each new cell, rescan every
    monotonicity, associativity and distributivity instance of the whole
    filled prefix, O(n^3) per candidate value.  Cell order and the
    automorphism pruning at each row's end are those of
    residuated_products.  As the reference it keeps the per-row end
    columns (row_end) and a canonical test at every leaf, both of which
    residuated_products drops: every row ends at column n - 2, and the
    last row's pruning already keeps only the least table of each orbit.
    Returns the tables and the (i, j, v, verdict) of every check made.
    """
    n = len(up)
    lattice = bounded_lattice_ops(up)
    bottom, top, join, meet = lattice.bottom, lattice.top, lattice.join, lattice.meet
    auts = lattice_automorphisms(up)
    cells = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    row_end = {i: max(j for k, j in cells if k == i) for i, _ in cells} if cells else {}
    table = {}

    def get(x, y):
        if x == bottom or y == bottom:
            return bottom
        if x == top:
            return y
        if y == top:
            return x
        return table.get((x, y) if x <= y else (y, x))

    def leq(x, y):
        return bool(up[x] >> y & 1)

    def consistent(i, j, v):
        for a in range(n):
            for b in range(n):
                w = get(a, b)
                if w is None:
                    continue
                if leq(a, i) and leq(b, j) and not leq(w, v):
                    return False
                if leq(i, a) and leq(j, b) and not leq(v, w):
                    return False
        for x in range(n):
            for y in range(n):
                txy = get(x, y)
                for z in range(n):
                    tyz = get(y, z)
                    l = get(txy, z) if txy is not None else None
                    r = get(x, tyz) if tyz is not None else None
                    if l is not None and r is not None and l != r:
                        return False
                    txz = get(x, z)
                    if txy is not None and txz is not None:
                        t = get(x, join[y][z])
                        if t is not None and t != join[txy][txz]:
                            return False
        return True

    def relabeled(perm, upto):
        inv = [0] * n
        for a, p in enumerate(perm):
            inv[p] = a
        out = []
        for x, y in cells[: upto + 1]:
            w = get(inv[x], inv[y])
            if w is None:
                return None
            out.append(perm[w])
        return tuple(out)

    def dominated(ci, i):
        filled = set(range(1, i + 1))
        cur = tuple(table[c] for c in cells[: ci + 1])
        for perm in auts:
            if perm == tuple(range(n)) or {perm[x] for x in filled} != filled:
                continue
            rel = relabeled(perm, ci)
            if rel is not None and rel < cur:
                return True
        return False

    def canonical(tab):
        best = None
        for perm in auts:
            inv = [0] * n
            for a, p in enumerate(perm):
                inv[p] = a
            cand = tuple(perm[tab[inv[x]][inv[y]]] for x in range(n) for y in range(n))
            if best is None or cand < best:
                best = cand
        return best

    results, checks = [], []

    def fill(ci):
        if ci == len(cells):
            tab = tuple(bytes(get(x, y) for y in range(n)) for x in range(n))
            if canonical(tab) == tuple(v for row in tab for v in row):
                results.append(tab)
            return
        i, j = cells[ci]
        for v in range(n):
            if not leq(v, meet[i][j]):
                continue
            table[(i, j)] = v
            checks.append((i, j, v, consistent(i, j, v)))
            if checks[-1][3]:
                if j != row_end.get(i) or not dominated(ci, i):
                    fill(ci + 1)
            del table[(i, j)]

    fill(0)
    results.sort(key=lambda tab: tuple(v for row in tab for v in row))
    return tuple(results), checks


def _recorded_returns(outer, inner, record, *args, within=None):
    """outer(*args), and record(locals, verdict) at every return from the
    function named inner nested in within (by default outer), seen through
    a profile hook in this thread."""
    holder = within or outer
    code = next(c for c in holder.__code__.co_consts if getattr(c, "co_name", None) == inner)
    calls = []

    def hook(frame, event, arg):
        if event == "return" and frame.f_code is code:
            calls.append(record(frame.f_locals, arg))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = outer(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def _incremental_search(up):
    """residuated_products(up) and the (i, j, v, verdict) of every call to
    its nested consistent()."""
    return _recorded_returns(
        residuated_products, "consistent", lambda f, verdict: (f["i"], f["j"], f["v"], verdict),
        bounded_lattice_ops(up),
    )


def test_products_match_full_prefix_search():
    # checking only the instances that read the new cell must give the same
    # verdict as a full rescan of the prefix at every node, hence visit the
    # same nodes and emit the same tables
    for n in range(1, 7):
        for up in bounded_lattices(n):
            assert _incremental_search(up) == _full_prefix_search(up), up


def test_cell_index_matches_a_scan_of_the_table():
    # at every call to consistent, at[v] lists each filled cell holding v
    # once, the fixed bottom and top rows and columns included: the cells
    # that a scan of the table finds
    def index_is_scan(f, verdict):
        table, at = f["table"], f["at"]
        scan = [
            [(x, y) for x, row in enumerate(table) for y, w in enumerate(row) if w == v]
            for v in range(len(table))
        ]
        return [sorted(cells) for cells in at] == scan

    checks = [
        agrees
        for n in range(1, 7)
        for up in bounded_lattices(n)
        for agrees in _recorded_returns(
            residuated_products, "consistent", index_is_scan, bounded_lattice_ops(up)
        )[1]
    ]
    assert len(checks) == 2279 and all(checks)


def test_products_on_every_reverse_linear_labeling():
    # residuated_products accepts every labeling that lists higher elements
    # first; on each it must agree with the full rescan node for node and
    # find as many products as on the canonical labels
    labelings = collections.Counter()
    for n in range(1, 7):
        for up in bounded_lattices(n):
            expected = len(residuated_products(bounded_lattice_ops(up)))
            for relabeled in set(filter(_reverse_linear, _relabelings(up))):
                labelings[n] += 1
                search = _incremental_search(relabeled)
                assert search == _full_prefix_search(relabeled), relabeled
                assert len(search[0]) == expected, relabeled
    assert [labelings[n] for n in range(1, 7)] == [1, 1, 1, 2, 7, 39]


def test_products_refuse_a_labeling_with_a_lower_element_first():
    # 1 < 3 < 4 with 1 labeled before 3: without the check the search emits
    # 9 tables here, of which only 3 are residuated lattices
    up = (0b11111, 0b11010, 0b11100, 0b11000, 0b10000)
    with pytest.raises(ContractError, match="larger index"):
        residuated_products(bounded_lattice_ops(up))


def _pair_checks(n):
    """bounded_lattices(n) and the (down-masks of the prefix, verdict) of
    every call to pairs_ok(), nested in _grow, over the search to the split
    depth and every subtree below it, all in-process at one worker."""
    return _recorded_returns(
        bounded_lattices, "pairs_ok", lambda f, verdict: (tuple(f["below"]), verdict), n,
        within=enumerator._grow,
    )


def test_pair_check_matches_two_sided_oracle():
    # the upper-bound test alone cuts exactly the prefixes that the test of
    # both upper and lower bounds cuts, at every node of the search
    verdicts = collections.Counter()
    for n in range(1, 8):
        for below, verdict in _pair_checks(n)[1]:
            assert verdict == two_sided_pairs_ok(below), below
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_search_sizes_at_order_7():
    # nodes visited by lattice generation and by the product search: the
    # sizes of the searches that also test lower bounds, every orientation
    # of every instance and the canonical form of every leaf, which these
    # searches must equal node for node
    _, pairs = _pair_checks(7)
    assert (len(pairs), sum(verdict for _, verdict in pairs)) == (720, 689)
    verdicts = [v for up in bounded_lattices(7) for *_, v in _incremental_search(up)[1]]
    assert (len(verdicts), sum(verdicts)) == (18598, 7940)
    # calls to dominated and their rejections; the last row, 5, rejects none
    rows = [
        row
        for up in bounded_lattices(7)
        for row in _recorded_returns(
            residuated_products, "dominated", lambda f, verdict: (f["i"], verdict),
            bounded_lattice_ops(up),
        )[1]
    ]
    assert (len(rows), sum(v for _, v in rows)) == (2950, 82)
    assert sum(v for i, v in rows if i == 5) == 0


def test_census_opens_one_pool(monkeypatch):
    # every order of the census runs through one pool, made before the
    # first order's lattices are generated
    rows = census(6, workers=1)
    made = _recorded_pools(monkeypatch)
    assert census(6, workers=2) == rows
    assert [pool[0] for pool in made] == [2]


def test_orders_up_to_3_send_no_task_to_the_pool(monkeypatch):
    # every map at orders 1 to 3 has one task, which runs in-process; at
    # order 4 the two product-search batches and the 7 products, in chunks
    # of at least SEARCH_BATCH, are the first maps sent to the pool
    lines = [list(enumerate_documents(n, workers=1)) for n in range(1, 5)]
    made = _recorded_pools(monkeypatch)
    assert [list(enumerate_documents(n, workers=2)) for n in range(1, 5)] == lines
    assert made == [[2], [2], [2], [2, 2, 2]]
    assert census(3, workers=2) == census(3, workers=1)
    assert made[4:] == [[2]]


def test_census_rows_through_order_6():
    # the rows do not depend on the worker count
    rows = census(6, workers=1)
    assert census(6, workers=2) == rows
    columns = {
        "order": [1, 2, 3, 4, 5, 6],
        "lattices": [1, 1, 1, 2, 5, 15],
        "residuated": [1, 1, 2, 7, 26, 129],
        "mp": [1, 1, 2, 7, 25, 126],
        "rickart": [1, 1, 2, 7, 25, 126],
        "baer": [1, 1, 2, 7, 25, 126],
        "domains": [0, 1, 2, 6, 25, 124],
    }
    assert {k: [getattr(r, k) for r in rows] for k in columns} == columns


# ---------------------------------------------------------------------------
# the worker boundary: what a pool worker sends back, and what it runs

# a patch made in the test process reaches the pool workers only through fork
forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patch reaches pool workers only through fork",
)


def test_errors_survive_a_pickle_round_trip(a6):
    from reslat.mp import MpDisagreement, mp_check

    report = ValidationReport(False, (Violation("odot-associative", (1, 2, 3)),))
    errors = [
        (ResiduumError(1, 0), ("pair",)),
        (ValidationFailed(report), ("report",)),
        (ValidationFailed(report, "order is not a bounded lattice"), ("report",)),
        (MpDisagreement(mp_check(a6), '{"size": 6}'), ("report", "lattice_json")),
    ]
    for exc, fields in errors:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert all(getattr(back, f) == getattr(exc, f) for f in fields), exc


@forked_workers
def test_a_failed_build_in_a_worker_names_its_lattice(monkeypatch):
    # an internal error raised by _build in a pool worker carries the
    # lattice's up-mask rows and product rows
    target = enumerate_residuated(6, workers=1)[100]
    parent, derive = os.getpid(), enumerator.derive_residuum

    def failing(lattice, odot):
        if os.getpid() != parent and (lattice.up, odot) == (target.up, target.odot):
            raise ResiduumError(1, 0)
        return derive(lattice, odot)

    monkeypatch.setattr(enumerator, "derive_residuum", failing)
    with pytest.raises(InternalCheckError) as caught:
        enumerate_residuated(6, workers=2)
    message = str(caught.value)
    assert message.startswith("enumerated product has no residuum: ")
    named = message.split("\nlattice: up ")[1]
    up, odot = named.split(", odot ")
    assert tuple(json.loads(up)) == target.up
    assert tuple(map(bytes, json.loads(odot))) == target.odot


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=forked_workers)])
def test_a_failed_classification_in_the_census_names_its_product(monkeypatch, workers):
    # the lattice-wise primality test disagrees on one product of order 6,
    # the first of its class, so no product of the class takes its spectrum
    # from another: the census raises the spectrum's error with that
    # product's up-mask rows and product rows, from a pool worker at 2
    firsts = {}
    for lat in enumerate_residuated(6, workers=1):
        firsts.setdefault((lat.up, idempotent_class(lat)), lat)
    target = list(firsts.values())[-3]
    parent, real = os.getpid(), spectra._lattice_prime

    def disagreeing(lat, e, idempotents):
        in_worker = workers == 1 or os.getpid() != parent
        wrong = in_worker and (lat.up, lat.odot) == (target.up, target.odot)
        return real(lat, e, idempotents) != wrong

    monkeypatch.setattr(spectra, "_lattice_prime", disagreeing)
    with pytest.raises(InternalCheckError) as caught:
        census(6, workers=workers)
    message = str(caught.value)
    assert message.startswith("primality tests disagree on ")
    up, odot = message.split("\nlattice: up ")[1].split(", odot ")
    assert tuple(json.loads(up)) == target.up
    assert tuple(map(bytes, json.loads(odot))) == target.odot


def test_valid_reports_stay_shared_after_pickling(a6):
    assert a6.validation is core._VALID
    assert pickle.loads(pickle.dumps(a6)).validation is core._VALID
    invalid = ValidationReport(False, (Violation("odot-associative", (1, 2, 3)),))
    assert pickle.loads(pickle.dumps(invalid)) == invalid


@forked_workers
def test_products_are_validated_once_each_in_the_workers(monkeypatch, validations, tmp_path):
    # every product is validated in the worker that builds it, and its report
    # comes back with the lattice: the parent validates nothing
    log = tmp_path / "validated"
    counted = core.validate_axioms

    def logged(lat):
        with open(log, "a", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
        return counted(lat)

    monkeypatch.setattr(core, "validate_axioms", logged)
    lattices = enumerate_residuated(6, workers=2)
    assert all(lat.validation is core._VALID for lat in lattices)
    assert validations == []
    pids = log.read_text(encoding="ascii").split()
    assert len(pids) == len(lattices) == 129
    assert str(os.getpid()) not in pids


def test_product_searches_go_longest_first(monkeypatch):
    # the searches are dispatched by decreasing number of comparable pairs,
    # the chain first; test_enumeration_is_deterministic checks the output order
    lattices = bounded_lattices(6)
    searched = []
    real = enumerator.residuated_products
    monkeypatch.setattr(
        enumerator, "residuated_products", lambda lattice: searched.append(lattice.up) or real(lattice)
    )
    enumerate_residuated(6, workers=1)
    pairs = [enumerator._comparable_pairs(up) for up in searched]
    assert pairs == sorted(pairs, reverse=True)
    assert pairs[0] == 6 * 7 // 2  # the chain
    assert sorted(searched) == sorted(lattices)
