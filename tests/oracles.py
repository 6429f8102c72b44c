"""Reference implementations that the fast paths are compared against.

The brute-force oracle for the enumerator: every labeled bounded order
and every product table on it, filtered by the axiom checker and
deduplicated by a scan over all permutations.  It goes through from_order
and shares none of the enumerator's propagation or canonical pruning; its
cost grows like n to the n squared, so the order is capped at four.

The canonical form of a bounded lattice by a scan of every relabeling
that fixes bottom and top, which the enumerator's search over reverse
linear extensions replaced.

The pair test of lattice generation on both sides, upper and lower
bounds, which the upper-bound test alone replaced.

The per-pair test of ``prime_linkage("ideals")``, which the one mask per
prime replaced.

Prime avoidance: a filter maximal among those containing f and disjoint
from a join-closed set is prime.  ``prime_avoiding`` finds one by scanning
every filter and checks that ``prime_spectrum`` lists it, so the tests
cross-check the spectrum against the avoidance lemma on a6, a8 and the
order-4 corpus.

The element-prime incidence by per-point scans over the prime masks:
``hull_by_scan`` tests each prime against the subset, ``kernel_by_scan``
intersects the selected primes, and ``coannulets_by_scan`` intersects
each prime into the coannulet of every element outside it.  They are the
reference for the spectrum's ``hulls``, ``above`` and ``coannulets`` and
for ``hull``, ``kernel`` and ``coannihilator``, which read the primes'
least elements through the meet and join tables.

Comaximality: two proper filters F and G join to the carrier exactly
when odot(x, y) = bottom for some x in F and y in G, and exactly when
imp(a, bottom) lies in G for some a in F.
``comaximal`` reads the join with ``filter_join`` and returns
both witnesses; a full join without them is an internal error.

Lattice ideals and their join: ``is_lattice_ideal`` is the definition
(non-empty, down-closed, join-closed), ``lattice_ideals`` the principal
down-sets, and ``ideal_join`` the down-closure of pairwise joins.  Every
omega-filter is omega of some ideal, so these are the reference for
``OmegaLattice.vee``: omega of the ideal join of any two representatives.

The pure envelope of an element a: the intersection of the pure parts of
the maximal filters containing a.  On mp lattices it meets the coannulet
of a in {1}, and the envelopes of the members of a minimal prime join to
that prime.

Finite topologies by brute force: ``open_sets`` lists every set of points
that is a union of minimal neighbourhoods (capped at 20 points),
``closed_sets`` their complements and ``closure`` the closure of a set of
points.  ``brute_closure``, ``brute_t1``, ``brute_hausdorff`` and
``brute_normal`` decide closure and the separation axioms from those
lists, by their definitions.  ``pure_hulls_are_closed_sets`` is the scan of all closed sets that
the pure spectrum's union-closure check replaced.

The quotient family of mp with every quotient built: for each prime's
divisor filter D, ``is_domain(quotient(lat, D))``, {top} included, where
``mp_via_quotient`` reads L/{top} as L itself.

The single-pass axiom scan: ``single_pass_validate`` is
``validate_axioms`` as it was before the order part moved to the
lattice's shared ``reduct``, before the order axioms were tested a row
at a time, and before the join-odot inequality was read off its
premises: every pair of the order axioms is scanned, and the inequality
is scanned on every lattice, its pairs tested as 16-bit codes against a
set.  It derives every table it reads from the lattice's own fields, the
down-masks included, so a reduct that did not match the tables it is
shared with would show as a different report, and a report that skipped
a failing inequality would differ from it too.

The filter joins of the census's hot loops, one ``filter_join`` call
per pair, as they stood before the joins were read through least
elements: ``algebraic_family`` is ``mp_via_algebraic``,
``pure_core_by_joins`` the element-wise route of ``pure_core`` and
``baer_rickart_by_joins`` is ``classify_baer_rickart``.  They read the
coannulets from the spectrum and nothing else of its Gamma.

The per-cell serializer: ``cell_document_dict`` is ``to_document_dict``
as it stood before the serializer read its cover pairs from the reduct
and relabeled each row by gathers on the ``bytes`` rows: one dict lookup
and two index operations per cell, ``cover_pairs`` of the lattice's own
``up``, and the canonical order computed from the lattice, not read from
the reduct.

The closed sets of the dual prime space, by brute force over every set
of primes.  ``dual_closed_sets`` checks that each is the set of primes
disjoint from some subset of the carrier, is patch-closed and is stable
under generalization; on mp lattices the pure filters are the kernels of
their traces on the minimal primes.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain, compress, permutations
from typing import Iterator

from reslat.core import (
    ContractError,
    InternalCheckError,
    ResiduatedLattice,
    ValidationReport,
    Violation,
    _bit_rows,
    _check_size,
    _converse,
    _first_difference,
    _pair_codes,
    _report,
    bits,
    bounded_lattice_ops,
    cover_pairs,
    derive_residuum,
    format_set,
    from_order,
    is_subset,
    negation,
    validate_axioms,
)
from reslat.coann import BaerRickart, coannulet, skeleton
from reslat.enumerator import _labels
from reslat.filters import (
    all_filters,
    canonical_sort,
    filter_join,
    is_domain,
    maximal_members,
    principal_filter,
    quotient,
)
from reslat.mp import Verdict, _conormal, _first, _pair
from reslat.purity import omega_lattice, pure_part
from reslat.spectra import FiniteTopology, generalization, hull_kernel_topology, prime_spectrum


def full_canonical_key(lat: ResiduatedLattice) -> tuple:
    """Isomorphism key over all permutations: least (order bits, product bits)."""
    n = lat.size
    best = None
    for perm in permutations(range(n)):
        leq_bits = tuple(
            1 if lat.leq(perm.index(x), perm.index(y)) else 0
            for x in range(n)
            for y in range(n)
        )
        odot_bits = tuple(
            perm[lat.odot[perm.index(x)][perm.index(y)]]
            for x in range(n)
            for y in range(n)
        )
        cand = (leq_bits, odot_bits)
        if best is None or cand < best:
            best = cand
    return best


def naive_bounded_orders(n: int) -> list[tuple[int, ...]]:
    """Every labeled bounded-lattice order on n elements, by brute force."""
    if n > 4:
        raise ContractError("naive order scan capped at 4 elements")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    orders = []
    for choice in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        ok = True
        for k, (i, j) in enumerate(pairs):
            if choice >> k & 1:
                up[i] |= 1 << j
        for i, j in pairs:
            if up[i] >> j & 1 and up[j] >> i & 1:
                ok = False
                break
        if not ok:
            continue
        for i in range(n):
            for j in range(n):
                if up[i] >> j & 1 and up[j] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        try:
            bounded_lattice_ops(tuple(up))
        except Exception:
            continue
        orders.append(tuple(up))
    return orders


def canonical_by_full_scan(up: tuple[int, ...]) -> tuple[int, ...]:
    """The lexicographically least up-mask rows over all (n-2)! relabelings
    fixing bottom 0 and top n-1."""
    n = len(up)
    best = tuple(up)
    for middle in permutations(range(1, n - 1)):
        perm = (0,) + middle + (n - 1,)
        rows = [0] * n
        for x in range(n):
            rows[perm[x]] = sum(1 << perm[y] for y in bits(up[x]))
        best = min(best, tuple(rows))
    return best


def two_sided_pairs_ok(below: tuple[int, ...]) -> bool:
    """No pair of the prefix has two minimal common upper bounds or two
    maximal common lower bounds; below[x] is the mask of elements <= x."""
    k = len(below)
    above = [sum(1 << y for y in range(k) if below[y] >> x & 1) for x in range(k)]
    for x in range(k):
        for y in range(x + 1, k):
            for common, strictly in ((above[x] & above[y], below), (below[x] & below[y], above)):
                extreme = [u for u in bits(common) if not common & strictly[u] & ~(1 << u)]
                if len(extreme) > 1:
                    return False
    return True


def naive_residuated(n: int) -> list[ResiduatedLattice]:
    """Brute-force all products over all bounded orders, filtered by the
    axiom checker and deduplicated by a full permutation scan.

    Deliberately shares none of the fast path's propagation or canonical
    pruning; cost is roughly n to the n squared, so the order is capped.
    """
    if n > 4:
        raise ContractError("naive oracle capped at 4 elements")
    out: dict[tuple, ResiduatedLattice] = {}
    for up in naive_bounded_orders(n):
        lattice = bounded_lattice_ops(up)
        bottom, top = lattice.bottom, lattice.top
        cells = [(i, j) for i in range(n) for j in range(n)]
        odot = [[None] * n for _ in range(n)]

        def leaf() -> None:
            try:
                imp = derive_residuum(lattice, odot)
            except Exception:
                return
            leq = [[bool(up[i] >> j & 1) for j in range(n)] for i in range(n)]
            lat = from_order(_labels(n), leq, [list(r) for r in odot], imp)
            if not validate_axioms(lat).valid:
                return
            key = full_canonical_key(lat)
            if key not in out:
                out[key] = lat

        def fill(ci: int) -> None:
            if ci == len(cells):
                leaf()
                return
            i, j = cells[ci]
            for v in range(n):
                if i > j and odot[j][i] != v:
                    continue
                if (i == bottom or j == bottom) and v != bottom:
                    continue
                if i == top and v != j:
                    continue
                if j == top and v != i:
                    continue
                odot[i][j] = v
                fill(ci + 1)
                odot[i][j] = None

        fill(0)
    return [out[k] for k in sorted(out)]


def ideal_join_is_everything(lat: ResiduatedLattice, p: int, q: int) -> bool:
    # complements of primes are lattice ideals; their ideal join is the
    # down-closure of pairwise joins, so it is everything iff some pair
    # outside p x q joins to the top
    comp_q = lat.full_mask & ~q
    joiners = lat.top_joiners
    return any(joiners[x] & comp_q for x in bits(lat.full_mask & ~p))


def prime_avoiding(lat: ResiduatedLattice, f: int, avoid: int) -> int:
    """A filter containing the filter f that is maximal among those
    disjoint from avoid, a join-closed set disjoint from f; it is prime."""
    candidates = [g for g in all_filters(lat) if is_subset(f, g) and not g & avoid]
    result = maximal_members(candidates)[0]
    if result not in prime_spectrum(lat).index:
        raise InternalCheckError("maximal avoiding filter is not prime")
    return result


def hull_by_scan(spec, subset: int) -> int:
    return sum(1 << i for i, p in enumerate(spec.primes) if is_subset(subset, p))


def kernel_by_scan(lat: ResiduatedLattice, spec, point_mask: int) -> int:
    out = lat.full_mask
    for i in bits(point_mask):
        out &= spec.primes[i]
    return out


def coannulets_by_scan(lat: ResiduatedLattice, spec) -> tuple[int, ...]:
    coannulets = [lat.full_mask] * lat.size
    for p in spec.primes:
        for x in bits(lat.full_mask & ~p):
            coannulets[x] &= p
    return tuple(coannulets)


def comaximal(lat: ResiduatedLattice, f: int, g: int) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether two proper filters join to the whole carrier; when they do,
    the witness (x, y, a) has x in F, y in G, odot(x, y) = bottom, a in F
    and imp(a, bottom) in G."""
    if filter_join(lat, f, g) != lat.full_mask:
        return False, None
    pair = next(((x, y) for x in bits(f) for y in bits(g) if lat.odot[x][y] == lat.bottom), None)
    single = next((a for a in bits(f) if g >> lat.imp[a][lat.bottom] & 1), None)
    if pair is None or single is None:
        raise InternalCheckError("comaximal witnesses missing despite full join")
    return True, (*pair, single)


def is_lattice_ideal(lat: ResiduatedLattice, subset: int) -> bool:
    if subset == 0:
        return False
    down = 0
    for x in bits(subset):
        down |= lat.down_masks[x]
    els = list(bits(subset))
    return down == subset and all(subset >> lat.join[x][y] & 1 for x in els for y in els)


def lattice_ideals(lat: ResiduatedLattice) -> tuple[int, ...]:
    """All lattice ideals: in a finite lattice every ideal is the down-set
    of its largest element."""
    return canonical_sort({lat.down_masks[x] for x in range(lat.size)})


def ideal_join(lat: ResiduatedLattice, i: int, j: int) -> int:
    """Join in the ideal lattice: down-closure of the pairwise joins."""
    out = 0
    for x in bits(i):
        row = lat.join[x]
        for y in bits(j):
            out |= lat.down_masks[row[y]]
    return out


def pure_envelope(lat: ResiduatedLattice, a: int) -> int:
    """Intersection of the pure parts of the maximal filters containing a;
    the empty intersection is the whole carrier."""
    spec = prime_spectrum(lat)
    out = lat.full_mask
    for i in spec.maximal:
        if spec.primes[i] >> a & 1:
            out &= pure_part(lat, spec.primes[i])
    return out


def dual_closed_sets(lat: ResiduatedLattice) -> tuple[int, ...]:
    """Every closed set of the dual topology on the prime space, each
    checked to be an avoidance set, patch-closed and generalization-stable."""
    spec = prime_spectrum(lat)
    k = len(spec)
    top = hull_kernel_topology(lat, "spec", "dual")
    patch = hull_kernel_topology(lat, "spec", "patch")
    out = []
    for c in range(1 << k):
        if not top.is_closed(c):
            continue
        witness_x = sum(1 << x for x, h in enumerate(spec.hulls) if not h & c)
        rebuilt = sum(1 << i for i in range(k) if not spec.primes[i] & witness_x)
        if rebuilt != c:
            raise InternalCheckError("dual-closed set is not an avoidance set")
        if not patch.is_closed(c):
            raise InternalCheckError("dual-closed set is not patch-closed")
        if generalization(lat, c) != c:
            raise InternalCheckError("dual-closed set is not generalization-stable")
        out.append(c)
    return tuple(out)


def open_sets(top: FiniteTopology) -> list[int]:
    """All opens by brute force; only sensible for small spaces."""
    k = len(top)
    if k > 20:
        raise ContractError("open-set enumeration capped at 20 points")
    return [u for u in range(1 << k) if top.is_open(u)]


def closed_sets(top: FiniteTopology) -> list[int]:
    full = top.all_points
    return [full & ~u for u in open_sets(top)]


def closure(top: FiniteTopology, subset: int) -> int:
    """The points whose minimal neighbourhood meets the subset."""
    return sum(1 << i for i in range(len(top)) if top.min_nbhd[i] & subset)


def brute_closure(top: FiniteTopology, subset: int) -> int:
    """The intersection of the closed sets containing the subset."""
    out = top.all_points
    for c in closed_sets(top):
        if not subset & ~c:
            out &= c
    return out


def brute_t1(top: FiniteTopology) -> bool:
    opens = open_sets(top)
    k = len(top)
    return all(
        any(u >> i & 1 and not u >> j & 1 for u in opens)
        for i in range(k)
        for j in range(k)
        if i != j
    )


def brute_hausdorff(top: FiniteTopology) -> bool:
    opens = open_sets(top)
    k = len(top)
    return all(
        any(u >> i & 1 and v >> j & 1 and not u & v for u in opens for v in opens)
        for i in range(k)
        for j in range(i + 1, k)
    )


def brute_normal(top: FiniteTopology) -> bool:
    opens = open_sets(top)
    closed = closed_sets(top)
    for c in closed:
        for d in closed:
            if c & d:
                continue
            if not any(
                not c & ~u and not d & ~v and not u & v
                for u in opens
                for v in opens
            ):
                return False
    return True


def pure_hulls_are_closed_sets(lat: ResiduatedLattice, pure, points) -> bool:
    """Whether the topology on the points with the complements of the hulls
    {P | F <= P}, F in pure, as subbasis has exactly those hulls as its
    closed sets, by listing every closed set."""
    full = (1 << len(points)) - 1
    hulls = {sum(1 << i for i, p in enumerate(points) if is_subset(f, p)) for f in pure}
    top = FiniteTopology.from_subbasis(points, [full & ~h for h in hulls])
    return set(closed_sets(top)) == hulls


def quotient_family(lat: ResiduatedLattice) -> dict[str, Verdict]:
    """``mp_via_quotient`` with every divisor's quotient built and searched
    by ``is_domain``, the quotient by {top} included."""
    spec = prime_spectrum(lat)
    divisors = omega_lattice(lat).divisors
    verdicts = {}
    for name, positions in (
        ("divisor_quotient_domain_for_primes", range(len(spec))),
        ("divisor_quotient_domain_for_maximals", spec.maximal),
    ):
        verdicts[name] = Verdict(True)
        for i in positions:
            q = quotient(lat, divisors[i])
            domain, pair = is_domain(q)
            if not domain:
                witness = {"prime": format_set(lat, spec.primes[i]),
                           "quotient_pair": [q.labels[x] for x in pair]}
                verdicts[name] = Verdict(False, witness)
                break
    return verdicts


def single_pass_validate(lat: ResiduatedLattice) -> ValidationReport:
    """``validate_axioms`` in one pass over the lattice's own fields: the
    order axioms and every byte table derived anew, nothing read from
    ``lat.reduct``."""
    n = lat.size
    _check_size(n)
    full = (1 << n) - 1
    up = [u & full for u in lat.up]  # leq(x, y) is only asked for y < n
    down = _converse(lat.up, n)
    odot, join, meet, imp = (
        [bytes(row) for row in table] for table in (lat.odot, lat.join, lat.meet, lat.imp)
    )
    bottom, top = lat.bottom, lat.top
    violations: list[Violation] = []

    def check(axiom: str, witnesses: Iterator[tuple[int, ...]]) -> None:
        witness = next(witnesses, None)
        if witness is not None:
            violations.append(Violation(axiom, witness))

    def blocks(sides: Iterator[tuple[bytes, bytes]]) -> Iterator[tuple[int, ...]]:
        for x, (lhs, rhs) in enumerate(sides):
            if lhs != rhs:
                yield (x, *divmod(_first_difference(lhs, rhs), n))

    def join_lub(x: int, y: int) -> bool:
        bounds, j = up[x] & up[y], join[x][y]
        return not bounds >> j & 1 or bounds & ~up[j] != 0

    def meet_glb(x: int, y: int) -> bool:
        bounds, m = down[x] & down[y], meet[x][y]
        return not bounds >> m & 1 or bounds & ~down[m] != 0

    pairs = [(x, y) for x in range(n) for y in range(n)]
    check("leq-reflexive", ((x,) for x in range(n) if not up[x] >> x & 1))
    check("leq-antisymmetric", (
        (x, next(bits(b))) for x in range(n) if (b := up[x] & down[x] & ~(1 << x))
    ))
    check("leq-transitive", (
        (x, y, next(bits(b))) for x in range(n) for y in bits(up[x]) if (b := up[y] & ~up[x])
    ))
    check("bottom-least", ((x,) for x in bits(full & ~up[bottom])))
    check("top-greatest", ((x,) for x in bits(full & ~down[top])))
    check("join-lub", (p for p in pairs if join_lub(*p)))
    check("meet-glb", (p for p in pairs if meet_glb(*p)))

    pad = bytes(256 - n)
    leq = _bit_rows(up, n)
    flat_odot, flat_join = b"".join(odot), b"".join(join)
    odot_pad, join_pad, leq_pad = ([row + pad for row in t] for t in (odot, join, leq))
    check("odot-commutative", (
        (x, _first_difference(row, column))
        for x, (row, column) in enumerate(zip(odot, (flat_odot[x::n] for x in range(n))))
        if row != column
    ))
    check("odot-associative", blocks(
        (b"".join(map(odot.__getitem__, ox)), flat_odot.translate(ox + pad)) for ox in odot
    ))
    check("odot-identity", ((x,) for x in range(n) if odot[top][x] != x))
    check("odot-bottom", ((x,) for x in range(n) if odot[x][bottom] != bottom))
    check("adjointness", blocks(
        (b"".join(map(leq.__getitem__, ox)), b"".join(map(ix.translate, leq_pad)))
        for ox, ix in zip(odot, imp)
    ))
    check("odot-join-distributive", blocks(
        (flat_join.translate(ox + pad), b"".join(map(ox.translate, map(join_pad.__getitem__, ox))))
        for ox in odot
    ))
    firsts, seconds = b"".join(bytes((a,)) * n for a in range(n)), bytes(range(n)) * n
    flat_not_leq = b"".join(_bit_rows([full & ~u for u in up], n))
    not_leq = set(compress(_pair_codes(firsts, seconds), flat_not_leq))
    holds = b"\x01" * (n * n)

    def inequality(jx: bytes) -> bytes:
        lo = b"".join(map(jx.translate, map(odot_pad.__getitem__, jx)))
        hi = flat_odot.translate(jx + pad)
        if not_leq.isdisjoint(_pair_codes(lo, hi)):
            return holds
        return bytes(up[u] >> v & 1 for u, v in zip(lo, hi))

    check("join-odot-inequality", blocks((holds, inequality(jx)) for jx in join))
    return _report(violations)


def algebraic_family(lat: ResiduatedLattice) -> dict[str, Verdict]:
    """``mp_via_algebraic`` with one ``filter_join`` call per pair of filters."""
    n, full, labels = lat.size, lat.full_mask, lat.labels
    verdicts: dict[str, Verdict] = {}
    filters = all_filters(lat)
    principal = tuple(sorted({principal_filter(lat, x) for x in range(n)}))
    ann = [coannulet(lat, x) for x in range(n)]

    verdicts["filter_lattice_conormal"] = _conormal(lat, filters)
    verdicts["principal_filter_lattice_conormal"] = _conormal(lat, principal)

    join = partial(filter_join, lat)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    to_top = [(x, y) for x, joiners in enumerate(lat.top_joiners) for y in bits(joiners)]
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


def pure_core_by_joins(lat: ResiduatedLattice, f: int) -> int:
    """{a | f join coannulet(a) = A}, one ``filter_join`` per element."""
    elementwise = 0
    for a in range(lat.size):
        if filter_join(lat, f, coannulet(lat, a)) == lat.full_mask:
            elementwise |= 1 << a
    return elementwise


def baer_rickart_by_joins(lat: ResiduatedLattice) -> BaerRickart:
    """``classify_baer_rickart`` with one ``filter_join`` per pair."""
    skel = skeleton(lat)
    baer = all(
        skel.join[f, g] == filter_join(lat, f, g)
        for f in skel.members
        for g in skel.members
    )
    gamma = set(skel.coannulets)
    one = 1 << lat.top
    rickart = all(
        filter_join(lat, f, g) in gamma for f in gamma for g in gamma
    ) and all(
        any(
            f & g == one and filter_join(lat, f, g) == lat.full_mask
            for g in gamma
        )
        for f in gamma
    )
    return BaerRickart(baer=baer, rickart=rickart)


def cell_document_dict(lat: ResiduatedLattice, name: str) -> dict:
    # old index per new position: bottom first, top last, the rest in order
    middle = [i for i in range(lat.size) if i not in (lat.bottom, lat.top)]
    order = [lat.bottom] + middle + [lat.top] if lat.size > 1 else [lat.bottom]
    new_of = {old: new for new, old in enumerate(order)}
    n = lat.size
    labels = [lat.labels[old] for old in order]

    def relabel(table):
        return [
            [labels[new_of[table[order[x]][order[y]]]] for y in range(n)]
            for x in range(n)
        ]

    pairs = sorted((new_of[lo], new_of[hi]) for lo, hi in cover_pairs(lat.up))
    return {
        "name": name,
        "size": n,
        "labels": labels,
        "order": [[labels[lo], labels[hi]] for lo, hi in pairs],
        "odot": relabel(lat.odot),
        "imp": relabel(lat.imp),
    }
