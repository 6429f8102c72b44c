"""Filter generation, the filter lattice, quotients, domains.

A filter is a nonempty subset closed under the product and upward closed;
filters are bitmasks over the carrier and form a finite distributive
lattice under intersection and generated join.  Every function here takes
a lattice that passes ``validate_axioms`` (``parse_document``, the
enumerator's ``_build`` and ``quotient`` all check the lattice's cached
``validation`` report), where every filter F is up(e) for exactly one
idempotent e:

- odot(x, y) <= meet(x, y), so e = meet(F) lies in F and F = up(e);
- odot(e, e) lies in F, so e <= odot(e, e) <= e: e is idempotent;
- conversely x, y >= e gives odot(x, y) >= odot(e, e) = e.

So up(e) joined with up(e') is up(odot(e, e')), and the filter generated
by S is up(p^k) for the product p of S and the first k with p^k = p^(k+1).
Generating a filter costs O(|S|) lookups plus the squarings, and finding
all filters, each with its least element, O(n).  Joining two filters is
then O(1): the least element of each, one product and one up-set.

As up is injective, the hot loops compare least elements rather than
filters: up(e) v up(e') is up(e'') exactly when e.e' = e'', and it is the
carrier exactly when e.e' is the bottom.  Dually, up(e) & up(e') is
up(e v e'), so a meet of primes, such as a coannulet or coannihilator,
is up of the join of their least elements.  The spectrum keeps those of
the primes (``Spectrum.gens``) and of the coannulets (Gamma), and reads
meets of primes from the join table and joins of coannulets from Gamma
and the odot table.  ``filter_join`` stays the general entry point.
"""

from __future__ import annotations

from .core import (
    ContractError,
    InternalCheckError,
    ResiduatedLattice,
    bits,
    format_set,
    is_subset,
    per_lattice,
)


def generated_filter(lat: ResiduatedLattice, subset: int) -> int:
    """Least filter containing the subset: up(p^k) for its product p.

    Squaring finds p^k: p^(2m) <= p^(m+1) <= p^m, so p^m = p^(2m) is
    stable, and the squares descend, so fewer than n squarings suffice.
    """
    odot = lat.odot
    p = lat.top
    for x in bits(subset):
        p = odot[p][x]
    for _ in range(lat.size):
        if odot[p][p] == p:
            return lat.up[p]
        p = odot[p][p]
    raise ContractError("generated_filter: no idempotent power; the lattice fails its axioms")


def principal_filter(lat: ResiduatedLattice, x: int) -> int:
    return generated_filter(lat, 1 << x)


def is_filter(lat: ResiduatedLattice, subset: int) -> bool:
    return subset != 0 and generated_filter(lat, subset) == subset


def canonical_sort(masks) -> tuple[int, ...]:
    """Canonical order for families of subsets: by size, then by bitmask."""
    return tuple(sorted(masks, key=lambda m: (bin(m).count("1"), m)))


def maximal_members(masks) -> list[int]:
    """The members of a family of subsets inside no other member, in order."""
    return [f for f in masks if not any(g != f and is_subset(f, g) for g in masks)]


class FilterLattice:
    """All filters of a lattice, in canonical order, and the least element
    of each, keyed by filter mask."""

    def __init__(self, least: dict[int, int]):
        self.filters = canonical_sort(least)
        self.least = least


@per_lattice
def filter_lattice(lat: ResiduatedLattice) -> FilterLattice:
    """Every filter: up(e) for each idempotent e, in canonical order."""
    return FilterLattice({lat.up[e]: e for e in range(lat.size) if lat.odot[e][e] == e})


@per_lattice
def idempotent_class(lat: ResiduatedLattice) -> tuple[tuple[str, ...], bytes, bytes]:
    """The labels, the idempotents I in index order, and odot on I x I: the
    key under which products over one reduct share what reads nothing else
    (see ``per_lattice``).

    Beyond the reduct's tables, these read only this key, labels in
    witnesses and error messages included:

    - the prime spectrum reads the filters, which are up(e) for e in I;
    - the skeleton reads the spectrum and the filters;
    - the pure spectrum reads them and odot at (e, Gamma[a]) for e in I,
      where Gamma[a], a join of idempotents, is in I, which holds the
      bottom and is closed under join;
    - the omega lattice of the class (``purity.omega_of_class``) reads the
      join table and the spectrum: its members, ``vee`` and divisors, and
      their representative, meet and kernel cross-checks;
    - Baer/Rickart reads the skeleton and odot on the least elements of
      coannihilators, which are in I;
    - the spectral, topological and purity families, and seven of the nine
      algebraic verdicts (``mp.algebraic_of_class``), read these analyses
      and odot on least elements of filters, all in I.

    What reads odot or imp beyond I x I stays per product: the test that
    each omega-filter is a filter (``purity.omega_lattice``), whose
    generated filter multiplies any elements; the principal filters of the
    algebraic family, which are powers under odot, and its negations,
    read from imp; the quotient family, which builds quotients; and
    ``filter_lattice``, which defines I.  ``is_domain`` reads the join
    table only and is cheap, so it is not kept.  Every product thus still
    gets its 28 verdicts, each from its own tables or from a computation
    on the same inputs.

    On a valid lattice odot on I x I follows from the order and I (e.e'
    is the greatest idempotent below e ^ e'), so the key takes one value
    per pair (lattice, I); it is in the key so that the sharing does not
    rest on that.  Each row of odot on I is gathered by one
    ``bytes.translate``.
    """
    idempotents = bytes(filter_lattice(lat).least.values())
    pad = bytes(256 - lat.size)
    rows = (idempotents.translate(lat.odot[e] + pad) for e in idempotents)
    return lat.labels, idempotents, b"".join(rows)


def all_filters(lat: ResiduatedLattice) -> tuple[int, ...]:
    return filter_lattice(lat).filters


def filter_join(lat: ResiduatedLattice, f: int, g: int) -> int:
    """up(odot(e, e')) for the least elements e, e' of two filters, in O(1)."""
    least = filter_lattice(lat).least
    e, e2 = least.get(f), least.get(g)
    if e is None or e2 is None:
        raise ContractError("filter_join: inputs must be filters")
    return lat.up[lat.odot[e][e2]]


# ---------------------------------------------------------------------------
# quotients


def congruence_classes(lat: ResiduatedLattice, f: int) -> tuple[int, ...]:
    """Classes of a ~ b iff imp(a,b) and imp(b,a) both lie in the filter.

    The filter is up(e) for its least element e, which is idempotent, and
    imp(a,b) in up(e) iff odot(e,a) <= b.  Hence a ~ b iff odot(e,a) =
    odot(e,b): multiplying odot(e,a) <= b by e gives odot(e,a) <= odot(e,b).
    The classes are the fibres of a -> odot(e,a), found in O(n).

    Ordered by smallest member, except that the class of top, which is the
    filter itself, comes last.  So the class of bottom comes first only
    when bottom is element 0.
    """
    e = filter_lattice(lat).least.get(f)
    if e is None:
        raise ContractError("quotient: modulus must be a filter")
    fibres: dict[int, int] = {}
    for a, v in enumerate(lat.odot[e]):
        fibres[v] = fibres.get(v, 0) | 1 << a
    return tuple(sorted(fibres.values(), key=lambda c: (bool(c >> lat.top & 1), c & -c)))


def quotient(lat: ResiduatedLattice, f: int) -> ResiduatedLattice:
    """The residuated lattice induced on the congruence classes of a filter,
    validated in full.  Class i lies below class j iff imp(a, b) lies in
    the filter for members a of i and b of j."""
    classes = congruence_classes(lat, f)
    n = lat.size
    class_of = [0] * n
    for i, cls in enumerate(classes):
        for a in bits(cls):
            class_of[a] = i
    reps = [next(bits(cls)) for cls in classes]
    rep_of = [reps[i] for i in class_of]
    # compatible: each row of each table agrees, up to class, with the row
    # of its class's representative; the quotient's rows are those rows at
    # the representatives' columns
    class_table = bytes(class_of) + bytes(256 - n)
    tables = []
    for table in (lat.join, lat.meet, lat.odot, lat.imp):
        rows = [row.translate(class_table) for row in table]
        if list(map(rows.__getitem__, rep_of)) != rows:
            raise InternalCheckError("congruence is not compatible with the operations")
        tables.append(tuple(bytes(map(rows[r].__getitem__, reps)) for r in reps))
    join, meet, odot, imp = tables
    qlat = ResiduatedLattice(
        labels=tuple(format_set(lat, cls) for cls in classes),
        up=tuple(sum(1 << j for j, s in enumerate(reps) if f >> lat.imp[r][s] & 1) for r in reps),
        join=join,
        meet=meet,
        odot=odot,
        imp=imp,
        bottom=class_of[lat.bottom],
        top=class_of[lat.top],
    )
    if not qlat.validation.valid:
        raise InternalCheckError(f"quotient is not a residuated lattice: {qlat.validation}")
    return qlat


def first_join_into(lat: ResiduatedLattice, subset: int) -> tuple[int, int] | None:
    """The first pair x <= y (by index), both outside the subset, whose join
    lies in it; None when there is none.

    A proper filter is prime exactly when this is None.
    """
    outside = [x for x in range(lat.size) if not subset >> x & 1]
    for i, x in enumerate(outside):
        row = lat.join[x]
        for y in outside[i:]:
            if subset >> row[y] & 1:
                return x, y
    return None


def is_domain(lat: ResiduatedLattice) -> tuple[bool, tuple[int, int] | None]:
    """No two elements below the top join to the top.

    Equivalently the one-element filter {top} is prime; the witness is an
    offending pair.  The degenerate lattice (bottom = top) is not a
    domain, mirroring the convention for the zero ring; it gets no
    witness pair.
    """
    if lat.bottom == lat.top:
        return False, None
    pair = first_join_into(lat, 1 << lat.top)
    return pair is None, pair
