"""Finite residuated lattices as validated operation tables.

A residuated lattice is a bounded lattice carrying a commutative monoid
whose unit is the top element, such that the monoid operation ``odot``
and the residuum ``imp`` form an adjoint pair:

    odot(x, a) <= y   iff   a <= imp(x, y)

Everything is table driven: elements are the indices 0..n-1 and subsets
of the carrier are bitmasks (bit i set = element i belongs to the set).
Carriers have at most ``MAX_SIZE`` = 256 elements, so that an element
index fits in a byte: each operation table is a ``Table``, one ``bytes``
row per element, from where it is built on.  Readers use the rows as
they are: composing a row with a table is one C-level ``bytes.translate``,
concatenating rows one ``b"".join`` and comparing them one ``bytes`` test.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial, reduce, wraps
from itertools import chain, compress
from operator import or_
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence


# ---------------------------------------------------------------------------
# bitmask helpers


def bits(mask: int) -> Iterator[int]:
    """Yield the element indices of a bitmask in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for x in elements:
        m |= 1 << x
    return m


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def transitive_closure(rows: Sequence[int]) -> tuple[int, ...]:
    """Transitive closure of a relation given as bitmask rows (bit j of
    rows[i]: i is related to j), by Warshall's algorithm: n^2 mask steps."""
    out = list(rows)
    for k in range(len(out)):
        bit, through = 1 << k, out[k]
        for i, row in enumerate(out):
            if row & bit:
                out[i] = row | through
    return tuple(out)


def cover_pairs(up: Sequence[int]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) of an order given by up-masks, ordered by i then j.

    j covers i when j is strictly above i and strictly above no k that is
    strictly above i: one pass of O(n) mask operations per element.
    """
    strict = [u & ~(1 << i) for i, u in enumerate(up)]
    out = []
    for i, above in enumerate(strict):
        beyond = 0
        for k in bits(above):
            beyond |= strict[k]
        out.extend((i, j) for j in bits(above & ~beyond))
    return out


# ---------------------------------------------------------------------------
# byte rows

MAX_SIZE = 256  # the largest carrier: an element index must fit in a byte
Table = tuple[bytes, ...]  # an operation table: byte y of row x is op(x, y)
# the largest document file: a canonical MAX_SIZE document with imp is
# 2.4 MB with 8-character labels, and fits with labels of 100 characters
MAX_DOCUMENT_BYTES = 16 << 20

_DIGITS_TO_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _digit_rows(masks: Sequence[int], n: int) -> list[str]:
    """Row i has n characters: character j is "1" if bit j of masks[i] is set."""
    full = (1 << n) - 1
    return [f"{m & full:0{n}b}"[::-1] for m in masks]


def _bit_rows(masks: Sequence[int], n: int) -> list[bytes]:
    """Row i has n bytes: byte j is 1 if bit j of masks[i] is set, else 0."""
    return [row.encode().translate(_DIGITS_TO_BYTES) for row in _digit_rows(masks, n)]


def _converse(masks: Sequence[int], n: int) -> list[int]:
    """The converse of a relation on range(n) given as bitmask rows: bit i
    of the result's row j is bit j of masks[i].  A string transpose, O(n)
    C-level slices."""
    flat = "".join(_digit_rows(masks, n))
    return [int(flat[j::n][::-1] or "0", 2) for j in range(n)]


def _beyond(masks: Sequence[int], n: int) -> Iterator[int]:
    """Per row i, the bits that masks[i] reaches in two steps and not in
    one: the OR of masks[j] over the j in masks[i], minus masks[i].  The
    relation is transitive iff every row yields 0.  One C-level
    ``compress`` and ``reduce`` per row."""
    for m, row in zip(masks, _bit_rows(masks, n)):
        yield reduce(or_, compress(masks, row), 0) & ~m


def _is_partial_order(up: Sequence[int], down: Sequence[int]) -> bool:
    """up (with its converse down) is reflexive, antisymmetric and transitive
    on range(n): O(n) mask tests and C-level row ORs."""
    n = len(up)
    return all(
        u >> n == 0 and u & d == 1 << x for x, (u, d) in enumerate(zip(up, down))
    ) and not any(_beyond(up, n))


def _pair_codes(lo: bytes, hi: bytes) -> memoryview:
    """The byte pairs (lo[i], hi[i]) as one 16-bit code each, in native byte
    order; build every code that is compared with these through this too."""
    buf = bytearray(2 * len(lo))
    buf[::2] = lo
    buf[1::2] = hi
    return memoryview(buf).cast("H")


def _first_difference(lhs: Sequence[int], rhs: Sequence[int]) -> int:
    return next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)


# ---------------------------------------------------------------------------
# errors


class StructureError(ValueError):
    """Raw tables are malformed: wrong dimensions or out-of-range entries."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class InternalCheckError(AssertionError):
    """Two redundant computations of the same quantity disagreed."""


class ResiduumError(ValueError):
    """imp(x, y) cannot be realised as the greatest a with odot(x, a) <= y."""

    def __init__(self, x: int, y: int):
        # args are the constructor's arguments, so unpickling (in the
        # parent of an enumeration worker) rebuilds the same error
        super().__init__(x, y)
        self.pair = (x, y)

    def __str__(self) -> str:
        return f"residuum not realised at {self.pair}"


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def __reduce__(self):
        # a valid report unpickles as the shared _VALID
        return _report, (list(self.violations),)


_VALID = ValidationReport(valid=True, violations=())


def _report(violations: list[Violation]) -> ValidationReport:
    # every lattice keeps its report (``validation``): the valid ones share one object
    if not violations:
        return _VALID
    return ValidationReport(valid=False, violations=tuple(violations))


class ValidationFailed(ValueError):
    """An operation required a valid residuated lattice but the axioms fail."""

    def __init__(self, report: ValidationReport, message: str = "axioms violated"):
        super().__init__(report, message)  # pickled as these arguments
        self.report = report

    def __str__(self) -> str:
        report, message = self.args
        return f"{message}: {[v.axiom for v in report.violations]}"


# ---------------------------------------------------------------------------
# the main data types


@dataclass(frozen=True)
class BoundedLattice:
    """The bounded-lattice reduct of a residuated lattice: ``up``, ``join``,
    ``meet``, ``bottom`` and ``top``, as ResiduatedLattice holds them (so
    ``join`` and ``meet`` are Tables of ``bytes`` rows).

    It need not be valid.  What derives from these five alone is computed
    on first use and kept: the down-masks, ``top_joiners``, the layout
    of the canonical document (the cover pairs among it), whether ``up`` is a partial order, the order axioms' report, and
    the other byte rows that ``validate_axioms`` and ``derive_residuum``
    read (the 0/1 leq rows, the join rows' concatenation, the 0/1 principal
    down-sets).
    ``bounded_lattice_ops`` seeds the partial-order test it has just
    computed.  Products that share one object (see ``ResiduatedLattice.over``)
    derive the rest once, and share the analyses that ``per_lattice`` keeps
    by key in ``analyses``.  A pickle holds the five fields only: the derived
    rows would more than double it (359 against 143 KB for the 256-element
    chain), and the receiver derives what it reads.
    """

    up: tuple[int, ...]
    join: Table
    meet: Table
    bottom: int
    top: int

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def down(self) -> tuple[int, ...]:
        """``down[x]`` is the bitmask of elements below x (including x)."""
        return tuple(_converse(self.up, len(self.up)))

    @cached_property
    def top_joiners(self) -> tuple[int, ...]:
        """``top_joiners[a]`` is the bitmask of the x with join(a, x) = top."""
        top = self.top
        return tuple(
            sum(1 << x for x, v in enumerate(row) if v == top) for row in self.join
        )

    @cached_property
    def document_layout(self) -> tuple[bytes, tuple[tuple[int, int], ...]]:
        """What a canonical document (``latfile.to_document_dict``) reads of
        the order alone: the old index of each new position as ``bytes``
        (bottom first, top last, the middle elements in index order), and
        the cover pairs (``cover_pairs(up)``) in new positions, sorted."""
        n = len(self.up)
        middle = [i for i in range(n) if i not in (self.bottom, self.top)]
        order = [self.bottom] + middle + [self.top] if n > 1 else [self.bottom]
        new_of = sorted(range(n), key=order.__getitem__)
        return bytes(order), tuple(
            sorted((new_of[lo], new_of[hi]) for lo, hi in cover_pairs(self.up))
        )

    @cached_property
    def analyses(self) -> dict:
        """What ``per_lattice`` shares among the products over this reduct."""
        return {}

    @cached_property
    def partial_order(self) -> bool:
        """Whether ``up`` is a partial order on range(n)."""
        return _is_partial_order(self.up, self.down)

    @cached_property
    def order_violations(self) -> tuple[Violation, ...]:
        """The violated order axioms, reflexivity through meet-glb, each
        with its first witness: the head of ``validate_axioms``' report.

        Transitivity, join-lub and meet-glb are first tested a row x at a
        time in C, and only a row that fails is scanned pair by pair:
        row x is transitive iff the OR of up[y] over the y above x lies in
        up[x]; join-lub holds on row x if up[join[x][y]] == up[x] & up[y]
        for every y and the order is reflexive (then join[x][y] is in the
        upper bounds and below each of them), and meet-glb likewise with
        the down-masks.  A row that passes holds no witness, so each
        witness is still the first in pair order.  O(n) C-level row
        operations when the axioms hold."""
        n = len(self.up)
        full = (1 << n) - 1
        up = [u & full for u in self.up]  # leq(x, y) is only asked for y < n
        down, join, meet = self.down, self.join, self.meet
        violations: list[Violation] = []
        check = partial(_check, violations)
        irreflexive = [x for x in range(n) if not up[x] >> x & 1]

        def rows_to_scan(masks: Sequence[int], table: Sequence[Sequence[int]]) -> Iterator[int]:
            # the rows x where masks[table[x][y]] == masks[x] & masks[y]
            # fails for some y, or every row if the order is not reflexive
            for x, (m, row) in enumerate(zip(masks, table)):
                if irreflexive or list(map(masks.__getitem__, row)) != list(map(m.__and__, masks)):
                    yield x

        def join_lub(x: int, y: int) -> bool:
            bounds, j = up[x] & up[y], join[x][y]
            return not bounds >> j & 1 or bounds & ~up[j] != 0

        def meet_glb(x: int, y: int) -> bool:
            bounds, m = down[x] & down[y], meet[x][y]
            return not bounds >> m & 1 or bounds & ~down[m] != 0

        check("leq-reflexive", ((x,) for x in irreflexive))
        check("leq-antisymmetric", (
            (x, next(bits(b))) for x in range(n) if (b := up[x] & down[x] & ~(1 << x))
        ))
        check("leq-transitive", (
            (x, y, next(bits(b)))
            for x, beyond in enumerate(_beyond(up, n)) if beyond
            for y in bits(up[x]) if (b := up[y] & ~up[x])
        ))
        check("bottom-least", ((x,) for x in bits(full & ~up[self.bottom])))
        check("top-greatest", ((x,) for x in bits(full & ~down[self.top])))
        check("join-lub", (
            (x, y) for x in rows_to_scan(up, join) for y in range(n) if join_lub(x, y)
        ))
        check("meet-glb", (
            (x, y) for x in rows_to_scan(down, meet) for y in range(n) if meet_glb(x, y)
        ))
        return tuple(violations)

    @cached_property
    def _axiom_rows(self) -> tuple[list[bytes], bytes]:
        """The rows of the reduct that ``validate_axioms`` reads on every
        call and ``join`` does not hold: the 0/1 leq rows and the join rows'
        concatenation.  Kept unpadded, since every lattice keeps its
        reduct.  At most 256 elements."""
        return _bit_rows(self.up, len(self.up)), b"".join(self.join)

    @cached_property
    def _residuum_rows(self) -> tuple[list[bytes], dict[bytes, int]]:
        """The prefix of ``derive_residuum``: the 0/1 row of each principal
        down-set (byte a of row y is 1 iff a <= y), and the dict from each
        such row to its greatest element, empty unless ``up`` is a partial
        order and ``join`` its join table.  At most 256 elements."""
        up, down = self.up, self.down
        below = _bit_rows(down, len(up))
        # join is the order's join table: up[join[x][y]] == up[x] & up[y]
        lattice = self.partial_order and all(
            list(map(up.__getitem__, row)) == list(map(u.__and__, up))
            for u, row in zip(up, self.join)
        )
        return below, {row: j for j, row in enumerate(below)} if lattice else {}


@dataclass(frozen=True)
class ResiduatedLattice:
    """Operation tables of a finite residuated lattice.

    ``up[x]`` is the bitmask of elements above x (including x itself); it
    encodes the order relation.  ``join``, ``meet``, ``odot`` and ``imp``
    are full n x n Tables: ``odot[x]`` is a ``bytes`` row, ``odot[x][y]``
    an int.  Rows from outside enter through ``from_tables`` and
    ``from_order``, which check and convert them; direct construction is
    not an input path, and readers take the rows as ``bytes``.  The
    structure is not necessarily valid:
    ``validate_axioms`` reports which axioms hold.  The bounded-lattice
    reduct (``reduct``, which holds ``down_masks`` and ``top_joiners``),
    the axiom report (``validation``) and the analyses of the
    ``per_lattice`` functions (the filter lattice, the prime spectrum, the
    omega-filters, the skeleton, the pure spectrum, Baer/Rickart and most
    mp verdicts) are computed on first use and kept in the instance, so
    each instance is validated and analysed at most once, and what it
    keeps is freed with it.  Products over one reduct share some analyses
    (``filters.idempotent_class``).
    """

    labels: tuple[str, ...]
    up: tuple[int, ...]
    join: Table
    meet: Table
    odot: Table
    imp: Table
    bottom: int
    top: int

    @classmethod
    def over(
        cls, reduct: BoundedLattice, labels: tuple[str, ...], odot: Table, imp: Table
    ) -> ResiduatedLattice:
        """The lattice with reduct's tables and these, keeping reduct as its
        own ``reduct``: all products over one reduct share what it derives."""
        lat = cls(labels, reduct.up, reduct.join, reduct.meet, odot, imp, reduct.bottom, reduct.top)
        lat.__dict__["reduct"] = reduct
        return lat

    @cached_property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    @cached_property
    def reduct(self) -> BoundedLattice:
        """The BoundedLattice of this lattice's own ``up``, ``join``,
        ``meet``, ``bottom`` and ``top``.

        It is only ever made of the very objects this instance holds: here
        from the fields, or by ``over``, which takes the fields from it.
        ``dataclasses.replace`` builds a new instance, whose cache starts
        empty, so a lattice with a replaced table never sees the reduct of
        the lattice it came from.
        """
        return BoundedLattice(self.up, self.join, self.meet, self.bottom, self.top)

    @property
    def down_masks(self) -> tuple[int, ...]:
        """``down_masks[x]`` is the bitmask of elements below x (including x)."""
        return self.reduct.down

    @property
    def top_joiners(self) -> tuple[int, ...]:
        """``top_joiners[a]`` is the bitmask of the x with join(a, x) = top."""
        return self.reduct.top_joiners

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate_axioms(self)``, run on first use."""
        return validate_axioms(self)

    def label_set(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    def __repr__(self) -> str:
        return f"ResiduatedLattice({','.join(self.labels)})"


def per_lattice(fn=None, *, key=None):
    """``fn(lat)``, computed on the first call and kept in ``lat.__dict__``, as
    ``reduct`` is, so it lives as long as lat.  ``cache_info()`` counts the
    calls that computed (misses) and all others (hits).  With ``key``, the
    lattices over one reduct with equal key(lat) share the value, kept in
    ``reduct.analyses``: sound when fn reads nothing of lat beyond the
    reduct and the key, since they then run fn, checks included, on the
    same inputs.  A call that raises keeps nothing."""
    if fn is None:
        return partial(per_lattice, key=key)
    name, counts = fn.__name__, [0, 0]  # misses, calls

    @wraps(fn)
    def memo(lat):
        counts[1] += 1
        kept = lat.__dict__
        if name not in kept:
            store, k = (lat.reduct.analyses, (name, key(lat))) if key else (kept, name)
            if k not in store:
                counts[0] += 1
                store[k] = fn(lat)
            kept[name] = store[k]
        return kept[name]

    memo.cache_info = lambda: SimpleNamespace(hits=counts[1] - counts[0], misses=counts[0])
    return memo


def format_set(lat: ResiduatedLattice, mask: int) -> str:
    """A subset as text, ``{a,b}``: the braced ``lat.label_set(mask)``."""
    return "{" + ",".join(lat.label_set(mask)) + "}"


def _check_table(name: str, table: Sequence[Sequence[int]], n: int) -> Table:
    """The table as a Table, or StructureError naming the first bad entry.

    A well-formed table passes with one pass each for the row lengths, the
    entry types and the entry values; the entry-by-entry scan runs only to
    name what is wrong.  Both convert only checked entries: ``bytes`` takes
    True for 1 and raises ValueError on 256.
    """
    try:
        if len(table) == n and set(map(len, table)) <= {n}:
            if set(chain.from_iterable(table)) <= set(range(n)) and set(
                map(type, chain.from_iterable(table))
            ) <= {int}:
                return tuple(map(bytes, table))
    except TypeError:
        pass
    return _scan_table(name, table, n)


def _length(where: str, seq: object) -> int:
    try:
        return len(seq)
    except TypeError:
        raise StructureError(f"{where}: expected a sequence, got {seq!r}") from None


def _scan_table(name: str, table: Sequence[Sequence[int]], n: int) -> Table:
    if _length(name, table) != n:
        raise StructureError(f"{name}: expected {n} rows, got {len(table)}")
    rows = []
    for i, row in enumerate(table):
        if _length(f"{name}[{i}]", row) != n:
            raise StructureError(f"{name}[{i}]: expected {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise StructureError(f"{name}[{i}][{j}]: entry {v!r} out of range 0..{n - 1}")
        rows.append(bytes(row))
    return tuple(rows)


def _check_size(n: int) -> None:
    if n > MAX_SIZE:
        raise StructureError(f"{n} elements: at most {MAX_SIZE} are supported")


def _up_masks(leq: Sequence[Sequence[object]], n: int) -> list[int]:
    """Up-masks of an n x n table of truthy/falsy leq entries."""
    if _length("leq", leq) != n:
        raise StructureError(f"leq: expected {n} rows, got {len(leq)}")
    up = []
    for i, row in enumerate(leq):
        if _length(f"leq[{i}]", row) != n:
            raise StructureError(f"leq[{i}]: expected {n} entries, got {len(row)}")
        up.append(mask_of(compress(range(n), row)))
    return up


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    n = len(labels)
    if n == 0:
        raise StructureError("empty carrier")
    _check_size(n)
    if len(set(labels)) != n:
        raise StructureError("labels are not unique")
    return tuple(labels)


def from_tables(
    labels: Sequence[str],
    leq: Sequence[Sequence[object]],
    join: Sequence[Sequence[int]],
    meet: Sequence[Sequence[int]],
    odot: Sequence[Sequence[int]],
    imp: Sequence[Sequence[int]],
    bottom: int,
    top: int,
) -> ResiduatedLattice:
    """Assemble a lattice from raw tables, checking structure only.

    Axioms are deliberately not checked here so that ``validate_axioms``
    can report on arbitrary candidate tables.
    """
    labels = _check_labels(labels)
    n = len(labels)
    up = _up_masks(leq, n)
    for name, index in (("bottom", bottom), ("top", top)):
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < n:
            raise StructureError(f"{name}: expected an element index 0..{n - 1}, got {index!r}")
    return ResiduatedLattice(
        labels=labels,
        up=tuple(up),
        join=_check_table("join", join, n),
        meet=_check_table("meet", meet, n),
        odot=_check_table("odot", odot, n),
        imp=_check_table("imp", imp, n),
        bottom=bottom,
        top=top,
    )


# ---------------------------------------------------------------------------
# deriving tables from an order


def bounded_lattice_ops(up: Sequence[int]) -> BoundedLattice:
    """The bounded lattice of an order given as up-masks: its bottom, top,
    join and meet, derived.

    Raises ValidationFailed listing every pair without a least upper or
    greatest lower bound, and every missing bound of the order itself.

    In a partial order, the least element of the upper bounds
    up[x] & up[y] is the u with up[u] equal to that set, so a join is one
    dict lookup of that mask, and a meet one lookup of down[x] & down[y]:
    O(n) C-level lookups per row.  A missing key is a missing bound.  A
    relation that is not a partial order has no such lookup; each of its
    pairs is scanned for the elements that the bound set lies above.

    The result keeps ``tuple(up)``, up itself when it is a tuple; one call
    per order serves all its products (see BoundedLattice).
    """
    up = tuple(up)
    n = len(up)
    full = (1 << n) - 1
    down = _converse(up, n)
    bottoms = [x for x in range(n) if up[x] == full]
    tops = [x for x in range(n) if down[x] == full]
    violations: list[Violation] = []
    if len(bottoms) != 1:
        violations.append(Violation("no-bottom", tuple(bottoms[:2])))
    if len(tops) != 1:
        violations.append(Violation("no-top", tuple(tops[:2])))
    order = _is_partial_order(up, down)
    join = _least_bounds(up, order, "lub-missing", violations)
    meet = _least_bounds(down, order, "glb-missing", violations)
    if violations:
        raise ValidationFailed(_report(violations), "order is not a bounded lattice")
    lattice = BoundedLattice(up, join, meet, bottoms[0], tops[0])
    lattice.__dict__["partial_order"] = order
    return lattice


def _least_bounds(
    masks: Sequence[int], order: bool, axiom: str, violations: list[Violation]
) -> Table:
    """Table of the least element of masks[x] & masks[y] (in the relation
    given by masks), 0 where there is none; each missing (x, y) with x <= y
    is appended to violations as ``axiom``.  ``order``: masks is a partial
    order, so a least element is the u with masks[u] equal to the set."""
    least = {m: u for u, m in enumerate(masks)} if order else {}
    table = []
    for x, m in enumerate(masks):
        row = list(map(least.get, map(m.__and__, masks)))
        if None in row:
            for y, v in enumerate(row):
                if v is None:
                    bounds = m & masks[y]
                    found = [u for u in bits(bounds) if is_subset(bounds, masks[u])]
                    row[y] = found[0] if len(found) == 1 else 0
                    if len(found) != 1 and x <= y:
                        violations.append(Violation(axiom, (x, y)))
        table.append(bytes(row))
    return tuple(table)


def derive_residuum(lattice: BoundedLattice, odot: Sequence[Sequence[int]]) -> Table:
    """Compute imp(x, y) as the join of {a | odot(x, a) <= y}, with the
    order and join table of ``lattice``, for odot rows of in-range ints.

    Raises ResiduumError naming the first (x, y) at which that join falls
    outside the candidate set, i.e. adjointness cannot hold for any imp
    table.

    The join is folded in index order over the candidates.  When ``up`` is
    a partial order and ``join`` its join table, a candidate set that is
    the principal down-set of j folds to j.  So each (x, y) first looks up
    the candidate set's 0/1 row, ``odot[x]`` translated through the 0/1
    column of y, in a dict of the principal down-sets: n C-level
    translates and lookups per row.  Only a candidate set that is not
    principal is folded.  The columns, the partial-order and join tests
    and the dict read the lattice alone: ``lattice`` derives them on the
    first call and keeps them for every later product.
    """
    up, join = lattice.up, lattice.join
    _check_size(len(up))
    below, principal = lattice._residuum_rows
    pad = bytes(256 - len(up))
    columns = [row + pad for row in below]
    imp = []
    for x, row in enumerate(odot):
        out = list(map(principal.get, map(bytes(row).translate, columns)))
        if None in out:
            for y, j in enumerate(out):
                if j is None:
                    out[y] = _fold_residuum(up, join, odot, x, y)
        imp.append(bytes(out))
    return tuple(imp)


def _fold_residuum(
    up: Sequence[int], join: Sequence[Sequence[int]], odot: Sequence[Sequence[int]], x: int, y: int
) -> int:
    cand = [a for a in range(len(up)) if up[odot[x][a]] >> y & 1]
    if not cand:
        raise ResiduumError(x, y)
    j = cand[0]
    for a in cand[1:]:
        j = join[j][a]
    if not up[odot[x][j]] >> y & 1:
        raise ResiduumError(x, y)
    return j


def from_order(
    labels: Sequence[str],
    leq: Sequence[Sequence[object]],
    odot: Sequence[Sequence[int]],
    imp: Sequence[Sequence[int]] | None = None,
) -> ResiduatedLattice:
    """Build a lattice from an order relation and a product table.

    join/meet are derived from the order and imp from the product when it
    is not supplied.  Structural problems raise StructureError; a
    non-lattice order or unrealisable residuum raises ValidationFailed.
    The lattice keeps the BoundedLattice of its tables as its ``reduct``.
    """
    n = len(labels)
    _check_size(n)
    lattice = bounded_lattice_ops(_up_masks(leq, n))
    odot_t = _check_table("odot", odot, n)
    if imp is None:
        try:
            imp_t = derive_residuum(lattice, odot_t)
        except ResiduumError as exc:
            raise ValidationFailed(
                _report([Violation("residuum-not-realised", exc.pair)]),
                "no residuum exists for this product",
            ) from exc
    else:
        imp_t = _check_table("imp", imp, n)
    return ResiduatedLattice.over(lattice, _check_labels(labels), odot_t, imp_t)


# ---------------------------------------------------------------------------
# axiom checking


def _check(violations: list[Violation], axiom: str, witnesses: Iterator[tuple[int, ...]]) -> None:
    """Append the axiom with the first witness, if there is one."""
    witness = next(witnesses, None)
    if witness is not None:
        violations.append(Violation(axiom, witness))


def validate_axioms(lat: ResiduatedLattice) -> ValidationReport:
    """Exhaustively check every axiom, recording one minimal witness each.

    The scan has no early exit: every violated axiom appears in the
    report with its lexicographically first witness tuple.  Two derivable
    laws are cross-checked as sanity conditions: the product distributes
    over joins, and join(x, odot(y, z)) >= odot(join(x, y), join(x, z)).

    The second, the join-odot inequality, follows from four axioms that
    come before it in the report: the order axioms, odot-commutative,
    odot-identity and odot-join-distributive.  With them, a <= top gives
    odot(x, a) <= odot(x, top) = x, so by distributivity
    odot(x v y, x v z) = xx v xy v zx v yz <= x v odot(y, z).  So it is
    scanned only when some earlier axiom has failed: every report is the
    one a full scan gives, and a valid lattice never pays for the scan.

    The order axioms (reflexivity through meet-glb) read only ``up``,
    ``join``, ``meet``, ``bottom`` and ``top``.  They are checked once per
    lattice, by ``lat.reduct.order_violations``, and they come first in
    the report.  That is the same check on the same tables for every
    product: the reduct is only ever made of the very table objects the
    lattice holds (see ResiduatedLattice.reduct), so the products of one
    order that share it share the tables it checked, and a lattice with a
    replaced table has a reduct of its own.  The 0/1 rows of the order
    and the join rows' concatenation are the reduct's too.

    Cost: the order axioms take O(n^2) mask operations on the up- and
    down-masks, tested a row at a time in C; only a failing row is
    scanned pair by pair (see BoundedLattice.order_violations).  The
    algebraic axioms compare, per first argument x, the
    two sides as flat n x n blocks indexed by (second argument) * n +
    (third argument), so extra memory stays O(n^2).  Each side is built
    from the tables' ``bytes`` rows by C-level gathers:
    ``u.translate(t + pad)`` composes t[u[w]] over a row u, and
    ``b"".join(map(rows.__getitem__, u))`` concatenates the rows that u
    names.  The join-odot inequality, when it is scanned, needs a 2-D leq
    lookup per triple, lo <= hi for the byte pairs (lo[i], hi[i]) of two
    blocks: the pairs are read as 16-bit codes and tested in C against
    the set of codes of the pairs with lo not <= hi.  Only a block that
    fails is scanned again in Python, for its first failing index i,
    which gives the witness (x, *divmod(i, n)).
    """
    n = lat.size
    _check_size(n)
    reduct = lat.reduct
    up, join, odot, imp = reduct.up, reduct.join, lat.odot, lat.imp
    leq, flat_join = reduct._axiom_rows
    violations = list(reduct.order_violations)
    check = partial(_check, violations)

    def blocks(sides: Iterator[tuple[bytes, bytes]]) -> Iterator[tuple[int, ...]]:
        # sides yields, for x = 0, 1, ..., the two sides of an axiom as flat
        # n x n blocks
        for x, (lhs, rhs) in enumerate(sides):
            if lhs != rhs:
                yield (x, *divmod(_first_difference(lhs, rhs), n))

    pad = bytes(256 - n)
    flat_odot = b"".join(odot)
    join_pad, leq_pad = ([row + pad for row in t] for t in (join, leq))
    check("odot-commutative", (
        (x, _first_difference(row, column))
        for x, (row, column) in enumerate(zip(odot, (flat_odot[x::n] for x in range(n))))
        if row != column
    ))
    check("odot-associative", blocks(
        (b"".join(map(odot.__getitem__, ox)), flat_odot.translate(ox + pad)) for ox in odot
    ))
    check("odot-identity", ((x,) for x in range(n) if odot[lat.top][x] != x))
    check("odot-bottom", ((x,) for x in range(n) if odot[x][lat.bottom] != lat.bottom))
    check("adjointness", blocks(
        (b"".join(map(leq.__getitem__, ox)), b"".join(map(ix.translate, leq_pad)))
        for ox, ix in zip(odot, imp)
    ))
    check("odot-join-distributive", blocks(
        (flat_join.translate(ox + pad), b"".join(map(ox.translate, map(join_pad.__getitem__, ox))))
        for ox in odot
    ))
    if violations:  # else the join-odot inequality holds: see above
        # the codes of all pairs (a, b), picked by the flat 0/1 not-leq
        # table, whose index is a * n + b
        firsts, seconds = b"".join(bytes((a,)) * n for a in range(n)), bytes(range(n)) * n
        flat_not_leq = b"".join(_bit_rows([~u for u in up], n))
        not_leq = set(compress(_pair_codes(firsts, seconds), flat_not_leq))
        odot_pad = [row + pad for row in odot]
        # holds at (x, y, z) iff odot(join(x, y), join(x, z)) <= join(x, odot(y, z))
        holds = b"\x01" * (n * n)

        def inequality(jx: bytes) -> bytes:
            lo = b"".join(map(jx.translate, map(odot_pad.__getitem__, jx)))
            hi = flat_odot.translate(jx + pad)
            if not_leq.isdisjoint(_pair_codes(lo, hi)):
                return holds
            return bytes(up[u] >> v & 1 for u, v in zip(lo, hi))

        check("join-odot-inequality", blocks((holds, inequality(jx)) for jx in join))
    return _report(violations)


# ---------------------------------------------------------------------------
# element-level derived operations


def negation(lat: ResiduatedLattice, x: int) -> int:
    """imp(x, bottom)."""
    return lat.imp[x][lat.bottom]


def boolean_center(lat: ResiduatedLattice) -> int:
    """Bitmask of the complemented idempotents: e with e v ~e = 1 and e.e = e."""
    out = 0
    for e in range(lat.size):
        if lat.join[e][negation(lat, e)] == lat.top and lat.odot[e][e] == e:
            out |= 1 << e
    return out
