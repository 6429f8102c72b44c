"""Finite residuated lattices as validated operation tables.

A residuated lattice is a bounded lattice carrying a commutative monoid
whose unit is the top element, such that the monoid operation ``odot``
and the residuum ``imp`` form an adjoint pair:

    odot(x, a) <= y   iff   a <= imp(x, y)

Everything is table driven: elements are the indices 0..n-1 and subsets
of the carrier are bitmasks (bit i set = element i belongs to the set).
Carriers have at most ``MAX_SIZE`` = 256 elements, so that an element
index fits in a byte: the O(n^3) kernels (axiom validation, the residuum,
joins and meets) work on table rows held as ``bytes``, where composing a
row with a table is one C-level ``bytes.translate`` and concatenating
rows is one ``b"".join``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
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


def _is_partial_order(up: Sequence[int], down: Sequence[int]) -> bool:
    """up (with its converse down) is reflexive, antisymmetric and transitive
    on range(n): O(n) mask tests and one transitive closure."""
    n = len(up)
    return all(
        u >> n == 0 and u & d == 1 << x for x, (u, d) in enumerate(zip(up, down))
    ) and transitive_closure(up) == tuple(up)


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
# the main data type


@dataclass(frozen=True)
class ResiduatedLattice:
    """Operation tables of a finite residuated lattice.

    ``up[x]`` is the bitmask of elements above x (including x itself); it
    encodes the order relation.  ``join``, ``meet``, ``odot`` and ``imp``
    are full n x n tables.  The structure is not necessarily valid:
    ``validate_axioms`` reports which axioms hold.  The derived masks
    (``down_masks``, ``top_joiners``) and the axiom report (``validation``)
    are computed on first use and kept, so each instance is validated at
    most once.
    """

    labels: tuple[str, ...]
    up: tuple[int, ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    odot: tuple[tuple[int, ...], ...]
    imp: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    @cached_property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """``down_masks[x]`` is the bitmask of elements below x (including x)."""
        return tuple(_converse(self.up, len(self.labels)))

    @cached_property
    def top_joiners(self) -> tuple[int, ...]:
        """``top_joiners[a]`` is the bitmask of the x with join(a, x) = top."""
        top = self.top
        return tuple(
            sum(1 << x for x, v in enumerate(row) if v == top) for row in self.join
        )

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate_axioms(self)``, run on first use."""
        return validate_axioms(self)

    def label_set(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    @cached_property
    def _hash(self) -> int:
        # Every field but the labels: str hashes differ between interpreters,
        # and this value is pickled with the instance.  Equal lattices have
        # equal int fields, so the hash stays consistent with __eq__.
        return hash((self.up, self.join, self.meet, self.odot, self.imp, self.bottom, self.top))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ResiduatedLattice({','.join(self.labels)})"


def format_set(lat: ResiduatedLattice, mask: int) -> str:
    """A subset as text, ``{a,b}``: the braced ``lat.label_set(mask)``."""
    return "{" + ",".join(lat.label_set(mask)) + "}"


def _check_table(name: str, table: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """The table as a tuple of row tuples, or StructureError naming the first bad entry.

    A well-formed table passes with one pass each for the row lengths, the
    entry types and the entry values; the entry-by-entry scan runs only to
    name what is wrong.
    """
    try:
        if len(table) == n and set(map(len, table)) <= {n}:
            rows = tuple(map(tuple, table))
            if set(chain.from_iterable(rows)) <= set(range(n)) and set(
                map(type, chain.from_iterable(rows))
            ) <= {int}:
                return rows
    except TypeError:
        pass
    return _scan_table(name, table, n)


def _length(where: str, seq: object) -> int:
    try:
        return len(seq)
    except TypeError:
        raise StructureError(f"{where}: expected a sequence, got {seq!r}") from None


def _scan_table(name: str, table: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    if _length(name, table) != n:
        raise StructureError(f"{name}: expected {n} rows, got {len(table)}")
    rows = []
    for i, row in enumerate(table):
        if _length(f"{name}[{i}]", row) != n:
            raise StructureError(f"{name}[{i}]: expected {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise StructureError(f"{name}[{i}][{j}]: entry {v!r} out of range 0..{n - 1}")
        rows.append(tuple(row))
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
        up.append(mask_of(j for j, v in enumerate(row) if v))
    return up


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
    n = len(labels)
    if n == 0:
        raise StructureError("empty carrier")
    _check_size(n)
    if len(set(labels)) != n:
        raise StructureError("labels are not unique")
    up = _up_masks(leq, n)
    for name, index in (("bottom", bottom), ("top", top)):
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < n:
            raise StructureError(f"{name}: expected an element index 0..{n - 1}, got {index!r}")
    return ResiduatedLattice(
        labels=tuple(labels),
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


def bounded_lattice_ops(up: Sequence[int]) -> tuple[int, int, tuple, tuple]:
    """Derive (bottom, top, join, meet) from an order given as up-masks.

    Raises ValidationFailed listing every pair without a least upper or
    greatest lower bound, and every missing bound of the order itself.

    In a partial order, the least element of the upper bounds
    up[x] & up[y] is the u with up[u] equal to that set, so a join is one
    dict lookup of that mask, and a meet one lookup of down[x] & down[y]:
    O(n) C-level lookups per row.  A missing key is a missing bound.  A
    relation that is not a partial order has no such lookup; each of its
    pairs is scanned for the elements that the bound set lies above.
    """
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
    return bottoms[0], tops[0], join, meet


def _least_bounds(
    masks: Sequence[int], order: bool, axiom: str, violations: list[Violation]
) -> tuple[tuple[int, ...], ...]:
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
        table.append(tuple(row))
    return tuple(table)


def derive_residuum(
    up: Sequence[int], join: Sequence[Sequence[int]], odot: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Compute imp(x, y) as the join of {a | odot(x, a) <= y}.

    Raises ResiduumError naming the first (x, y) at which that join falls
    outside the candidate set, i.e. adjointness cannot hold for any imp
    table.

    The join is folded in index order over the candidates.  When ``up`` is
    a partial order and ``join`` its join table, a candidate set that is
    the principal down-set of j folds to j.  So each (x, y) first looks up
    the candidate set's 0/1 row, ``odot[x]`` translated through the 0/1
    column of y, in a dict of the principal down-sets: n C-level
    translates and lookups per row.  Only a candidate set that is not
    principal is folded.
    """
    n = len(up)
    _check_size(n)
    down = _converse(up, n)
    below = _bit_rows(down, n)  # below[y][a] == 1 iff a <= y
    pad = bytes(256 - n)
    columns = [row + pad for row in below]
    # join is the order's join table: up[join[x][y]] == up[x] & up[y]
    lattice = _is_partial_order(up, down) and all(
        list(map(up.__getitem__, row)) == list(map(u.__and__, up)) for u, row in zip(up, join)
    )
    principal = {row: j for j, row in enumerate(below)} if lattice else {}
    imp = []
    for x, row in enumerate(odot):
        out = list(map(principal.get, map(bytes(row).translate, columns)))
        if None in out:
            for y, j in enumerate(out):
                if j is None:
                    out[y] = _fold_residuum(up, join, odot, x, y)
        imp.append(tuple(out))
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
    """
    n = len(labels)
    _check_size(n)
    up = _up_masks(leq, n)
    bottom, top, join, meet = bounded_lattice_ops(up)
    odot_t = _check_table("odot", odot, n)
    if imp is None:
        try:
            imp_t = derive_residuum(up, join, odot_t)
        except ResiduumError as exc:
            raise ValidationFailed(
                _report([Violation("residuum-not-realised", exc.pair)]),
                "no residuum exists for this product",
            ) from exc
    else:
        imp_t = _check_table("imp", imp, n)
    return from_tables(labels, leq, join, meet, odot_t, imp_t, bottom, top)


# ---------------------------------------------------------------------------
# axiom checking


def validate_axioms(lat: ResiduatedLattice) -> ValidationReport:
    """Exhaustively check every axiom, recording one minimal witness each.

    The scan has no early exit: every violated axiom appears in the
    report with its lexicographically first witness tuple.  Two derivable
    laws are cross-checked as sanity conditions: the product distributes
    over joins, and join(x, odot(y, z)) >= odot(join(x, y), join(x, z)).

    Cost: the order axioms (reflexivity through meet-glb) take O(n^2)
    mask operations on ``up`` and on the lattice's ``down_masks``.
    The algebraic axioms compare, per first argument x, the two sides as
    flat n x n blocks indexed by (second argument) * n + (third argument),
    so extra memory stays O(n^2).  Each side is built from the tables'
    ``bytes`` rows by C-level gathers: ``u.translate(t + pad)`` composes
    t[u[w]] over a row u, and ``b"".join(map(rows.__getitem__, u))``
    concatenates the rows that u names.  The join-odot inequality needs
    a 2-D leq lookup per triple: its (lo, hi) byte pairs are read as
    16-bit codes and tested against the set of codes of pairs with
    lo not <= hi, all in C.  Only a block that fails is scanned again in
    Python, for its first failing index i, which gives the witness
    (x, *divmod(i, n)).
    """
    n = lat.size
    _check_size(n)
    full = (1 << n) - 1
    up = [u & full for u in lat.up]  # leq(x, y) is only asked for y < n
    down = lat.down_masks
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
        # sides yields, for x = 0, 1, ..., the two sides of an axiom as flat
        # n x n blocks
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
    leq = _bit_rows(up, n)  # leq[x][y] == 1 iff x <= y
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
    # holds at (x, y, z) iff odot(join(x, y), join(x, z)) <= join(x, odot(y, z));
    # not_leq holds the codes of the pairs (a, b) with a not <= b, picked from
    # all pairs by the flat 0/1 not-leq table, whose index is a * n + b
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
