"""Finite residuated lattices as validated operation tables.

A residuated lattice is a bounded lattice carrying a commutative monoid
whose unit is the top element, such that the monoid operation ``odot``
and the residuum ``imp`` form an adjoint pair:

    odot(x, a) <= y   iff   a <= imp(x, y)

Everything is table driven: elements are the indices 0..n-1 and subsets
of the carrier are bitmasks (bit i set = element i belongs to the set).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
        self.pair = (x, y)
        super().__init__(f"residuum not realised at ({x}, {y})")


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def render(self, labels: Sequence[str]) -> str:
        if self.valid:
            return "valid"
        lines = []
        for v in self.violations:
            names = ", ".join(labels[i] for i in v.witness)
            lines.append(f"{v.axiom}: ({names})")
        return "\n".join(lines)


def _report(violations: list[Violation]) -> ValidationReport:
    return ValidationReport(valid=not violations, violations=tuple(violations))


class ValidationFailed(ValueError):
    """An operation required a valid residuated lattice but the axioms fail."""

    def __init__(self, report: ValidationReport, message: str = "axioms violated"):
        self.report = report
        super().__init__(f"{message}: {[v.axiom for v in report.violations]}")


# ---------------------------------------------------------------------------
# the main data type


@dataclass(frozen=True)
class ResiduatedLattice:
    """Operation tables of a finite residuated lattice.

    ``up[x]`` is the bitmask of elements above x (including x itself); it
    encodes the order relation.  ``join``, ``meet``, ``odot`` and ``imp``
    are full n x n tables.  The structure is not necessarily valid:
    ``validate_axioms`` reports which axioms hold.  The derived masks
    (``down_masks``, ``top_joiners``) are computed on first use and kept.
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
        down = [0] * len(self.labels)
        for y, u in enumerate(self.up):
            for x in bits(u & self.full_mask):
                down[x] |= 1 << y
        return tuple(down)

    def down(self, x: int) -> int:
        """Bitmask of elements below x (including x)."""
        return self.down_masks[x]

    @cached_property
    def top_joiners(self) -> tuple[int, ...]:
        """``top_joiners[a]`` is the bitmask of the x with join(a, x) = top."""
        top = self.top
        return tuple(
            sum(1 << x for x, v in enumerate(row) if v == top) for row in self.join
        )

    def label_set(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits(mask))

    @cached_property
    def _hash(self) -> int:
        # Only the int fields: str hashes differ between interpreters, and
        # this value is pickled with the instance.  Equal lattices have
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


def _scan_table(name: str, table: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    if len(table) != n:
        raise StructureError(f"{name}: expected {n} rows, got {len(table)}")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise StructureError(f"{name}[{i}]: expected {n} entries, got {len(row)}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise StructureError(f"{name}[{i}][{j}]: entry {v!r} out of range 0..{n - 1}")
        rows.append(tuple(row))
    return tuple(rows)


def _up_masks(leq: Sequence[Sequence[object]], n: int) -> list[int]:
    """Up-masks of an n x n table of truthy/falsy leq entries."""
    if len(leq) != n:
        raise StructureError(f"leq: expected {n} rows, got {len(leq)}")
    up = []
    for i, row in enumerate(leq):
        if len(row) != n:
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
    if len(set(labels)) != n:
        raise StructureError("labels are not unique")
    up = _up_masks(leq, n)
    if not 0 <= bottom < n or not 0 <= top < n:
        raise StructureError("bottom/top index out of range")
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
    """
    n = len(up)
    violations: list[Violation] = []
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
        raise ValidationFailed(_report(violations), "order is not a bounded lattice")
    return bottoms[0], tops[0], tuple(map(tuple, join)), tuple(map(tuple, meet))


def derive_residuum(
    up: Sequence[int], join: Sequence[Sequence[int]], odot: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Compute imp(x, y) as the join of {a | odot(x, a) <= y}.

    Raises ResiduumError naming (x, y) when that join falls outside the
    candidate set, i.e. adjointness cannot hold for any imp table.
    """
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
    return tuple(map(tuple, imp))


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
    The algebraic axioms take O(n^3) table lookups, compared as one flat
    n x n block per first argument x, so extra memory stays O(n^2).  Only
    a block that differs is scanned again, for its first differing index
    i, which gives the witness (x, *divmod(i, n)).
    """
    n = lat.size
    full = (1 << n) - 1
    up = [u & full for u in lat.up]  # leq(x, y) is only asked for y < n
    down = lat.down_masks
    join, meet, odot, imp = lat.join, lat.meet, lat.odot, lat.imp
    bottom, top = lat.bottom, lat.top
    pairs = [(x, y) for x in range(n) for y in range(n)]
    violations: list[Violation] = []

    def check(axiom: str, witnesses: Iterator[tuple[int, ...]]) -> None:
        witness = next(witnesses, None)
        if witness is not None:
            violations.append(Violation(axiom, witness))

    def blocks(sides: Iterator[tuple[list[int], list[int]]]) -> Iterator[tuple[int, ...]]:
        # sides yields, for x = 0, 1, ..., the two sides of an axiom as flat
        # lists indexed by (second argument) * n + (third argument)
        for x, (lhs, rhs) in enumerate(sides):
            if lhs != rhs:
                i = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                yield (x, *divmod(i, n))

    def join_lub(x: int, y: int) -> bool:
        bounds, j = up[x] & up[y], join[x][y]
        return not bounds >> j & 1 or bounds & ~up[j] != 0

    def meet_glb(x: int, y: int) -> bool:
        bounds, m = down[x] & down[y], meet[x][y]
        return not bounds >> m & 1 or bounds & ~down[m] != 0

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

    check("odot-commutative", ((x, y) for x, y in pairs if odot[x][y] != odot[y][x]))
    flat_odot = [w for row in odot for w in row]
    flat_join = [w for row in join for w in row]
    check("odot-associative", blocks(
        ([w for v in ox for w in odot[v]], [ox[w] for w in flat_odot]) for ox in odot
    ))
    check("odot-identity", ((x,) for x in range(n) if odot[top][x] != x))
    check("odot-bottom", ((x,) for x in range(n) if odot[x][bottom] != bottom))
    leq01 = [[u >> y & 1 for y in range(n)] for u in up]
    check("adjointness", blocks(
        ([b for v in ox for b in leq01[v]], [row[w] for row in leq01 for w in ix])
        for ox, ix in zip(odot, imp)
    ))
    check("odot-join-distributive", blocks(
        ([ox[w] for w in flat_join], [row[w] for row in [join[v] for v in ox] for w in ox])
        for ox in odot
    ))
    # holds at (x, y, z) iff up[odot(join(x, y), join(x, z))] has join(x, odot(y, z))
    holds = [1] * (n * n)
    check("join-odot-inequality", blocks(
        (holds, [up[lo] >> hi & 1 for lo, hi in zip(
            [row[w] for row in [odot[v] for v in jx] for w in jx],
            [jx[w] for w in flat_odot],
        )])
        for jx in join
    ))
    return _report(violations)


def require_valid(lat: ResiduatedLattice) -> ResiduatedLattice:
    report = validate_axioms(lat)
    if not report.valid:
        raise ValidationFailed(report)
    return lat


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
