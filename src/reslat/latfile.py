"""The lattice file format, canonical serialization and DOT export.

A document is a JSON object with keys name, size, labels, order (cover
pairs by label, lower element first), odot (full table of labels, row =
left operand) and optionally imp.  Canonical form: sorted keys, two-space
indent, LF line endings, labels in index order with the bottom first and
the top last.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .core import (
    MAX_SIZE,
    ResiduatedLattice,
    Table,
    ValidationFailed,
    ValidationReport,
    Violation,
    _bit_rows,
    _converse,
    _first_difference,
    cover_pairs,
    format_set,
    from_order,
    transitive_closure,
)

DOCUMENT_KEYS = {"name", "size", "labels", "order", "odot", "imp"}
REQUIRED_KEYS = {"name", "size", "labels", "order", "odot"}


class LatticeFormatError(ValueError):
    """The document does not follow the schema; the message names the spot."""


@dataclass(frozen=True)
class LatticeDocument:
    name: str
    lattice: ResiduatedLattice


def _expect(condition: bool, where: str, problem: str) -> None:
    if not condition:
        raise LatticeFormatError(f"{where}: {problem}")


def parse_document(text: str) -> LatticeDocument:
    """Parse and validate a lattice document.

    Schema problems raise LatticeFormatError naming the offending cell;
    axiom failures raise ValidationFailed embedding the validation report.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise LatticeFormatError("document: nested too deeply") from exc
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise LatticeFormatError("document: an integer literal has too many digits") from exc
    _expect(isinstance(doc, dict), "document", "must be a JSON object")
    unknown = set(doc) - DOCUMENT_KEYS
    _expect(not unknown, "document", f"unknown keys {sorted(unknown)}")
    missing = REQUIRED_KEYS - set(doc)
    _expect(not missing, "document", f"missing keys {sorted(missing)}")

    name = doc["name"]
    _expect(isinstance(name, str) and name != "", "name", "must be a non-empty string")
    labels = doc["labels"]
    _expect(
        isinstance(labels, list) and all(isinstance(s, str) and s for s in labels),
        "labels", "must be a list of non-empty strings",
    )
    n = len(labels)
    _expect(type(doc["size"]) is int, "size", "must be an integer")
    _expect(doc["size"] == n, "size", f"must equal the number of labels ({n})")
    _expect(n <= MAX_SIZE, "size", f"{n} elements: at most {MAX_SIZE} are supported")
    _expect(len(set(labels)) == n, "labels", "must be unique")
    pos = {s: i for i, s in enumerate(labels)}

    _expect(isinstance(doc["order"], list), "order", "must be a list of cover pairs")
    most = n * (n - 1) // 2  # an acyclic relation has no more distinct pairs
    count = len(doc["order"])
    _expect(count <= most, "order", f"{count} pairs: more than {most} repeat one or form a cycle")
    covers = []
    for k, pair in enumerate(doc["order"]):
        _expect(
            isinstance(pair, list) and len(pair) == 2,
            f"order[{k}]", "must be a [lower, upper] pair",
        )
        for s in pair:
            _expect(isinstance(s, str) and s in pos, f"order[{k}]", f"unknown label {s!r}")
        lo, hi = pos[pair[0]], pos[pair[1]]
        _expect(lo != hi, f"order[{k}]", "a cover pair cannot be reflexive")
        covers.append((lo, hi))

    reach = [1 << i for i in range(n)]
    for lo, hi in covers:
        reach[lo] |= 1 << hi
    reach = transitive_closure(reach)
    # i lies on a cycle iff some j != i is both above and below it
    for i, (above, below) in enumerate(zip(reach, _converse(reach, n))):
        if above & below != 1 << i:
            raise LatticeFormatError(f"order: cover pairs form a cycle through {labels[i]!r}")

    def table(key: str) -> list[bytes]:
        raw = doc[key]
        _expect(isinstance(raw, list) and len(raw) == n, key, f"must have {n} rows")
        # rows of n known labels map in C; otherwise the scan below names
        # the first bad row or cell, and so always raises
        if all(isinstance(row, list) and len(row) == n for row in raw):
            try:
                return [bytes(map(pos.__getitem__, row)) for row in raw]
            except (KeyError, TypeError):  # not a label, or unhashable
                pass
        for i, row in enumerate(raw):
            _expect(
                isinstance(row, list) and len(row) == n,
                f"{key}[{i}]", f"must have {n} entries",
            )
            for j, s in enumerate(row):
                _expect(isinstance(s, str) and s in pos, f"{key}[{i}][{j}]", f"unknown label {s!r}")

    odot = table("odot")
    lat = from_order(labels, _bit_rows(reach, n), odot)
    if not lat.validation.valid:
        raise ValidationFailed(lat.validation)
    if "imp" in doc:
        given = tuple(table("imp"))
        if given != lat.imp:
            x = _first_difference(given, lat.imp)
            y = _first_difference(given[x], lat.imp[x])
            raise ValidationFailed(
                ValidationReport(False, (Violation("imp-mismatch", (x, y)),)),
                "imp table does not match the derived residuum",
            )
    return LatticeDocument(name=name, lattice=lat)


def parse_lattice(text: str) -> ResiduatedLattice:
    return parse_document(text).lattice


# ---------------------------------------------------------------------------
# serialization


def to_document_dict(lat: ResiduatedLattice, name: str) -> dict:
    """The document of lat in canonical form, as a dict for json.dumps.

    Cell (x, y) of the document's table is cell (order[x], order[y]) of
    lat's, and it prints the label of the value it holds.  So each row is
    one C-level gather, the bytes of order translated by lat's row, mapped
    to labels.  order and the relabeled cover pairs come from the reduct
    (``BoundedLattice.document_layout``), which the products of an
    enumerated lattice share.
    """
    order, pairs = lat.reduct.document_layout
    old_labels = lat.labels
    labels = list(map(old_labels.__getitem__, order))

    def relabel(table: Table) -> list[list[str]]:
        # the padding of each row to 256 bytes is never read: order < size
        return [
            list(map(old_labels.__getitem__, order.translate(table[old].ljust(256))))
            for old in order
        ]

    return {
        "name": name,
        "size": lat.size,
        "labels": labels,
        "order": [[labels[lo], labels[hi]] for lo, hi in pairs],
        "odot": relabel(lat.odot),
        "imp": relabel(lat.imp),
    }


def serialize_document(doc: LatticeDocument) -> str:
    return json.dumps(to_document_dict(doc.lattice, doc.name), sort_keys=True, indent=2) + "\n"


def serialize_lattice(lat: ResiduatedLattice, name: str | None = None) -> str:
    return serialize_document(LatticeDocument(name or f"L{lat.size}", lat))


def bundled_text(name: str) -> str:
    """Text of a bundled lattice document, e.g. bundled_text('a6')."""
    return resources.files("reslat.data").joinpath(f"{name}.json").read_text("utf-8")


def load_bundled(name: str) -> LatticeDocument:
    return parse_document(bundled_text(name))


# ---------------------------------------------------------------------------
# DOT export


def _dot_id(text: str) -> str:
    """text as a quoted DOT ID, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot(name: str, shape: str, nodes: tuple[str, ...], up: tuple[int, ...]) -> str:
    """A DOT digraph of the covers of the order given by up-masks."""
    ids = [_dot_id(s) for s in nodes]
    lines = [f"digraph {_dot_id(name)} {{", "  rankdir=BT;", f"  node [shape={shape}];"]
    lines += [f"  {s};" for s in ids]
    lines += [f"  {ids[lo]} -> {ids[hi]};" for lo, hi in cover_pairs(up)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_hasse(lat: ResiduatedLattice, name: str = "lattice") -> str:
    return _dot(name, "circle", lat.labels, lat.up)


def dot_spectrum(lat: ResiduatedLattice, name: str = "spectrum") -> str:
    from .spectra import prime_spectrum

    spec = prime_spectrum(lat)
    return _dot(name, "box", tuple(format_set(lat, p) for p in spec.primes), spec.above)
