from __future__ import annotations

import json
import random

import pytest

from reslat import ValidationFailed, from_order, parse_lattice
from reslat.cli import main
from reslat.enumerator import enumerate_residuated
from reslat.filters import all_filters, quotient
from reslat.latfile import (
    LatticeFormatError,
    bundled_text,
    dot_hasse,
    dot_spectrum,
    load_bundled,
    parse_document,
    serialize_document,
    serialize_lattice,
    to_document_dict,
)

from lattices import build_a6, godel_chain_document, relabeled
from oracles import cell_document_dict


def test_bundled_round_trips_are_byte_exact():
    for name in ("a6", "a8"):
        text = bundled_text(name)
        doc = parse_document(text)
        assert serialize_document(doc) == text


def test_bundled_names():
    assert load_bundled("a6").name == "A6"
    assert load_bundled("a8").name == "A8"


def test_parse_matches_hand_built(a6):
    assert load_bundled("a6").lattice == build_a6()
    assert parse_lattice(bundled_text("a6")) == a6
    assert repr(a6) == "ResiduatedLattice(0,a,b,c,d,1)"


def _doc(**overrides):
    base = json.loads(bundled_text("a6"))
    base.update(overrides)
    return json.dumps(base)


def test_unknown_product_label_names_the_cell():
    doc = json.loads(bundled_text("a6"))
    doc["odot"][2][3] = "x"
    with pytest.raises(LatticeFormatError, match=r"odot\[2\]\[3\].*'x'"):
        parse_document(json.dumps(doc))


def test_cover_cycle_is_rejected():
    doc = json.loads(bundled_text("a6"))
    doc["order"].append(["1", "0"])
    with pytest.raises(LatticeFormatError, match="cycle"):
        parse_document(json.dumps(doc))


def test_duplicate_labels_rejected():
    with pytest.raises(LatticeFormatError, match="unique"):
        parse_document(_doc(labels=["0", "a", "a", "c", "d", "1"]))


def test_size_mismatch_rejected():
    with pytest.raises(LatticeFormatError, match="size"):
        parse_document(_doc(size=7))


def test_missing_and_unknown_keys_rejected():
    doc = json.loads(bundled_text("a6"))
    del doc["odot"]
    with pytest.raises(LatticeFormatError, match="missing"):
        parse_document(json.dumps(doc))
    with pytest.raises(LatticeFormatError, match="unknown keys"):
        parse_document(_doc(extra=1))


def test_invalid_json_positions():
    with pytest.raises(LatticeFormatError, match="line"):
        parse_document("{broken")


def test_imp_mismatch_embeds_report():
    doc = json.loads(bundled_text("a6"))
    doc["imp"][1][0] = "d"  # derived value is c
    with pytest.raises(ValidationFailed) as exc:
        parse_document(json.dumps(doc))
    assert exc.value.report.violations[0].axiom == "imp-mismatch"
    assert exc.value.report.violations[0].witness == (1, 0)


def test_axiom_failure_embeds_report():
    doc = json.loads(bundled_text("a6"))
    del doc["imp"]
    doc["odot"][1][3] = "a"
    doc["odot"][3][1] = "a"
    with pytest.raises(ValidationFailed):
        parse_document(json.dumps(doc))


def _flipped_two_chain():
    return from_order(("t", "b"), [[True, False], [True, True]], [[0, 1], [1, 1]])


def test_serializer_moves_bounds_to_canonical_positions():
    # a two-chain entered upside down: the bottom sits at index 1
    lat = _flipped_two_chain()
    assert lat.bottom == 1 and lat.top == 0
    doc = to_document_dict(lat, "flipped")
    assert doc["labels"] == ["b", "t"]
    assert doc["order"] == [["b", "t"]]
    reparsed = parse_document(serialize_lattice(lat, "flipped"))
    assert reparsed.lattice.bottom == 0


def _moving_bounds(lat, rng):
    """A random relabeling of lat that moves its bottom and its top."""
    n = lat.size
    while True:
        perm = rng.sample(range(n), n)
        if n == 1 or (perm[lat.bottom] != lat.bottom and perm[lat.top] != lat.top):
            return relabeled(lat, perm)


def test_serializer_matches_the_per_cell_oracle(a6, a8, corpus5):
    # the gathers on bytes rows and the reduct's cover pairs against one
    # lookup per cell and cover_pairs(up): the bundled documents, a lattice
    # stored upside down, every product of order <= 5 with its bounds moved
    # (relabeled puts old element perm[i] at position i), and every quotient
    # of a8, whose labels are classes such as {a,b}
    rng = random.Random(34)
    moved = [_moving_bounds(lat, rng) for lat in corpus5]
    assert all(lat.bottom != 0 and lat.top != lat.size - 1 for lat in moved if lat.size > 1)
    quotients = [quotient(a8, f) for f in all_filters(a8)]
    assert any("," in label for lat in quotients for label in lat.labels)
    cases = [a6, a8, _flipped_two_chain(), *moved, *quotients]
    for k, lat in enumerate(cases):
        assert to_document_dict(lat, f"L{k}") == cell_document_dict(lat, f"L{k}"), lat


def test_one_element_document_round_trip():
    lat = enumerate_residuated(1, workers=1)[0]
    text = serialize_lattice(lat, "point")
    doc = parse_document(text)
    assert doc.lattice.size == 1
    assert serialize_document(doc) == text


def test_boolean_size_rejected(capsys, tmp_path):
    # True == 1, so a one-element document must not accept "size": true
    doc = json.loads(serialize_lattice(enumerate_residuated(1, workers=1)[0], "point"))
    doc["size"] = True
    text = json.dumps(doc)
    with pytest.raises(LatticeFormatError, match="size"):
        parse_document(text)
    p = tmp_path / "bool_size.json"
    p.write_text(text)
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err.startswith("error: size")


def test_oversized_document_rejected_before_any_table_work(monkeypatch):
    import reslat.core
    import reslat.latfile

    def unreachable(*args):
        raise AssertionError("reached on a document over the size limit")

    monkeypatch.setattr(reslat.core, "validate_axioms", unreachable)
    monkeypatch.setattr(reslat.latfile, "transitive_closure", unreachable)
    monkeypatch.setattr(reslat.core, "bounded_lattice_ops", unreachable)
    with pytest.raises(LatticeFormatError, match="at most 256"):
        parse_document(json.dumps(godel_chain_document(257)))


def test_enumerated_three_chains_serialize_distinctly():
    texts = {
        serialize_lattice(lat) for lat in enumerate_residuated(3, workers=1)
    }
    assert len(texts) == 2


def test_enumerated_documents_round_trip(corpus4):
    for lat in corpus4:
        text = serialize_lattice(lat)
        doc = parse_document(text)
        assert doc.lattice == lat
        assert serialize_document(doc) == text


def test_dot_hasse_output(a6):
    dot = dot_hasse(a6, "A6")
    assert dot.startswith('digraph "A6"')
    assert '"d" -> "1";' in dot
    assert '"0" -> "a";' in dot
    assert dot.count("->") == 6


def test_dot_spectrum_output(a8):
    dot = dot_spectrum(a8, "A8")
    assert '"{f,1}" -> "{a,c,d,e,f,1}";' in dot
    assert '"{c,e,1}" -> "{a,c,d,e,f,1}";' in dot
