from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from reslat.cli import main
from reslat.latfile import bundled_text

from lattices import godel_chain_document


@pytest.fixture(scope="module")
def a6_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("docs") / "a6.json"
    p.write_text(bundled_text("a6"))
    return str(p)


@pytest.fixture(scope="module")
def a8_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("docs") / "a8.json"
    p.write_text(bundled_text("a8"))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, a6_path):
    code, out, _ = run(capsys, "validate", a6_path)
    assert code == 0
    assert "valid" in out


def test_validate_bad_file(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 1
    assert "error" in err


def test_validate_axiom_failure(capsys, tmp_path):
    doc = json.loads(bundled_text("a6"))
    del doc["imp"]
    doc["odot"][1][3] = "a"
    doc["odot"][3][1] = "a"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 1
    assert out == ""
    # every violated axiom with its lexicographically first witness
    assert err == (
        "error: axioms violated: ['odot-associative', 'adjointness', 'odot-join-distributive']\n"
        "  odot-associative at (1, 2, 3)\n"
        "  adjointness at (3, 1, 0)\n"
        "  odot-join-distributive at (3, 1, 2)\n"
    )


def test_validate_runs_the_axiom_check_once(capsys, monkeypatch, a6_path):
    import reslat.cli
    import reslat.core
    import reslat.latfile

    calls = []
    check = reslat.core.validate_axioms

    def counted(lat):
        calls.append(lat.size)
        return check(lat)

    for module in (reslat.core, reslat.latfile, reslat.cli):
        monkeypatch.setattr(module, "validate_axioms", counted, raising=False)
    code, out, _ = run(capsys, "validate", a6_path)
    assert (code, out) == (0, "A6: valid (6 elements)\n")
    assert calls == [6]
    code, out, _ = run(capsys, "validate", a6_path, "--json")
    assert (code, out) == (0, '{"name": "A6", "valid": true}\n')
    assert calls == [6, 6]


def test_oversized_document_is_input_error(capsys, tmp_path):
    text = json.dumps(godel_chain_document(257)).encode()
    err = _mp_input_error(capsys, tmp_path / "chain257.json", text)
    assert err == "error: size: 257 elements: at most 256 are supported\n"


def test_largest_supported_document_is_accepted(capsys, tmp_path):
    p = tmp_path / "chain256.json"
    p.write_text(json.dumps(godel_chain_document(256)))
    code, out, _ = run(capsys, "validate", str(p))
    assert (code, out) == (0, "chain256: valid (256 elements)\n")


def test_analyze_json_golden(capsys, a6_path):
    code, out, _ = run(capsys, "analyze", a6_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert {frozenset(f) for f in data["filters"]} == {
        frozenset("1"),
        frozenset({"a", "b", "d", "1"}),
        frozenset({"c", "d", "1"}),
        frozenset({"d", "1"}),
        frozenset({"0", "a", "b", "c", "d", "1"}),
    }
    assert {frozenset(f) for f in data["maximal"]} == {
        frozenset({"a", "b", "d", "1"}),
        frozenset({"c", "d", "1"}),
    }
    assert data["minimal"] == [["1"]]
    assert data["domain"] is True


def test_mp_exit_codes(capsys, a6_path, a8_path):
    code, out, _ = run(capsys, "mp", a6_path)
    assert code == 0
    assert "mp: true" in out
    code, out, _ = run(capsys, "mp", a8_path, "--witness")
    assert code == 3
    assert "mp: false" in out
    assert "unique_minimal_per_prime" in out


def test_mp_json(capsys, a8_path):
    code, out, _ = run(capsys, "mp", a8_path, "--json")
    assert code == 3
    data = json.loads(out)
    assert data["mp"] is False and data["agree"] is True
    assert all(v is False for v in data["verdicts"].values())


def test_pure_report(capsys, a8_path):
    code, out, _ = run(capsys, "pure", a8_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["purely_prime"] == [["1"]]


def test_topology_report(capsys, a8_path):
    code, out, _ = run(capsys, "topology", a8_path, "--space", "min", "--variant", "dual", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["points"]) == 2
    code, out, _ = run(capsys, "topology", a8_path, "--json")
    data = json.loads(out)
    assert data["normal"] is False


def test_quotient_output_parses(capsys, a6_path):
    code, out, _ = run(capsys, "quotient", a6_path, "--filter", "d,1")
    assert code == 0
    from reslat.latfile import parse_document

    doc = parse_document(out)
    assert doc.lattice.size == 4


def test_quotient_rejects_non_filter(capsys, a6_path):
    code, _, err = run(capsys, "quotient", a6_path, "--filter", "d")
    assert code == 1
    assert "not a filter" in err


def test_enumerate_census(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "3", "--census")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["order", "lattices", "residuated", "mp", "rickart", "baer", "domains"]
    assert lines[3].split() == ["3", "1", "2", "2", "2", "2", "2"]


def test_enumerate_stream(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "3")
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(docs) == 2
    assert all(d["size"] == 3 for d in docs)


def test_dot_command(capsys, a6_path):
    code, out, _ = run(capsys, "dot", a6_path, "--what", "spec")
    assert code == 0
    assert out.startswith("digraph")


def test_unknown_flag_is_input_error(capsys, a6_path):
    with pytest.raises(SystemExit) as exc:
        main(["mp", a6_path, "--bogus"])
    assert exc.value.code == 1


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "mp", "/nonexistent/file.json")
    assert code == 1
    assert "error" in err


def test_bad_thread_count_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("RESLAT_THREADS", "abc")
    code, out, err = run(capsys, "enumerate", "--size", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "RESLAT_THREADS" in err and "'abc'" in err


def _mp_input_error(capsys, path, content: bytes) -> str:
    path.write_bytes(content)
    code, out, err = run(capsys, "mp", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    err = _mp_input_error(capsys, tmp_path / "deep.json", b"[" * 100000 + b"]" * 100000)
    assert "nested too deeply" in err


def test_overlong_integer_is_input_error(capsys, tmp_path):
    # past the default int_max_str_digits (4300), int() itself refuses the literal
    err = _mp_input_error(capsys, tmp_path / "big.json", b'{"size": 1' + b"0" * 5000 + b"}")
    assert "too many digits" in err


def test_non_utf8_file_is_input_error(capsys, tmp_path):
    err = _mp_input_error(capsys, tmp_path / "bom.json", b'\xff\xfe{"name": "x"}')
    assert "not UTF-8" in err


def test_non_string_label_is_input_error(capsys, tmp_path):
    doc = json.loads(bundled_text("a6"))
    doc["odot"][0][0] = {"a": 1}
    err = _mp_input_error(capsys, tmp_path / "cell.json", json.dumps(doc).encode())
    assert err == "error: odot[0][0]: unknown label {'a': 1}\n"
    doc["order"][0][0] = ["a"]
    err = _mp_input_error(capsys, tmp_path / "pair.json", json.dumps(doc).encode())
    assert err == "error: order[0]: unknown label ['a']\n"


def _run_cli(args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "reslat", *args],
        capture_output=True,
        env=full_env,
        timeout=300,
    )


def test_enumerate_bytes_identical_across_worker_counts():
    runs = [
        _run_cli(["enumerate", "--size", "5"], {"RESLAT_THREADS": w})
        for w in ("1", "2", "4")
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert len(runs[0].stdout) > 0
