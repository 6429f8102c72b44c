from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from reslat.cli import main
from reslat.core import MAX_DOCUMENT_BYTES
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


@pytest.fixture
def colliding_path(capsys, tmp_path):
    """R5_0 relabeled 0 -> "p,q", b -> "p", c -> "q": its classes {0} and
    {b,c} modulo {a,1} both print as {p,q}."""
    code, out, _ = run(capsys, "enumerate", "--size", "5")
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["name"] == "R5_0"
    new = {"0": "p,q", "b": "p", "c": "q"}.get
    for key in ("order", "odot", "imp"):
        doc[key] = [[new(s, s) for s in row] for row in doc[key]]
    doc["labels"] = [new(s, s) for s in doc["labels"]]
    p = tmp_path / "colliding.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_mp_accepts_quotient_classes_that_print_alike(capsys, colliding_path):
    code, _, err = run(capsys, "validate", colliding_path)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "mp", colliding_path)
    assert (code, out, err) == (3, "mp: false (28/28 characterizations agree)\n", "")


def test_quotient_rejects_classes_that_print_alike(capsys, colliding_path):
    code, out, err = run(capsys, "quotient", colliding_path, "--filter", "a,1")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: --filter: two classes print the same label {p,q}"]


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


DOT_ID = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _dot_ids(text: str) -> tuple[list[str], str]:
    """The quoted IDs of DOT text, unescaped, and the text with each one as ID."""
    return [re.sub(r"\\(.)", r"\1", s) for s in DOT_ID.findall(text)], DOT_ID.sub("ID", text)


@pytest.mark.parametrize("what", ["hasse", "spec"])
def test_dot_reads_back_every_name_and_label(capsys, tmp_path, a6_path, what):
    # a6 named x"y, with labels that hold quotes and backslashes, one of
    # them ending in a backslash: every ID reads back exactly, and the
    # text around the IDs is that of a6's own DOT
    new = {"a": 'a"b', "c": "c\\", "d": '\\"d'}.get
    doc = json.loads(bundled_text("a6"))
    for key in ("order", "odot", "imp"):
        doc[key] = [[new(s, s) for s in row] for row in doc[key]]
    doc["labels"] = [new(s, s) for s in doc["labels"]]
    doc["name"] = 'x"y'
    p = tmp_path / "quotes.json"
    p.write_text(json.dumps(doc))

    def relabel(node: str) -> str:
        if node.startswith("{"):
            return "{" + ",".join(new(s, s) for s in node[1:-1].split(",")) + "}"
        return new(node, node)

    code, plain, _ = run(capsys, "dot", a6_path, "--what", what)
    assert code == 0
    plain_ids, plain_frame = _dot_ids(plain)
    code, out, _ = run(capsys, "dot", str(p), "--what", what)
    assert code == 0
    ids, frame = _dot_ids(out)
    assert frame == plain_frame
    assert ids == ['x"y'] + [relabel(s) for s in plain_ids[1:]]


def test_module_entry_point(capsys, monkeypatch, a6_path):
    import runpy

    monkeypatch.setattr(sys, "argv", ["reslat", "validate", a6_path])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("reslat", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "A6: valid (6 elements)\n"


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


def _mp_input_error(capsys, path, content: bytes, size: int | None = None) -> str:
    path.write_bytes(content)
    if size is not None:
        os.truncate(path, size)  # a sparse tail of NUL bytes: nothing large is written
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


def test_oversized_file_is_input_error(capsys, tmp_path):
    path, a6 = tmp_path / "big.json", bundled_text("a6").encode()
    err = _mp_input_error(capsys, path, a6, size=MAX_DOCUMENT_BYTES + 1)
    assert err == f"error: {path}: larger than {MAX_DOCUMENT_BYTES} bytes\n"
    # at the limit the file is read and parsed, and its padding is extra data
    err = _mp_input_error(capsys, path, a6, size=MAX_DOCUMENT_BYTES)
    assert err.endswith(": Extra data\n")


def test_overlong_order_is_input_error(capsys, tmp_path):
    doc = json.loads(bundled_text("a6"))
    covers = doc["order"]
    doc["order"] = (covers * 3)[:15]  # six elements: at most 15 pairs, repeats allowed
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "mp", str(path))[0] == 0
    doc["order"].append(covers[0])
    err = _mp_input_error(capsys, path, json.dumps(doc).encode())
    assert err == "error: order: 16 pairs: more than 15 repeat one or form a cycle\n"


def test_non_string_label_is_input_error(capsys, tmp_path):
    doc = json.loads(bundled_text("a6"))
    doc["odot"][0][0] = {"a": 1}
    err = _mp_input_error(capsys, tmp_path / "cell.json", json.dumps(doc).encode())
    assert err == "error: odot[0][0]: unknown label {'a': 1}\n"
    doc["order"][0][0] = ["a"]
    err = _mp_input_error(capsys, tmp_path / "pair.json", json.dumps(doc).encode())
    assert err == "error: order[0]: unknown label ['a']\n"


@pytest.mark.parametrize("key", ["odot", "imp"])
@pytest.mark.parametrize(
    "last, problem",
    [
        (["z"], "[7][7]: unknown label 'z'"),
        ([True], "[7][7]: unknown label True"),
        ([None], "[7][7]: unknown label None"),
        ([["1"]], "[7][7]: unknown label ['1']"),
        ([], "[7]: must have 8 entries"),
    ],
    ids=["unknown", "bool", "null", "nested", "short"],
)
def test_bad_table_cell_is_named(capsys, tmp_path, key, last, problem):
    # the last cell of the last row replaced by last: every row before it
    # is well formed, so the rows map to indices in one pass until the
    # last, and only then is the table scanned cell by cell
    doc = json.loads(bundled_text("a8"))
    doc[key][-1][-1:] = last
    err = _mp_input_error(capsys, tmp_path / "cell.json", json.dumps(doc).encode())
    assert err == f"error: {key}{problem}\n"


# The exit code and the sha256 of stdout of each run through cli.main on the
# bundled files, text and JSON output alike.  The output of the documents too
# large for tier-1 is pinned in the CI workflow instead.
OUTPUT_PINS = {
    "analyze {a6}": (0, "77f9212347594dada07748d0737d11e5af37c6ce98fc95285781478dabacced5"),
    "pure {a6}": (0, "1417913ffb562516f20af629acded8e090bd8bfa9fbd4fcb426a506f5956cef0"),
    "topology {a6} --space spec --variant hull": (0, "ee8534d9015b69336b270624e0de433b7ef2a7f91cb280cbf973458a8f20ca72"),
    "topology {a6} --space spec --variant dual": (0, "3278d3a954c43621b04a2b86c9d627c5ac09a19be1afad41495695482843ba1a"),
    "topology {a6} --space spec --variant patch": (0, "a34bceb380d8a286bcbb4c96e3d6fc3c60fc1567914bb740e1c45ad4d2872cad"),
    "topology {a6} --space min --variant hull": (0, "c73eb6f4c684aae0715665efe663033d7743bcb7a2cb14b4b539cf03bea31374"),
    "topology {a6} --space min --variant dual": (0, "220f1b3a143bb94f7a9c28edf00489c51e229f6464cf2b74421bd903905ea32d"),
    "topology {a6} --space min --variant patch": (0, "afcd4c5fefd2b351404f07893e3554248f1c423275645819190b7928d735b969"),
    "mp {a6} --witness": (0, "0b0557113518c4a54611c0daff1f5ae38cd3159d9313c41eaebbfaa88662e346"),
    "mp {a6} --json --witness": (0, "d6763f2556ad6acee7afc333aea67e5dc8d6ada98a2820e3a2f519acdf274ec5"),
    "dot {a6}": (0, "b1366797cc41e5e27775b6670d99fd8f4871bf22d1e86156b858f2e37703c8af"),
    "dot {a6} --what spec": (0, "45c1c8aa59a7950d8e88df632f1b0470b861047d9d1a969e48c3d6583102500d"),
    "analyze {a8}": (0, "97ad15b1bd682feb7041888dac5b0fd767dc8691dce4b896c367e0183b328b55"),
    "pure {a8}": (0, "ae81efa2a4a414d45daa7a6b1f05a6fb9118281f100d6f9264c26d2019e05da8"),
    "topology {a8} --space spec --variant hull": (0, "2ae973bfdacee1b55d967eb05ffa357bd88c7d2379864669175c179d28eae251"),
    "topology {a8} --space spec --variant dual": (0, "c6a14747a0414e4316de933505f3b9e1fbff83cf2e8cf337e9263aae60d6f6b3"),
    "topology {a8} --space spec --variant patch": (0, "78164baf04173954486dce5732224156fc399e4d63eca27fb7944bf16163e7c3"),
    "topology {a8} --space min --variant hull": (0, "1295a97215f4fec12d40d3adc177520bc69e3517589783ab9b9ebad2c41c142c"),
    "topology {a8} --space min --variant dual": (0, "b958d338f9241fe34c95fd43f6d79093b2ab14f40abba9a88ae30856175f1703"),
    "topology {a8} --space min --variant patch": (0, "bf9e4c5755fb87ed94178f8ab07224fd670c36024f0017e0bff52e31253cb0b0"),
    "mp {a8} --witness": (3, "a970f03deb35d8bcecc3dc3139471bf4a55df3d73c7c7f80a810c775444a055a"),
    "mp {a8} --json --witness": (3, "0c2e7b7733752acb735af6435c569becc7ae9afbca5a31e6428a18b838482d68"),
    "dot {a8}": (0, "5a4f6a1455720be5f3deef56ad7d97402a828b5312666e728df8c22dbd18e44c"),
    "dot {a8} --what spec": (0, "9a81e99dd51135ffaa806b005f0ed30ba5f0ce54c195fd83680c4c8dfdb7eb81"),
    "analyze {a6} --json": (0, "560f1a5025135c197a09dbef47a01d09ffc2089e703344186b67d67e5655480e"),
    "pure {a6} --json": (0, "7be94fe43dc9f8ffde2ebf0b3b28500028af233c2842a78caca3d6195d71e145"),
    "topology {a6} --json --space spec --variant hull": (0, "43716eebc13b9f1ca4ce9e32ea47e80ab1eb9368cc9e3428569af2ebc75cbe6e"),
    "topology {a6} --json --space spec --variant dual": (0, "19c6192e922913d52525f0b04c4caf7dd3d1ddff6e895c12d0e0f738838f4d31"),
    "topology {a6} --json --space spec --variant patch": (0, "8f1264af8fd284661103d21b46254a0f271591c92b1d2bd3f9637f218cc19eda"),
    "topology {a6} --json --space min --variant hull": (0, "84fac1470ea95c31b043a5af7e1359af9827d5b61d00945ba55965c7179cd1f9"),
    "topology {a6} --json --space min --variant dual": (0, "ff5169b28830bc2258612d04e2e508a81a7388ebfdff61e3a1ff07b74a07506b"),
    "topology {a6} --json --space min --variant patch": (0, "462b02728cda37fc85d312877255cb9272817359c844306facc1378f9f3c2027"),
    "analyze {a8} --json": (0, "cdefa405a817be7383061e897ce8600424738d5feab3d8ebbdf02a3121cb7528"),
    "pure {a8} --json": (0, "1b0fe02c5d109c6ae5e61f521db88ed3c2cca113749c4fd05d060ec80f728bf1"),
    "topology {a8} --json --space spec --variant hull": (0, "ead8b518f037b5ef0fae91a19486b6ba68f05151c8dfbf322d6f379db45c45a0"),
    "topology {a8} --json --space spec --variant dual": (0, "16e35faae6977806d991ed30b2901f40799400177b3d2f62913b754fbb60f9d7"),
    "topology {a8} --json --space spec --variant patch": (0, "4eb93af678d105bdbd947409f73088a5cbb561dc373a879fbe8e6d90b6cda6a3"),
    "topology {a8} --json --space min --variant hull": (0, "55c44d17d92166a333f97983159a65d4a863d0d7014665eab403d523927d1bae"),
    "topology {a8} --json --space min --variant dual": (0, "7bad194e029b82b48842a9e704963327c443a267938dffaead1ab527238ee270"),
    "topology {a8} --json --space min --variant patch": (0, "b18a33b254f39a0fa8f51393a7accb7af9d295e1bb59552b5281ee3be96462a3"),
    "quotient {a6} --filter a,b,d,1": (0, "8dada898432ef277848f470f93efcfcad9da3411ff28d7846642819a7a92fd92"),
    "quotient {a6} --filter 1": (0, "5bb156506812043f673b7af553b97aca217305618ed220192cd9d1849644788c"),
    "quotient {a8} --filter 1": (0, "eaa4670b5f513af583902066886e8c34c3fd01f2f1edd8e894e1f36bf75cc83c"),
    "validate {a6} --json": (0, "5c8d71edf9f1e2418d730fc39c837a50137a306f4f39e0d82c43293a5b91bea3"),
    "enumerate --size 7 --census --json": (0, "48fe716aa4b3e60d80a8a395aa33ac30d935a9e3427264b539e7d56aa0d4d568"),
}


@pytest.mark.parametrize("command", list(OUTPUT_PINS))
def test_output_is_pinned(capsys, monkeypatch, a6_path, a8_path, command):
    monkeypatch.setenv("RESLAT_THREADS", "1")
    argv = [arg.format(a6=a6_path, a8=a8_path) for arg in command.split()]
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == OUTPUT_PINS[command]
    assert err == ""


@pytest.mark.parametrize(
    "command, message",
    [
        ("quotient {a6} --filter a,z", "error: --filter: unknown label 'z'"),
        ("enumerate --size 0", "error: --size must be between 1 and 8"),
    ],
)
def test_input_error_is_one_line(capsys, a6_path, command, message):
    code, out, err = run(capsys, *(arg.format(a6=a6_path) for arg in command.split()))
    assert (code, out) == (1, "")
    assert err.splitlines() == [message]


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


# a patch made in the test process reaches the pool workers only through fork
forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patch reaches pool workers only through fork",
)


def _internal_error(capsys, monkeypatch) -> str:
    # order 4 is the first with two lattices, so two workers start and no more
    monkeypatch.setenv("RESLAT_THREADS", "2")
    code, out, err = run(capsys, "enumerate", "--size", "4", "--census")
    assert code == 2
    assert out == ""
    assert err.startswith("internal error: ") and err.count("internal error:") == 1
    assert "Traceback" not in err
    return err


@forked_workers
def test_disagreement_in_a_worker_is_an_internal_error(capsys, monkeypatch):
    from reslat import mp

    parent = os.getpid()
    (name, family), *others = mp.FAMILIES

    def flipped(lat):
        verdicts = family(lat)
        if os.getpid() == parent:
            return verdicts
        return {k: mp.Verdict(not v.value) for k, v in verdicts.items()}

    monkeypatch.setattr(mp, "FAMILIES", ((name, flipped), *others))
    err = _internal_error(capsys, monkeypatch)
    assert err.startswith("internal error: mp characterizations disagree")
    assert "\nlattice: " in err


@forked_workers
def test_dead_worker_is_an_internal_error(capsys, monkeypatch):
    from reslat import enumerator

    parent = os.getpid()
    build = enumerator._build

    def exit_in_worker(*args):
        if os.getpid() != parent:
            os._exit(1)
        return build(*args)

    monkeypatch.setattr(enumerator, "_build", exit_in_worker)
    err = _internal_error(capsys, monkeypatch)
    assert err.startswith("internal error: enumerator: a worker process died")
    assert err.count("\n") == 1
