"""Command-line behavior: flags, output formats, and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import braidjones
from braidjones import BraidWord, colored_jones_framed, parse

from braidjones import cli, statesum
from braidjones.cli import PRESETS, main, weaving_word
from braidjones.qalgebra import LaurentQ
from braidjones.diagram import build
from braidjones.states import MINUS, PLUS, enumerate_states
from braidjones.statesum import ModelMismatchError


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_framed_value(capsys):
    code, out, err = run_cli(capsys, "--braid", "-1", "--n", "2", "--model", "both")
    assert (code, err) == (0, "")
    assert out == "t^2\n"


def test_unframed_weaving(capsys):
    code, out, _ = run_cli(capsys, "--weaving", "3", "--unframed")
    assert code == 0
    assert out.strip() == (
        "-t^(-3) + 3*t^(-2) - 2*t^(-1) + 4 - 2*t + 3*t^2 - t^3"
    )
    # amphichiral: the printed polynomial is its own reflection
    value = LaurentQ({4 * k: c for k, c in ((-3, -1), (-2, 3), (-1, -2), (0, 4), (1, -2), (2, 3), (3, -1))})
    assert value.substitute_inverse() == value


def test_states_count(capsys):
    code, out, _ = run_cli(
        capsys, "--braid", "-1 -1 -1 -1 -1 -1", "--states", "count", "--n", "1"
    )
    assert code == 0
    assert out == "6\n"


def test_states_dump(capsys):
    code, out, _ = run_cli(capsys, "--preset", "hopf-plus", "--states", "dump")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(
        line.startswith("beta=[") and " j=[" in line and " i=[" in line
        for line in lines
    )
    keys = [line.split(" j=")[0] for line in lines]
    assert keys == sorted(keys)


def test_json_output(capsys):
    code, out, _ = run_cli(capsys, "--preset", "hopf-plus", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["braid"] == "1 1"
    assert doc["strands"] == 2
    assert doc["n"] == 1
    assert doc["model"] == "both"
    assert doc["writhe"] == 2
    assert doc["components"] == 2
    assert doc["state_count"] == 3
    assert doc["framed"]["terms"] == [[-4, "1"], [4, "1"]]
    assert doc["unframed"]["terms"] == [[2, "1"], [10, "1"]]
    framed = LaurentQ({q: int(c) for q, c in doc["framed"]["terms"]})
    assert str(framed) == "t^(-1) + t"


def test_dump_diagram(capsys):
    code, out, _ = run_cli(capsys, "--preset", "sample-knot", "--dump-diagram")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["index", "gen", "sign", "sigma", "tau", "jumps-into"]
    row6 = lines[7].split()
    assert row6[0] == "6" and row6[5] == "2,4,5"


def test_graph_out(capsys, tmp_path):
    target = tmp_path / "graph.txt"
    code, out, _ = run_cli(
        capsys, "--preset", "trefoil", "--graph-out", str(target)
    )
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert "node 0 sign=+1 component=0" in text
    assert "edge blue 0 ->" in text
    assert "edge red 0 ->" in text


def test_graph_out_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "graph.txt"
    code, out, err = run_cli(
        capsys, "--preset", "trefoil", "--graph-out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "--verify", "identity", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    assert "PASS pochhammer-sum" in lines


def test_usage_errors(capsys):
    cases = [
        ("--preset", "not-a-link"),
        ("--braid", "1 x"),
        ("--braid", "0"),
        ("--braid", "1", "--n", "0"),
        (),
        ("--braid", ""),
        ("--preset", "trefoil", "--strands", "5", "--n", "1"),
        ("--weaving", "2", "--strands", "4"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")


def test_conflicting_flags():
    with pytest.raises(SystemExit) as exc:
        main(["--braid", "1", "--preset", "trefoil"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--braid", "1", "--framed", "--unframed"])
    assert exc.value.code == 2


def test_model_mismatch_exit_code(capsys):
    # 'both' on a healthy engine never trips, so exercise the plumbing
    code, out, _ = run_cli(capsys, "--preset", "trefoil", "--model", "rmatrix")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "--preset", "trefoil", "--model", "gl")
    assert (code2, out2) == (code, out)


def _corrupt_jump_one(monkeypatch):
    # Double the arc-transition weights at jump 1, bypassing the table
    # cache so no other test sees them.
    vertex = statesum._gl_vertex

    def corrupted(n, sign, i, j, tld):
        value = vertex(n, sign, i, j, tld)
        return value * 2 if j == 1 else value

    monkeypatch.setattr(statesum, "_gl_vertex", corrupted)
    monkeypatch.setitem(statesum._TABLES, PLUS, statesum._gl_step.__wrapped__)


def _forbid_diagrams(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the value path must not build or enumerate")

    for module in (statesum, cli):
        for name in ("build", "enumerate_states"):
            monkeypatch.setattr(module, name, forbidden, raising=False)


# The first entry jump 1 reaches: (a, b) = (0, 1) leaves (0, 1).
BROKEN_ENTRY = "sign +1 entry (0, 1) -> (0, 1) breaks the correspondence"


def test_model_mismatch_report(monkeypatch, capsys):
    # The cross-check must trip and the report must name the corrupted
    # vertex-table entry.
    _corrupt_jump_one(monkeypatch)
    with pytest.raises(ModelMismatchError) as exc:
        colored_jones_framed(BraidWord(3, (1, 1)), 2, "both")
    assert BROKEN_ENTRY in str(exc.value)
    code, out, err = run_cli(capsys, "--braid", "1 1", "--strands", "3", "--n", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: models disagree")
    assert BROKEN_ENTRY in err


def test_mismatch_report_on_long_word(monkeypatch):
    # The report checks vertex-table entries, so its cost does not grow
    # with the word; sigma_1^30 has 1,346,270 (+)-states at n = 1.
    _corrupt_jump_one(monkeypatch)
    _forbid_diagrams(monkeypatch)
    began = time.perf_counter()
    with pytest.raises(ModelMismatchError, match=r"\(0, 1\) -> \(0, 1\) breaks"):
        colored_jones_framed(BraidWord(2, (1,) * 30), 1, "both")
    assert time.perf_counter() - began < 1


def test_value_path_builds_no_diagram(monkeypatch, capsys):
    b = parse(*PRESETS["sample-knot"])
    value = colored_jones_framed(b, 2, "both")
    requests = [
        ("--preset", "sample-knot", "--n", "2", *extra)
        for extra in (
            (),
            ("--unframed",),
            ("--json",),
            ("--model", "rmatrix", "--json"),
            ("--states", "count"),
            ("--model", "rmatrix", "--states", "count"),
        )
    ]
    outputs = [run_cli(capsys, *argv) for argv in requests]
    assert all(code == 0 for code, _, _ in outputs)
    _forbid_diagrams(monkeypatch)
    assert colored_jones_framed(b, 2, "both") == value
    assert [run_cli(capsys, *argv) for argv in requests] == outputs


def test_weaving_word():
    assert weaving_word(2).letters == (-1, 2, -1, 2)
    with pytest.raises(ValueError):
        weaving_word(0)


def test_presets_all_resolve(capsys):
    for name in PRESETS:
        code, out, _ = run_cli(capsys, "--preset", name, "--states", "count")
        assert code == 0
        assert int(out.strip()) >= 1


def test_states_count_matches_enumeration(capsys):
    # --states count comes from the sweep; the enumeration is the reference.
    for name in PRESETS:
        d = build(parse(*PRESETS[name]))
        for n in (1, 2):
            for model, convention in ((), PLUS), (("--model", "rmatrix"), MINUS):
                argv = ("--preset", name, "--n", str(n), "--states", "count", *model)
                code, out, _ = run_cli(capsys, *argv)
                assert (code, out) == (
                    0,
                    f"{len(enumerate_states(d, n, convention))}\n",
                )


def test_long_word_states_count(capsys):
    word = " ".join(["1 -1"] * 550)
    code, out, _ = run_cli(
        capsys, "--braid", word, "--strands", "2", "--n", "1", "--states", "count"
    )
    assert (code, out) == (0, "2\n")


def test_oversized_color_refused(capsys, tmp_path):
    graph = str(tmp_path / "graph.txt")
    requests = [
        ("--braid", "1 1 1", "--n", "1000000"),
        ("--braid", "1 1 1", "--n", "1000000", "--states", "count"),
        # 10**20 strands or letters: refused before anything is allocated
        ("--braid", "99999999999999999999"),
        ("--braid", "99999999999999999999", "--dump-diagram"),
        ("--braid", "99999999999999999999", "--dump-diagram", "--graph-out", graph),
        ("--weaving", "99999999999999999999"),
    ]
    for argv in requests:
        began = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - began < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too large" in err
    assert not os.path.exists(graph)


def test_python_dash_m():
    src = str(Path(braidjones.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "braidjones", "--preset", "trefoil"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == f"{colored_jones_framed(parse('1 1 1'), 1)}\n"
