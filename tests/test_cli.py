"""Command-line behavior: flags, output formats, and exit codes."""

import json

import pytest

from braidjones.cli import PRESETS, main, weaving_word
from braidjones.qalgebra import LaurentQ


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


def test_weaving_word():
    assert weaving_word(2).letters == (-1, 2, -1, 2)
    with pytest.raises(ValueError):
        weaving_word(0)


def test_presets_all_resolve(capsys):
    for name in PRESETS:
        code, out, _ = run_cli(capsys, "--preset", name, "--states", "count")
        assert code == 0
        assert int(out.strip()) >= 1
