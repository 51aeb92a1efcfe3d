"""Command-line behavior: flags, output formats, and exit codes."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import braidjones
from braidjones import BraidWord, colored_jones_framed, parse

from braidjones import cli, diagram, states, statesum
from braidjones.cli import PRESETS, main, weaving_word
from braidjones.qalgebra import LaurentQ
from braidjones.diagram import build
from braidjones.states import MINUS, PLUS, enumerate_states
from braidjones.statesum import WORK_LIMIT, ModelMismatchError
from packing import gl_step, packed, rmatrix_step


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
    # The Borromean rings (3 components): the printed dump is sorted, so it
    # stays fixed whatever order the enumeration lists the states in.
    for model, count, digest in [
        ((), 20, "88ed6b401d286daa"),
        (("--model", "rmatrix"), 63, "7342755c264577f3"),
    ]:
        code, out, _ = run_cli(
            capsys, "--preset", "weaving-3-3", "--n", "2", "--states", "dump", *model
        )
        assert (code, out.count("\n")) == (0, count)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


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
    # Every node carries its crossing's sign and under-component, every blue
    # edge is c -> sigma(c) and every red edge c -> tau(c), as build has them;
    # weaving-3-3 has three components.
    for name, digest in [
        ("trefoil", "a17ee49198f03840"),
        ("sample-knot", "3d683fa1d4bdd4c8"),
        ("weaving-3-3", "d2d054a928d10793"),
    ]:
        code, out, _ = run_cli(capsys, "--preset", name, "--graph-out", str(target))
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        d = build(parse(*PRESETS[name]))
        lines = [line.split() for line in text.splitlines()]
        nodes = [line for line in lines if line[0] == "node"]
        assert nodes == [
            ["node", str(c), f"sign={cr.sign:+d}", f"component={d.under_component[c]}"]
            for c, cr in enumerate(d.crossings)
        ]
        edges = [(color, int(c), int(to)) for _, color, c, _, to in lines[len(nodes) :]]
        assert edges == [("blue", c, to) for c, to in enumerate(d.sigma)] + [
            ("red", c, to) for c, to in enumerate(d.tau) if to is not None
        ]


def test_graph_out_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "graph.txt"
    code, out, err = run_cli(
        capsys, "--preset", "trefoil", "--graph-out", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_usage_errors(capsys):
    # Bad requests: the options combine, but a value is refused.
    cases = [
        ("--braid", "1 x"),
        ("--braid", "1_0"),
        ("--braid", "0"),
        ("--braid", "1", "--n", "0"),
        ("--braid", ""),  # parse refuses the empty word without --strands
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


def test_conflicting_flags(capsys, tmp_path):
    # Options that do not combine: argparse prints its usage line and exits
    # 2, naming the offending option.  --states and --dump-diagram would
    # ignore the value options, and --json, which carries both values, the
    # framing options.
    graph = str(tmp_path / "graph.txt")
    cases = [
        (["--braid", "1", "--preset", "trefoil"], "--preset"),
        (["--braid", "1", "--framed", "--unframed"], "--unframed"),
        # options the command line no longer has
        (["--verify", "all"], "--braid --preset --weaving"),
        (["--preset", "trefoil", "--verify", "all"], "--verify"),
        (["--seed", "3", "--preset", "trefoil"], "--seed"),
        (["--preset", "not-a-link"], "--preset"),
        ([], "--braid --preset --weaving"),
        (["--preset", "trefoil", "--strands", "5", "--n", "1"], "--strands"),
        (["--weaving", "2", "--strands", "4"], "--strands"),
        *(
            (["--preset", "trefoil", *mode, option], option)
            for mode in (("--states", "count"), ("--states", "dump"), ("--dump-diagram",))
            for option in ("--json", "--framed", "--unframed")
        ),
        *(
            (["--preset", "trefoil", "--json", option], option)
            for option in ("--framed", "--unframed")
        ),
        *(
            (
                ["--preset", "trefoil", "--dump-diagram", "--graph-out", graph, *option],
                option[0],
            )
            for option in (("--n", "2"), ("--model", "gl"), ("--states", "count"))
        ),
    ]
    for argv, named in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: braidjones ")
        assert err.splitlines()[-1].startswith("braidjones: error: ")
        assert named in err.splitlines()[-1], argv
        usage = " ".join(err.split())
        assert "(--braid BRAID | --preset NAME | --weaving M)" in usage
        output_group = (
            "[--framed | --unframed | --json | --states {count,dump} | --dump-diagram]"
        )
        assert output_group in usage
    assert not os.path.exists(graph)


def test_model_mismatch_exit_code(capsys):
    # 'both' on a healthy engine never trips, so exercise the plumbing
    code, out, _ = run_cli(capsys, "--preset", "trefoil", "--model", "rmatrix")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "--preset", "trefoil", "--model", "gl")
    assert (code2, out2) == (code, out)


def _corrupt_jump_one(monkeypatch, model="gl"):
    # Double one model's weights at jump 1, in a table swapped in for the
    # model's own so that no other test sees it.
    step, convention = {"gl": (gl_step, PLUS), "rmatrix": (rmatrix_step, MINUS)}[model]

    def corrupted(n, sign, a, b):
        return tuple(w * 2 if r == 1 else w for r, w in enumerate(step(n, sign, a, b)))

    monkeypatch.setitem(statesum._TABLES, convention, packed(corrupted))


def _forbid_diagrams(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the value path must not build or enumerate")

    # The CLI and the reference state sum import these where they use them,
    # so patching their home modules reaches every caller.
    monkeypatch.setattr(diagram, "build", forbidden)
    monkeypatch.setattr(states, "enumerate_states", forbidden)


# The first entry jump 1 reaches: (a, b) = (1, 0) leaves (1, 0).
BROKEN_ENTRY = "sign +1 entry (1, 0) -> (1, 0) breaks the correspondence"


def test_model_mismatch_report(monkeypatch, capsys):
    # The cross-check must trip and the report must name the corrupted
    # vertex-table entry.  The words start with a positive and a negative
    # letter on generator 1, so both anchors of the sweep (0 and n) read
    # the corrupted jump-1 weights.
    _corrupt_jump_one(monkeypatch)
    for word in ("1 1 1", "-1 2 -1 2"):
        with pytest.raises(ModelMismatchError) as exc:
            colored_jones_framed(parse(word, 3), 2, "both")
        assert BROKEN_ENTRY in str(exc.value)
        code, out, err = run_cli(capsys, "--braid", word, "--strands", "3", "--n", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: models disagree")
        assert BROKEN_ENTRY in err


def test_mismatch_report_names_corrupted_rmatrix_weight(monkeypatch):
    # "both" sweeps the R-matrix table alone, so a corrupted R-matrix
    # weight must trip the certificate, which reads both tables.
    _corrupt_jump_one(monkeypatch, "rmatrix")
    for word in ("1 1 1", "-1 2 -1 2"):
        with pytest.raises(ModelMismatchError) as exc:
            colored_jones_framed(parse(word, 3), 2, "both")
        assert BROKEN_ENTRY in str(exc.value)


def test_table_corrupted_after_healthy_call_trips(monkeypatch):
    # The certificate is cached per pair of tables: a healthy call must not
    # let a table swapped in later in the process pass unchecked.
    b = parse("1 1 1")
    healthy = colored_jones_framed(b, 2, "both")
    _corrupt_jump_one(monkeypatch)
    with pytest.raises(ModelMismatchError) as exc:
        colored_jones_framed(b, 2, "both")
    assert BROKEN_ENTRY in str(exc.value)
    monkeypatch.undo()
    assert colored_jones_framed(b, 2, "both") == healthy


def test_mismatch_report_on_long_word(monkeypatch):
    # The report checks vertex-table entries, so its cost does not grow
    # with the word; sigma_1^30 has 1,346,270 (+)-states at n = 1.
    _corrupt_jump_one(monkeypatch)
    _forbid_diagrams(monkeypatch)
    began = time.perf_counter()
    with pytest.raises(ModelMismatchError, match=r"\(1, 0\) -> \(1, 0\) breaks"):
        colored_jones_framed(BraidWord(2, (1,) * 30), 1, "both")
    assert time.perf_counter() - began < 1


def test_mismatch_report_names_missing_writhe_share(monkeypatch):
    # An arc-transition table whose weights drop the writhe share
    # t**(-sign*n^2/4) breaks the identity at every entry, so the report
    # names the first one rather than blaming the sweep.
    def without_writhe_share(n, sign, a, b):
        share = LaurentQ.t_quarter(sign * n * n)
        return tuple(w * share for w in gl_step(n, sign, a, b))

    monkeypatch.setitem(statesum._TABLES, PLUS, packed(without_writhe_share))
    with pytest.raises(ModelMismatchError) as exc:
        colored_jones_framed(parse("1 1 1"), 2, "both")
    assert "sign +1 entry (0, 0) -> (0, 0) breaks the correspondence" in str(exc.value)


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
    assert len(weaving_word(WORK_LIMIT // 2).letters) == WORK_LIMIT
    with pytest.raises(OverflowError, match="exceeds the work limit"):
        weaving_word(WORK_LIMIT // 2 + 1)


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


def test_json_state_count_matches_enumeration(capsys):
    for name in PRESETS:
        b = parse(*PRESETS[name])
        d = build(b)
        for n in (1, 2):
            for model, convention in ("both", PLUS), ("gl", PLUS), ("rmatrix", MINUS):
                argv = ("--preset", name, "--n", str(n), "--model", model, "--json")
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                assert json.loads(out)["state_count"] == (
                    statesum.state_count(b, n, convention)
                ) == len(enumerate_states(d, n, convention))


def test_json_sweeps_once_where_the_count_anchors(monkeypatch, capsys):
    # The (+) count anchors at the sweep's n, where the value sweep anchors
    # when the first generator-1 letter is negative or, for the reversed
    # word, when the last one is; with none, every anchor is as narrow.
    sweeps = []
    sweep = statesum._sweep

    def recording(word, n, table, anchor):
        sweeps.append((word.letters, table, anchor))
        return sweep(word, n, table, anchor)

    monkeypatch.setattr(statesum, "_sweep", recording)
    rm, unit = statesum._rmatrix_row, statesum._unit_row
    for text, strands, expected in (
        ("-1 2 -1 2", 3, [((-1, 2, -1, 2), rm, 2)]),
        ("1 2 -1", 3, [((-1, 2, 1), rm, 2)]),
        ("2 3", 4, [((2, 3), rm, 2)]),
        ("1 1 1", 2, [((1, 1, 1), rm, 0), ((1, 1, 1), unit, 2)]),
    ):
        sweeps.clear()
        argv = ("--braid", text, "--strands", str(strands), "--n", "2", "--json")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and sweeps == expected, text
        b = parse(text, strands)
        doc = json.loads(out)
        assert doc["framed"]["terms"] == [
            [q, str(c)] for q, c in colored_jones_framed(b, 2).terms()
        ]
        assert doc["state_count"] == statesum.state_count(b, 2, PLUS)


def test_counting_reads_no_weights(monkeypatch, capsys):
    # Counting reads the jump range alone: with every weight function and
    # packed builder raising and the unit table's cache bypassed, both
    # counts still answer.
    b = parse("-1 2 -1 2")
    expected = {c: statesum.state_count(b, 3, c) for c in (MINUS, PLUS)}

    def forbidden(*args):
        raise AssertionError("counting must not build a weight")

    for name in (
        "_rmatrix_vertex",
        "_gl_vertex",
        "_rmatrix_row",
        "_gl_row",
        "packed_pochhammer",
        "packed_pochhammer_signed",
        "packed_qbinom",
        "packed_qbinom_signed",
    ):
        monkeypatch.setattr(statesum, name, forbidden)
    monkeypatch.setattr(statesum, "_unit_row", statesum._unit_row.__wrapped__)
    monkeypatch.setitem(statesum._TABLES, MINUS, statesum._rmatrix_row)
    monkeypatch.setitem(statesum._TABLES, PLUS, statesum._gl_row)
    assert {c: statesum.state_count(b, 3, c) for c in (MINUS, PLUS)} == expected
    for model, convention in ((), PLUS), (("--model", "rmatrix"), MINUS):
        argv = ("--braid", "-1 2 -1 2", "--n", "3", "--states", "count", *model)
        assert run_cli(capsys, *argv) == (0, f"{expected[convention]}\n", "")


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
        # a word of more than WORK_LIMIT letters: refused before it is built
        ("--weaving", str(WORK_LIMIT // 2 + 1)),
        # more strands than WORK_LIMIT: refused before the diagram is built
        ("--braid", "20001", "--dump-diagram"),
        ("--braid", "20001", "--dump-diagram", "--graph-out", graph),
        # 28,658 states: refused before any is listed
        ("--braid", " ".join(["1"] * 22), "--n", "1", "--states", "dump"),
        ("--braid", " ".join(["1"] * 22), "--states", "dump", "--graph-out", graph),
    ]
    for argv in requests:
        began = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - began < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too large" in err
    assert not os.path.exists(graph)
    argv = ("--braid", " ".join(["1"] * 22), "--n", "1", "--states", "count")
    assert run_cli(capsys, *argv) == (0, "28658\n", "")


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


def _fresh_python(probe: str) -> subprocess.CompletedProcess:
    """Run probe with python -c in a new interpreter that imports this checkout."""
    src = str(Path(braidjones.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )


def test_value_path_import_footprint():
    # A value request loads the braid, the Laurent ring, the sweep and the
    # CLI only; the diagram, the enumeration, the oracle and dataclasses
    # load on first use.
    probe = "\n".join(
        [
            "import contextlib, io, sys, braidjones, braidjones.cli",
            "argv = ['--preset', 'sample-knot', '--n', '2', '--json']",
            "out = io.StringIO()",
            "with contextlib.redirect_stdout(out): code = braidjones.cli.main(argv)",
            "value = braidjones.colored_jones_framed(braidjones.parse('1 1 1'), 2)",
            "deferred = ['braidjones.diagram', 'braidjones.states', "
            "'braidjones.oracle', 'dataclasses']",
            "print(code, len(out.getvalue()) > 0, [m for m in deferred if m in sys.modules])",
            "braidjones.build",
            "print('braidjones.diagram' in sys.modules)",
        ]
    )
    done = _fresh_python(probe)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 True []\nTrue\n"


def test_closed_stdout_exits_without_traceback():
    # A reader that closes early, as `braidjones ... | head -c 50` does:
    # the read end is closed before the program writes anything.
    src = str(Path(braidjones.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["--preset", "sample-knot", "--n", "2", "--json"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "braidjones", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_readme_examples(capsys, monkeypatch, tmp_path):
    # Every command of the README's "Command line" block runs, and the
    # outputs it documents are the ones printed.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    monkeypatch.chdir(tmp_path)  # --graph-out graph.txt
    outputs = {}
    for at, line in enumerate(lines):
        if line.startswith("braidjones "):
            argv = shlex.split(line, comments=True)[1:]
            code, outputs[at], err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), line
    documented = [at for at, line in enumerate(lines) if line.startswith("# -> ")]
    assert documented
    for at in documented:
        assert outputs[at - 1] == lines[at][len("# -> "):] + "\n"
    snippet = readme.split("```python", 1)[1].split("```", 1)[0]
    exec(snippet, {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "t^(-2) - t^(-1) + 1 - t + t^2"
    assert f"# {printed[0]}" in snippet
