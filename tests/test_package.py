"""The package's public names, including those that load on first use."""

import os
import subprocess
import sys
from pathlib import Path

import braidjones


def test_public_names_resolve():
    # In a fresh interpreter, so that the names loaded on first use have
    # not been loaded by another test: dir lists them before any is read,
    # and the star import and getattr give the same objects.
    src = str(Path(braidjones.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "\n".join(
        [
            "import braidjones",
            "names = braidjones.__all__",
            "print(sorted(set(names) - set(dir(braidjones))))",
            "star = {}",
            "exec('from braidjones import *', star)",
            "print(sorted(n for n in names if star.get(n) is not getattr(braidjones, n)))",
            "from braidjones.diagram import build",
            "print(braidjones.build is build)",
            "print(hasattr(braidjones, 'no_such_name'))",
        ]
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n[]\nTrue\nFalse\n"


def test_states_reexports():
    # The sign conventions and the work limit live on the value path;
    # braidjones.states keeps exporting them.
    from braidjones import statesum
    from braidjones.states import MINUS, PLUS, WORK_LIMIT, check_work

    assert (MINUS, PLUS, WORK_LIMIT) == (-1, 1, statesum.WORK_LIMIT)
    assert check_work is statesum.check_work


def test_identity_checks_are_not_exported():
    # The paper's identity checks are test helpers (tests/identities.py), not
    # names of the package; the bijection of the two conventions still is one.
    from braidjones.states import flow_bijection

    for name in ("parity_halfinteger_check", "enumerate_z_potentials"):
        assert name not in braidjones.__all__
        assert name not in dir(braidjones)
        assert not hasattr(braidjones, name)
    assert "flow_bijection" in braidjones.__all__
    assert braidjones.flow_bijection is flow_bijection


def test_value_path_compiles_no_reference():
    # In a fresh interpreter: a --json request loads neither the enumeration
    # reference (its weights, state sum and quantum symbols) nor the diagram
    # or the oracles; the value path defines none of the reference's names,
    # and the package resolves a quantum symbol by loading states.  statesum
    # still resolves the two state weights, from states, without keeping them.
    src = str(Path(braidjones.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "\n".join(
        [
            "import contextlib, io, json, sys",
            "import braidjones, braidjones.cli",
            "out = io.StringIO()",
            "with contextlib.redirect_stdout(out):",
            "    code = braidjones.cli.main(['--preset', 'trefoil', '--n', '2', '--json'])",
            "print(code, 'framed' in json.loads(out.getvalue()))",
            "mods = ('braidjones.states', 'braidjones.diagram', 'braidjones.oracle')",
            "print([m for m in mods if m in sys.modules])",
            "names = ('_rmatrix_vertex', '_gl_vertex', 'rmatrix_contribution',",
            "         'gl_contribution', 'state_sum', 'qbrace', 'pochhammer',",
            "         'pochhammer_signed', 'qbinom', 'qbinom_signed')",
            "from braidjones import qalgebra, statesum",
            "print(sorted(n for m in (qalgebra, statesum) for n in names if n in vars(m)))",
            "qbinom = braidjones.qbinom",
            "print('braidjones.states' in sys.modules)",
            "from braidjones import states",
            "print(qbinom is states.qbinom, all(n in vars(states) for n in names))",
            "weight = statesum.gl_contribution",
            "print(weight is states.gl_contribution, 'gl_contribution' in vars(statesum))",
        ]
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 True\n[]\n[]\nTrue\nTrue True\nTrue False\n"
