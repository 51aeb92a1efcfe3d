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
