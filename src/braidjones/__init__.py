"""Exact colored Jones polynomials of braid closures.

Two state models as vertex tables read by one sweep and checked against
each other crossing by crossing, state enumeration and its state sums as
their independent reference, an exact Laurent ring in quarter powers of
t, and the Kauffman-bracket oracle at color 1.
"""

from .braid import BraidWord, parse
from .qalgebra import ExactDivisionError, LaurentQ, qint
from .statesum import (
    MINUS,
    PLUS,
    ModelMismatchError,
    colored_jones_framed,
    colored_jones_unframed,
)

# The diagram, the state enumeration with its weights and quantum symbols,
# and the oracle serve as references and for inspection only; a value never
# needs them, so they load on first use.
_LAZY = {
    "Diagram": "diagram",
    "build": "diagram",
    "Potential": "states",
    "StateColors": "states",
    "derive_colors": "states",
    "enumerate_states": "states",
    "flow_bijection": "states",
    "pochhammer": "states",
    "pochhammer_signed": "states",
    "qbinom": "states",
    "qbinom_signed": "states",
    "qbrace": "states",
    "kauffman_jones": "oracle",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "Diagram",
    "ExactDivisionError",
    "LaurentQ",
    "MINUS",
    "ModelMismatchError",
    "PLUS",
    "Potential",
    "StateColors",
    "build",
    "colored_jones_framed",
    "colored_jones_unframed",
    "derive_colors",
    "enumerate_states",
    "flow_bijection",
    "kauffman_jones",
    "parse",
    "pochhammer",
    "pochhammer_signed",
    "qbinom",
    "qbinom_signed",
    "qbrace",
    "qint",
    "__version__",
]
