"""Exact colored Jones polynomials of braid closures.

Two state models as vertex tables read by one sweep and checked against
each other crossing by crossing, state enumeration as their independent
reference, an exact Laurent ring in quarter powers of t, and the
Kauffman-bracket oracle at color 1.
"""

from .braid import BraidWord, parse
from .diagram import Diagram, build
from .qalgebra import (
    ExactDivisionError,
    LaurentQ,
    pochhammer,
    pochhammer_signed,
    qbinom,
    qbinom_signed,
    qbrace,
    qint,
)
from .states import (
    MINUS,
    PLUS,
    Potential,
    StateColors,
    derive_colors,
    enumerate_states,
    enumerate_z_potentials,
    flow_bijection,
)
from .statesum import (
    ModelMismatchError,
    colored_jones_framed,
    colored_jones_unframed,
    parity_halfinteger_check,
)
from .oracle import kauffman_jones

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
    "enumerate_z_potentials",
    "flow_bijection",
    "kauffman_jones",
    "parity_halfinteger_check",
    "parse",
    "pochhammer",
    "pochhammer_signed",
    "qbinom",
    "qbinom_signed",
    "qbrace",
    "qint",
    "__version__",
]
