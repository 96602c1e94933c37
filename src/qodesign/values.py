"""Shared numeric policy and the tagged value type.

Float comparisons throughout the engine use a single absolute tolerance.
The default is 1e-9; the environment variable QODESIGN_FLOAT_TOL overrides
it (read once at import time).  Discrete carriers compare exactly and
never consult the tolerance.

The model: a float p is below q when it is at most tol past q in the
carrier's order (p <= q + tol on [0, 1], p >= q - tol on costs).  Each
float residual [a, c] residuates this tolerant order, not the exact one:
a * b is below c exactly when b is below [a, c], for every b.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

DEFAULT_FLOAT_TOL = 1e-9


def _read_tol() -> float:
    raw = os.environ.get("QODESIGN_FLOAT_TOL")
    if raw is None:
        return DEFAULT_FLOAT_TOL
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_FLOAT_TOL
    if value < 0:
        return DEFAULT_FLOAT_TOL
    return value


FLOAT_TOL = _read_tol()


def float_tol() -> float:
    """Absolute tolerance used for float-carrier comparisons."""
    return FLOAT_TOL


@dataclass(frozen=True)
class QValue:
    """One element of a specific quantale's carrier, tagged with its name.

    Construct through Quantale.value so membership is checked; the tag is
    the quantale's name, not the handle, so QValue stays cheap and hashable
    whenever the payload is.
    """

    quantale: str
    payload: Any

    def __repr__(self):
        return f"QValue({self.quantale}, {self.payload!r})"
