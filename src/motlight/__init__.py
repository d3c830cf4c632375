"""Trapped-atom motional-state entanglement and cavity-mediated state transfer.

Truncated Fock-space simulation toolkit: two-mode squeezing/mixing of
motional modes under a bichromatic drive, atom-cavity coupling with cavity
decay, cascaded (unidirectional) two-site state transfer via quantum
trajectories, and the accompanying fidelity/validity diagnostics.

Importing the package before numpy loads OpenBLAS with one thread: the
products of a run are too small to gain from a second one, which spins on
a core that the fork pool's other process needs.  OPENBLAS_NUM_THREADS,
if set, wins; a process that imported numpy before this package keeps
numpy's default.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import IntegrationError, ResourceLimitError  # noqa: E402
from .fock import (  # noqa: E402
    DensityMatrix,
    FockSpace,
    Operator,
    StateVector,
    TruncationWarning,
    cat_state,
    coherent_state,
    destroy,
    fock_state,
    make_space,
    number,
    partial_trace,
    position_quadrature,
    truncated_phase_state,
    two_mode_squeezed_state,
)

__all__ = [
    "__version__",
    "IntegrationError",
    "ResourceLimitError",
    "DensityMatrix",
    "FockSpace",
    "Operator",
    "StateVector",
    "TruncationWarning",
    "cat_state",
    "coherent_state",
    "destroy",
    "fock_state",
    "make_space",
    "number",
    "partial_trace",
    "position_quadrature",
    "truncated_phase_state",
    "two_mode_squeezed_state",
]
