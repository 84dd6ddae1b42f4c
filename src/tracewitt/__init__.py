"""Exact arithmetic for integer trace sequences.

A length-N integer sequence b is the trace sequence of some integer matrix
(b_n = tr(f^n)) exactly when b_n = b_{n/p} (mod p^k) for every n <= N and
every prime power p^k exactly dividing n.  This package decides that
criterion, synthesizes a witnessing companion matrix, converts between
traces, characteristic coefficients, Witt coordinates and ghost components,
and verifies the matching congruences for matrix powers, exterior powers
and integer-valued character tables.  All arithmetic is exact (Python ints
and fractions); nothing here floats.

Each module's ``__all__`` is its public API, and the package re-exports them.
"""

from . import congruences, matrices, newton, rng, witt
from .congruences import *
from .matrices import *
from .newton import *
from .rng import *
from .witt import *

__version__ = "0.1.0"

__all__ = ["__version__", *congruences.__all__, *matrices.__all__, *newton.__all__, *rng.__all__, *witt.__all__]
