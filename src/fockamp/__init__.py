"""Numerical laboratory for photon-number amplification on truncated Fock spaces.

Builds the linear and nonlinear bosonic amplification channels as explicit
matrices, verifies their commutator and noise properties against brute-force
operator algebra and seeded Monte Carlo sampling, and tabulates the
signal-to-noise hierarchy across amplification mechanisms.
"""

from .fock import *
from .channels import *
from .noise import *
from .montecarlo import *
from .filters import *

__version__ = "0.1.0"
