"""Numerical laboratory for photon-number amplification on truncated Fock spaces.

Builds the linear and nonlinear bosonic amplification channels as explicit
matrices, verifies their commutator and noise properties against brute-force
operator algebra and seeded Monte Carlo sampling, and tabulates the
signal-to-noise hierarchy across amplification mechanisms.
"""

from .fock import (
    DiagonalState,
    FockSpace,
    NumberStats,
    OperatorMatrix,
    TruncationError,
    annihilation,
    check_truncation,
    default_cutoff,
    fock_state,
    identity,
    leakage,
    moments,
    number_op,
    settle_cutoff,
    tensor,
    thermal_state,
)
from .channels import (
    IdealMapRecord,
    caves_number_out,
    check_pegg_barnett,
    commutator,
    ideal_schrodinger_map,
    nonlinear_bout,
    phase_sensitive_number_out,
    shift_operator,
)
from .noise import (
    Mechanism,
    snr,
    var_caves,
    var_g_modes,
    var_multistep_multi,
    var_multistep_single,
    var_phase_sensitive,
    var_single_mode,
)
from .montecarlo import (
    ReservoirSpec,
    SampleStats,
    ScenarioSpec,
    analytic_variance,
    reservoir_draws,
    run_mode_sweep,
    run_scenario,
)
from .filters import (
    HBAR_OVER_K,
    TransferPair,
    filtered_amplified_stats,
    lorentzian_transfer,
    read_transfer_table,
    thermal_occupancy,
)

__version__ = "0.1.0"
