"""fockamp republishes each module's ``__all__``, so that list is the one list of the module's public names."""
import types

import fockamp
from fockamp import channels, filters, fock, montecarlo, noise

REPUBLISHED = (fock, channels, noise, montecarlo, filters)

# the names fockamp exported when its __init__ listed them a second time, by hand, less the deleted "tensor"
LISTED_BY_HAND = {
    "DiagonalState", "FockSpace", "NumberStats", "OperatorMatrix", "TruncationError", "annihilation",
    "check_truncation", "default_cutoff", "fock_state", "identity", "leakage", "moments", "number_op",
    "settle_cutoff", "thermal_state",
    "IdealMapRecord", "caves_number_out", "check_pegg_barnett", "commutator", "ideal_schrodinger_map",
    "nonlinear_bout", "phase_sensitive_number_out", "shift_operator",
    "Mechanism", "snr", "var_caves", "var_g_modes", "var_multistep_multi", "var_multistep_single",
    "var_phase_sensitive", "var_single_mode",
    "ReservoirSpec", "SampleStats", "ScenarioSpec", "analytic_variance", "reservoir_draws", "run_mode_sweep",
    "run_scenario",
    "HBAR_OVER_K", "TransferPair", "filtered_amplified_stats", "lorentzian_transfer", "read_transfer_table",
    "thermal_occupancy",
}


def test_each_public_name_is_declared_once_and_republished():
    declared = [name for module in REPUBLISHED for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared public by two modules"
    for module in REPUBLISHED:
        for name in module.__all__:
            assert getattr(fockamp, name) is getattr(module, name), (module.__name__, name)
    public = {
        name for name, value in vars(fockamp).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(LISTED_BY_HAND) == 44
    assert public == LISTED_BY_HAND | {"MECHANISM_TAGS", "gain_structure"}
