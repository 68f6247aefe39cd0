"""End-to-end acceptance suite.

Each test prints one [acceptance] PASS/FAIL line (run with -s to see them all)
and asserts the stated tolerance.  These are the exit criteria for the package:
exact operator identities, brute-force oracle agreement, Monte Carlo z-scores,
SNR orderings and limits, filter properties, and CLI determinism.
"""
import itertools
import math

import numpy as np
import pytest

from fockamp import (
    FockSpace,
    Mechanism,
    ReservoirSpec,
    ScenarioSpec,
    analytic_variance,
    caves_number_out,
    commutator,
    default_cutoff,
    fock_state,
    ideal_schrodinger_map,
    lorentzian_transfer,
    moments,
    nonlinear_bout,
    number_op,
    phase_sensitive_number_out,
    run_scenario,
    settle_cutoff,
    snr,
    thermal_state,
    var_caves,
    var_phase_sensitive,
)
from fockamp.cli import main as cli_main
from fockamp.filters import HBAR_OVER_K, thermal_occupancy


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def gram_from_nonzeros(m):
    """m^dag m from the nonzero entries of the dense array m alone: its diagonal, and its off-diagonal (j, k) and values.

    Row i adds conj(m[i, j]) m[i, k] at (j, k) for every pair of its nonzeros, whatever their number per row or
    column; the off-diagonal entries that no pair reaches are zero and are not returned.
    """
    rows, cols = np.nonzero(m)  # row-major, so each row's nonzeros are one run
    vals = m[rows, cols]
    first = np.searchsorted(rows, rows)
    count = np.searchsorted(rows, rows, side="right") - first
    left = np.repeat(np.arange(len(rows)), count)
    right = np.repeat(first, count) + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    products = vals[left].conj() * vals[right]
    j, k = cols[left], cols[right]
    diagonal = np.bincount(j[j == k], weights=products[j == k].real, minlength=m.shape[1])
    keys, entry = np.unique(j[j != k] * m.shape[1] + k[j != k], return_inverse=True)  # pairs that meet at one entry add
    off = products[j != k]
    values = np.bincount(entry, weights=off.real) + 1j * np.bincount(entry, weights=off.imag)
    return diagonal, np.divmod(keys, m.shape[1]), values


def test_gram_from_nonzeros_matches_the_dense_product():
    rng = np.random.default_rng(7)
    m = (rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))) * (rng.random((9, 7)) < 0.5)
    m[2], m[:, 3] = 0.0, 0.0  # an empty row and an empty column, and rows and columns of several nonzeros
    diagonal, (j, k), off = gram_from_nonzeros(m)
    gram = np.diag(diagonal).astype(complex)
    gram[j, k] = off
    assert np.allclose(gram, m.conj().T @ m, rtol=0, atol=1e-12)


def test_exact_nonlinear_number_identity():
    """b_out^dag b_out equals n_b + G n_a entrywise across the full size/gain grid."""
    worst = 0.0
    for gain in range(1, 6):
        for s_a in range(0, 11):
            sa = FockSpace(s_a)
            n_a_diag = np.arange(sa.dim)
            for s_b in range(0, 61):
                sb = FockSpace(s_b)
                bout = nonlinear_bout(sb, sa, gain, 0.6).mat
                target = np.add.outer(np.arange(sb.dim), gain * n_a_diag).reshape(-1).astype(float)
                diagonal, _, off = gram_from_nonzeros(bout)
                dev = max(np.max(np.abs(diagonal - target)), np.max(np.abs(off), initial=0.0))
                worst = float(np.maximum(worst, dev))  # a NaN deviation stays NaN and fails the bound
    ok = worst <= 1e-12
    report("exact nonlinear number identity", ok, f"max deviation {worst:.3e} over s_a<=10, s_b<=60, G in 1..5")
    assert ok, f"identity violated: max entry deviation {worst:.3e} > 1e-12"


def test_truncated_commutator_structure():
    """Sector commutator diag(1,1,1,-3) at machine precision; clean region flat at 1."""
    sb = FockSpace(3)
    bout = nonlinear_bout(sb, FockSpace(0), 1, 0.0)
    comm = commutator(bout, bout.dagger()).mat
    sector_dev = float(np.max(np.abs(comm - np.diag([1.0, 1.0, 1.0, -3.0]))))
    sector_ok = sector_dev <= 1e-14  # irrational sqrt entries keep this a hair above zero

    sb2, sa2 = FockSpace(30), FockSpace(2)
    bout2 = nonlinear_bout(sb2, sa2, 2, 0.0)
    comm2 = commutator(bout2, bout2.dagger()).mat
    diag = np.real(np.diag(comm2)).reshape(sb2.dim, sa2.dim)
    clean_dev = float(np.max(np.abs(diag[: 30 - 2 * 2, :] - 1.0)))
    clean_ok = clean_dev <= 1e-12

    ok = sector_ok and clean_ok
    report(
        "truncated commutator structure",
        ok,
        f"sector deviation {sector_dev:.3e}, clean-region deviation {clean_dev:.3e}",
    )
    assert sector_ok, f"single-mode sector commutator off diag(1,1,1,-3) by {sector_dev:.3e}"
    assert clean_ok, f"clean-region diagonal off unity by {clean_dev:.3e}"


def _sweep_states(space):
    yield "fock(0)", fock_state(space, 0)
    yield "fock(1)", fock_state(space, 1)
    yield "fock(2)", fock_state(space, 2)
    yield "thermal(0.5)", thermal_state(space, 0.5)
    yield "thermal(1.0)", thermal_state(space, 1.0)


def _sweep_cutoff(gain):
    """One cutoff per gain from the leakage policy, adequate for every swept state."""
    worst = 0
    for nbar in (0.5, 1.0):
        start = default_cutoff(nbar, nbar * (nbar + 1.0), gain, 2)
        worst = max(worst, settle_cutoff(lambda s, nb=nbar: thermal_state(FockSpace(s), nb), start))
    return max(worst, default_cutoff(2.0, 0.0, gain, 2))


def test_linear_amplifier_variance_oracle():
    """Dense-matrix moments reproduce both linear-amplifier variance formulas to 1e-8."""
    worst, worst_case = 0.0, ""
    for gain in (1.0, 1.5, 2.0, 3.0):
        space = FockSpace(_sweep_cutoff(gain))
        op = caves_number_out(space, space, gain)
        for (la, rho_a), (lb, rho_b) in itertools.product(_sweep_states(space), repeat=2):
            got = moments([rho_a, rho_b], op).variance
            want = var_caves(gain, rho_a.number_stats(), rho_b.number_stats())
            rel = abs(got - want) / max(1.0, abs(want))
            if rel > worst:
                worst, worst_case = rel, f"caves G={gain} a={la} b={lb}"
        op_ps = phase_sensitive_number_out(space, gain)
        for la, rho_a in _sweep_states(space):
            got = moments(rho_a, op_ps).variance
            want = var_phase_sensitive(gain, rho_a.number_stats())
            rel = abs(got - want) / max(1.0, abs(want))
            if rel > worst:
                worst, worst_case = rel, f"phase-sensitive G={gain} a={la}"
    ok = worst <= 1e-8
    report("linear amplifier variance oracle", ok, f"worst relative error {worst:.3e} at {worst_case}")
    assert ok, f"matrix moments disagree with closed form: {worst:.3e} at {worst_case}"


def _mc_sweep_cells():
    cell = 424242  # distinct seed per cell keeps the 120 z-scores independent
    for nbar in (0.2, 1.0):
        reservoir = ReservoirSpec.thermal(nbar)
        for n_a in (0, 1, 2):
            for gain in (2, 4, 8, 16):
                for model in ("SingleMode", "GModes"):
                    cell += 1
                    yield ScenarioSpec(
                        model=model, input_n_a=n_a, reservoir=reservoir, trials=1_000_000, seed=cell, gain_G=gain
                    )
            for step_gain in (2, 4):
                for steps in (1, 2, 3, 4):
                    if step_gain**steps > 16:
                        continue
                    for model in ("MultiStepSingle", "MultiStepMulti"):
                        cell += 1
                        yield ScenarioSpec(
                            model=model,
                            input_n_a=n_a,
                            reservoir=reservoir,
                            trials=1_000_000,
                            seed=cell,
                            step_gain_g=step_gain,
                            steps_N=steps,
                        )


def test_monte_carlo_matches_variance_formulas():
    """10^6-trial MC variances sit within 4 (95% of cells) and 6 (all) standard errors."""
    zs = []
    for spec in _mc_sweep_cells():
        stats = run_scenario(spec)
        target = analytic_variance(spec)
        assert stats.std_error_of_variance > 0
        zs.append((spec, (stats.variance - target) / stats.std_error_of_variance))
    values = np.array([abs(z) for _, z in zs])
    frac_within_4 = float(np.mean(values <= 4.0))
    worst = float(values.max())
    ok = frac_within_4 >= 0.95 and worst <= 6.0
    report(
        "monte carlo vs variance formulas",
        ok,
        f"{len(values)} cells, {100 * frac_within_4:.1f}% within 4 SE, max |z| = {worst:.2f}",
    )
    assert frac_within_4 >= 0.95, f"only {100 * frac_within_4:.1f}% of cells within 4 SE"
    assert worst <= 6.0, f"worst cell |z| = {worst:.2f} > 6"


def test_snr_hierarchy_across_mechanisms():
    """Stated mechanism ordering on G in {4, 16, 64, 256} with n_a = 1, dn_b = 1."""
    failures = []
    rows = []
    for gain in (4, 16, 64, 256):
        sm = snr(Mechanism("SingleMode", gain), 1, 1.0)
        mss = snr(Mechanism("MultiStepSingleMode", gain, 2), 1, 1.0)
        gm = snr(Mechanism("GModes", gain), 1, 1.0)
        msm = snr(Mechanism("MultiStepMultiMode", gain, 2), 1, 1.0)
        pi = snr(Mechanism("PhaseInsensitive", gain), 1, 1.0)
        rows.append(f"G={gain}: SM={sm:.4g} MSS={mss:.4g} GM={gm:.4g} MSM={msm:.4g} PI={pi:.4g}")
        for label, holds in (
            (f"SingleMode > MultiStepSingle(g=2) at G={gain}", sm > mss),
            (f"MultiStepSingle(g=2) > GModes at G={gain}", mss > gm),
            (f"GModes > MultiStepMulti(g=2) at G={gain}", gm > msm),
            (f"MultiStepMulti(g=2) < PhaseInsensitive at G={gain}", msm < pi),
        ):
            if not holds:
                failures.append(label)
    ok = not failures
    report("snr hierarchy across mechanisms", ok, "; ".join(rows[:1]) + (f"; violated: {failures[0]} (+{len(failures) - 1} more)" if failures else ""))
    assert ok, "ordering violated: " + "; ".join(failures)


def test_linear_snr_saturation():
    """Linear SNRs saturate: bound -> n_a/dn_b and sqrt(2) n_a within 1% at G = 1e4."""
    worst = 0.0
    for n_a, dn_b in ((1, 1.0), (3, 0.5)):
        pi = snr(Mechanism("PhaseInsensitive", 1e4), n_a, dn_b)
        ps = snr(Mechanism("PhaseSensitive", 1e4), n_a, dn_b)
        worst = max(
            worst,
            abs(pi - n_a / dn_b) / (n_a / dn_b),
            abs(ps - math.sqrt(2.0) * n_a) / (math.sqrt(2.0) * n_a),
        )
    ok = worst <= 0.01
    report("linear snr saturation", ok, f"worst relative distance from the limit {worst:.2e}")
    assert ok, f"saturation miss {worst:.2e} > 1%"


def test_filter_unitarity_resonance_and_suppression():
    """Losslessness over 10^4 points, exact resonance, exponential occupancy decay."""
    omega0, gamma = 1.5e15, 2.0e13
    worst_unitarity = 0.0
    for w in np.linspace(0.1e15, 3.0e15, 10_000):
        tp = lorentzian_transfer(float(w), omega0, gamma)
        worst_unitarity = max(worst_unitarity, abs(abs(tp.T) ** 2 + abs(tp.R) ** 2 - 1.0))
    resonant = lorentzian_transfer(omega0, omega0, gamma)
    resonance_ok = resonant.T == 1.0 + 0j and resonant.R == 0j

    temperature = 2.0
    x = np.linspace(10.0, 40.0, 400)
    omega = x * temperature / HBAR_OVER_K
    slope = np.polyfit(omega, [math.log(thermal_occupancy(float(w), temperature)) for w in omega], 1)[0]
    target = -HBAR_OVER_K / temperature
    slope_err = abs(slope - target) / abs(target)

    ok = worst_unitarity <= 1e-12 and resonance_ok and slope_err <= 1e-6
    report(
        "filter unitarity, resonance, thermal suppression",
        ok,
        f"unitarity miss {worst_unitarity:.2e}, T(w0)={resonant.T}, slope error {slope_err:.2e}",
    )
    assert worst_unitarity <= 1e-12
    assert resonance_ok, f"resonance not exact: T={resonant.T}, R={resonant.R}"
    assert slope_err <= 1e-6, f"log-occupancy slope off by {slope_err:.2e}"


def test_ideal_map_conservation_and_injectivity():
    """Reservoir transfer conserves M+N, moves exactly G n, is injective, rejects M < G n."""
    checked, rejected = 0, 0
    ok = True
    detail = ""
    for gain in range(1, 6):
        seen = set()
        for n in range(0, 4):
            for m in range(0, 21):
                for nn in range(0, 21):
                    if m < gain * n:
                        with pytest.raises(ValueError):
                            ideal_schrodinger_map(n, m, nn, gain)
                        rejected += 1
                        continue
                    rec = ideal_schrodinger_map(n, m, nn, gain)
                    if rec.M_out + rec.N_out != m + nn or rec.N_out - nn != gain * n:
                        ok, detail = False, f"bookkeeping broken at (n={n}, M={m}, N={nn}, G={gain})"
                    key = (rec.M_out, rec.N_out, rec.absorber_energy)
                    if key in seen:
                        ok, detail = False, f"collision at (n={n}, M={m}, N={nn}, G={gain})"
                    seen.add(key)
                    checked += 1
    if ok:
        detail = f"{checked} admissible inputs verified, {rejected} inadmissible rejected"
    report("ideal transfer map", ok, detail)
    assert ok, detail


def test_shelving_reduction_and_mode_sweep():
    """Cavity mode count 1 and G reproduce the two nonlinear noise laws; SNR rises as modes drop."""
    gain, trials, nbar = 8, 1_000_000, 1.0
    reservoir = ReservoirSpec.thermal(nbar)

    def shelving(modes, n_a=1):
        return run_scenario(
            ScenarioSpec(
                model="Shelving",
                input_n_a=n_a,
                reservoir=reservoir,
                trials=trials,
                seed=9090,
                gain_G=gain,
                cavity_mode_count=modes,
            )
        )

    z_values = {}
    for modes, target in ((1, nbar * (nbar + 1.0)), (gain, gain * nbar * (nbar + 1.0))):
        stats = shelving(modes)
        z_values[modes] = (stats.variance - target) / stats.std_error_of_variance
    reduction_ok = all(abs(z) <= 3.0 for z in z_values.values())

    snrs = []
    for modes in range(gain, 0, -1):
        stats = shelving(modes)
        base = shelving(modes, n_a=0)
        snrs.append((stats.mean - base.mean) / math.sqrt(stats.variance))
    monotone_ok = all(b > a for a, b in zip(snrs, snrs[1:]))

    ok = reduction_ok and monotone_ok
    report(
        "shelving reduction and mode sweep",
        ok,
        f"z(1 mode) = {z_values[1]:.2f}, z({gain} modes) = {z_values[gain]:.2f}, "
        f"SNR {snrs[0]:.2f} -> {snrs[-1]:.2f} as modes {gain} -> 1",
    )
    assert reduction_ok, f"variance off the single/G-mode laws: z = {z_values}"
    assert monotone_ok, f"implied SNR not monotone: {snrs}"


def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    """Every CLI command is a pure function of config and seed."""
    commands = [
        ["snr-table"],
        ["mc", "--trials", "50000", "--seed", "99"],
        ["filter-scan"],
        ["shelving-demo", "--trials", "30000", "--seed", "5"],
    ]
    ok = True
    details = []
    for argv in commands:
        paths = [tmp_path / f"{argv[0]}-{k}.csv" for k in (1, 2)]
        for path in paths:
            code = cli_main(argv + ["--out", str(path)])
            assert code == 0
        identical = paths[0].read_bytes() == paths[1].read_bytes()
        ok &= identical
        details.append(f"{argv[0]}: {'identical' if identical else 'DIFFERS'}")
    capsys.readouterr()  # drop the CSV-command summaries captured so far
    outputs = []
    for _ in range(2):
        assert cli_main(["verify", "--seed", "11"]) == 0
        outputs.append(capsys.readouterr().out)
    verify_same = outputs[0] == outputs[1]
    ok &= verify_same
    details.append(f"verify stdout: {'identical' if verify_same else 'DIFFERS'}")
    report("cli determinism", ok, ", ".join(details))
    assert ok, "; ".join(details)
