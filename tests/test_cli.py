import contextlib
import csv
import hashlib
import io
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockamp import Mechanism, snr
from fockamp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestVerifyCommand:
    def test_default_run_passes_many_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 20
        assert all(l.startswith("PASS") for l in lines)

    def test_inadequate_cutoff_fails_the_guard(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--cutoff", "4", "--gain", "4")
        assert code == 1
        assert "leakage" in out

    def test_dense_side_bound_fails_its_checks(self, capsys):
        # at s = 10^5 the three operator checks ask for sides (s + 1)^2, s + 1 and 5 (s + 1): refused, not allocated
        code, out, _ = run_cli(capsys, "verify", "--cutoff", "100000")
        assert code == 1
        failed = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(failed) == 3
        assert all("exceeds MAX_DENSE_SIDE = 4096" in l for l in failed)

    def test_fixed_phase_equals_seeded_phase(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fixed-phase", "0", "--seed", "7")
        assert code == 0
        (line,) = [l for l in out.splitlines() if "independent of the shift phase" in l]
        assert line.startswith("PASS")


class TestSnrTable:
    def test_single_mode_column(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mechanisms": [{"tag": "SingleMode"}], "grid": [10, 100], "n_a": 1, "dn_b": 1.0}))
        out_csv = tmp_path / "snr.csv"
        code, _, _ = run_cli(capsys, "snr-table", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        rows = read_rows(out_csv)
        assert [r["snr"] for r in rows] == ["10", "100"]

    def test_linear_gain_one_writes_inf(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mechanisms": [{"tag": "PhaseInsensitive"}], "grid": [1], "n_a": 1, "dn_b": 1.0}))
        out_csv = tmp_path / "snr.csv"
        run_cli(capsys, "snr-table", "--config", str(cfg), "--out", str(out_csv))
        (row,) = read_rows(out_csv)
        assert row["snr"] == "inf"

    def test_invalid_grid_point_skipped_with_warning(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"mechanisms": [{"tag": "MultiStepMultiMode", "g": 3}], "grid": [9, 10, math.inf], "n_a": 1, "dn_b": 1.0}
            )
        )
        out_csv = tmp_path / "snr.csv"
        code, _, err = run_cli(capsys, "snr-table", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        assert "skipping" in err and "10" in err and "G = inf" in err
        rows = read_rows(out_csv)
        assert len(rows) == 1 and rows[0]["G"] == "9"
        # n_a / dn_b beyond the float range is skipped; the G = 1 sentinel of a linear mechanism is still written
        cfg.write_text(
            json.dumps({"mechanisms": [{"tag": "SingleMode"}, {"tag": "PhaseSensitive"}], "grid": [1, 2], "n_a": 1, "dn_b": 1e-320})
        )
        code, _, err = run_cli(capsys, "snr-table", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        assert "skipping SingleMode at G = 1" in err and "skipping SingleMode at G = 2" in err
        assert [(r["mechanism"], r["G"], r["snr"]) for r in read_rows(out_csv)] == [
            ("PhaseSensitive", "1", "inf"),
            ("PhaseSensitive", "2", "1.5"),
        ]

    def test_round_trip_full_precision(self, capsys, tmp_path):
        out_csv = tmp_path / "snr.csv"
        run_cli(capsys, "snr-table", "--out", str(out_csv))
        for row in read_rows(out_csv):
            if row["snr"] == "inf":
                continue
            mech = Mechanism(row["mechanism"], float(row["G"]), int(row["g"]) if row["g"] else None)
            assert float(row["snr"]) == snr(mech, int(row["n_a"]), float(row["dn_b"]))


class TestMcCommand:
    def test_z_scores_small_and_deterministic_row_exact(self, capsys, tmp_path):
        out_csv = tmp_path / "mc.csv"
        code, _, _ = run_cli(capsys, "mc", "--trials", "40000", "--out", str(out_csv))
        assert code == 0
        rows = read_rows(out_csv)
        assert len(rows) == 4
        for row in rows:
            assert abs(float(row["z_score"])) <= 4.0
        single = [r for r in rows if r["model"] == "SingleMode"][0]
        assert single["variance"] == "0" and single["mean"] == "50"

    def test_draw_free_deep_cascade_runs(self, capsys, tmp_path):
        # the weights reach 2**69, past int64, but thermal(0) draws only zeros
        scenario = {"model": "MultiStepSingle", "g": 2, "N": 70, "n_a": 0, "reservoir": {"kind": "thermal", "nbar": 0}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenarios": [scenario], "trials": 10}))
        out_csv = tmp_path / "mc.csv"
        code, _, _ = run_cli(capsys, "mc", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        (row,) = read_rows(out_csv)
        assert (row["mean"], row["variance"], row["analytic_variance"]) == ("0", "0", "0")

    def test_invalid_scenario_exits_before_sampling(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenarios": [
                        {"model": "GModes", "G": 4, "n_a": 1, "reservoir": {"kind": "thermal", "nbar": 1.0}},
                        {"model": "MultiStepSingle", "g": 2, "N": 3, "G": 9, "n_a": 0},
                    ]
                }
            )
        )
        out_csv = tmp_path / "mc.csv"
        code, _, err = run_cli(capsys, "mc", "--config", str(cfg), "--out", str(out_csv))
        assert code == 2
        assert "configuration error" in err
        assert not out_csv.exists()


class TestFilterScan:
    def test_resonance_row_and_unitarity(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega_min": 1.0e15, "omega_max": 2.0e15, "points": 21, "omega0": 1.5e15}))
        out_csv = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "filter-scan", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        rows = read_rows(out_csv)
        assert len(rows) == 21
        resonant = [r for r in rows if float(r["omega"]) == 1.5e15]
        assert resonant and resonant[0]["abs_T2"] == "1" and resonant[0]["abs_R2"] == "0"
        for row in rows:
            assert abs(float(row["abs_T2"]) + float(row["abs_R2"]) - 1.0) <= 1e-9

    def test_background_tracks_amplification_frequency(self, capsys, tmp_path):
        outputs = []
        for omega_amp in (1.0e15, 2.0e15):
            cfg = tmp_path / f"cfg{omega_amp:.0e}.json"
            cfg.write_text(json.dumps({"points": 3, "omega_amp": omega_amp, "temperature": 250.0}))
            out_csv = tmp_path / f"scan{omega_amp:.0e}.csv"
            run_cli(capsys, "filter-scan", "--config", str(cfg), "--out", str(out_csv))
            outputs.append(float(read_rows(out_csv)[0]["nbar_at_omega_amp"]))
        env_scale = 1.054571817e-34 / 1.380649e-23 / 250.0
        expected = math.exp(-env_scale * 1.0e15)
        assert outputs[1] / outputs[0] == pytest.approx(expected, rel=0.01)

    def test_default_scan_matches_the_beam_splitter_closed_form(self, capsys, tmp_path):
        # a Fock(n_a) input and a vacuum internal mode: the filtered count is binomial(n_a, |T|^2)
        out_csv = tmp_path / "scan.csv"
        code, _, err = run_cli(capsys, "filter-scan", "--out", str(out_csv))
        assert code == 0
        resolved = json.loads(err.splitlines()[0].split("resolved config: ", 1)[1])
        gain, n_a = resolved["gain"], resolved["n_a"]
        rows = read_rows(out_csv)
        assert len(rows) == resolved["points"]
        for row in rows:
            t2, r2, nbar = float(row["abs_T2"]), float(row["abs_R2"]), float(row["nbar_at_omega_amp"])
            expected = gain * t2 * n_a / math.sqrt(nbar * (nbar + 1.0) + gain**2 * t2 * r2 * n_a)
            assert float(row["snr_end_to_end"]) == pytest.approx(expected, rel=1e-12), row

    def test_lossy_table_is_a_config_error(self, capsys, tmp_path):
        table = tmp_path / "filter.csv"
        table.write_text("omega,T_re,T_im,R_re,R_im\n1.0,0.5,0.0,0.5,0.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"table": str(table)}))
        code, _, err = run_cli(capsys, "filter-scan", "--config", str(cfg), "--out", str(tmp_path / "scan.csv"))
        assert code == 2
        assert "row 2" in err

    def test_external_table_drives_the_scan(self, capsys, tmp_path):
        from fockamp import lorentzian_transfer

        lines = ["omega,T_re,T_im,R_re,R_im\n"]
        omegas = [1.0e15, 1.5e15, 2.0e15]
        for w in omegas:
            tp = lorentzian_transfer(w, 1.5e15, 1.0e13)
            lines.append(f"{w!r},{tp.T.real!r},{tp.T.imag!r},{tp.R.real!r},{tp.R.imag!r}\n")
        table = tmp_path / "filter.csv"
        table.write_text("".join(lines))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"table": str(table)}))
        out_csv = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "filter-scan", "--config", str(cfg), "--out", str(out_csv))
        assert code == 0
        rows = read_rows(out_csv)
        assert [float(r["omega"]) for r in rows] == omegas
        assert rows[1]["abs_T2"] == "1"  # on-resonance row passes straight through


class TestShelvingDemo:
    def test_snr_rises_as_modes_drop(self, capsys, tmp_path):
        out_csv = tmp_path / "shelving.csv"
        code, out, _ = run_cli(capsys, "shelving-demo", "--trials", "30000", "--out", str(out_csv))
        assert code == 0
        rows = read_rows(out_csv)
        assert [int(r["cavity_modes"]) for r in rows] == list(range(8, 0, -1))
        analytic = [float(r["snr_analytic"]) for r in rows]
        assert all(b > a for a, b in zip(analytic, analytic[1:]))


# sha256 of each command's output on its default config: the four CSVs and the verify stdout
DEFAULT_OUTPUT_SHA256 = {
    "snr_table.csv": "8f8708d619a4b04fd9ecc817656c03d42473a0ac6bdd7785ad2af8a4ce7f9b87",
    "mc_runs.csv": "15987fc4589869effb89368dca1861c495fb56e0944c21caef061ea39fa40c88",
    "filter_scan.csv": "c6aeb32ecca3e1964a09f796b70f106f092d7312ed3a12fe59fbb63154fd09f2",
    "shelving_demo.csv": "f4e9f56d5bc74eeffea4aec0518808f180bc6505b7685c9eef7a34cf67a582bf",
    "verify.stdout": "347d99787ef5edf99f3e6606a7ea4146a9ba0060b4a788c387b78b8c8ed9d8f8",
}


def test_default_outputs_are_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FOCKAMP_OUT_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    (tmp_path / "verify.stdout").write_text(out)
    for command in ("snr-table", "mc", "filter-scan", "shelving-demo"):
        assert run_cli(capsys, command)[0] == 0, command
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DEFAULT_OUTPUT_SHA256}
    assert digests == DEFAULT_OUTPUT_SHA256


def _in_each_float_field(value):
    """(command, config) with ``value`` in one CLI float field, for each float field."""
    reservoirs = ({"kind": "thermal", "nbar": value}, {"kind": "empirical", "probs": [value]})
    filter_keys = ("temperature", "omega_amp", "omega_min", "omega_max", "omega0", "gamma")
    return [
        ("snr-table", {"dn_b": value}),
        *(("mc", {"scenarios": [{"model": "GModes", "G": 2, "reservoir": r}]}) for r in reservoirs),
        ("shelving-demo", {"nbar": value}),
        *(("filter-scan", {key: value}) for key in filter_keys),
        ("verify", {"fixed_phase": value}),
    ]


class TestDeterminismAndConfig:
    COMMANDS = [
        ("snr-table", []),
        ("mc", ["--trials", "20000"]),
        ("filter-scan", []),
        ("shelving-demo", ["--trials", "20000"]),
    ]

    @pytest.mark.parametrize("command,extra", COMMANDS)
    def test_reruns_are_byte_identical(self, capsys, tmp_path, command, extra):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, command, *extra, "--out", str(a))
        run_cli(capsys, command, *extra, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_env_var_sets_output_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FOCKAMP_OUT_DIR", str(tmp_path / "results"))
        code, out, _ = run_cli(capsys, "snr-table")
        assert code == 0
        assert (tmp_path / "results" / "snr_table.csv").exists()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 1000, "seed": 1, "gain": 4, "nbar": 0.5}))
        out_csv = tmp_path / "shelving.csv"
        _, _, err = run_cli(
            capsys, "shelving-demo", "--config", str(cfg), "--trials", "2000", "--out", str(out_csv)
        )
        resolved = json.loads(err.splitlines()[0].split("resolved config: ", 1)[1])
        assert resolved["trials"] == 2000  # flag wins
        assert resolved["seed"] == 1  # config survives where no flag is given
        rows = read_rows(out_csv)
        assert rows[0]["trials"] == "2000"

    # (command, config, the same fields as integral floats)
    INTEGRAL_FLOAT_CONFIGS = [
        ("shelving-demo", {"gain": 2, "n_a": 1, "trials": 2000, "seed": 3}, {"n_a": 1.0, "trials": 2000.0, "seed": 3.0}),
        (
            "mc",
            {"scenarios": [{"model": "GModes", "G": 4, "n_a": 1}], "trials": 2000},
            {"scenarios": [{"model": "GModes", "G": 4.0, "n_a": 1}]},
        ),
    ]

    def test_integral_float_fields_read_as_integers(self, capsys, tmp_path):
        for command, fields, as_floats in self.INTEGRAL_FLOAT_CONFIGS:
            outs = []
            for k, config in enumerate((fields, {**fields, **as_floats})):
                cfg = tmp_path / f"{command}{k}.json"
                cfg.write_text(json.dumps(config))
                outs.append(tmp_path / f"{command}{k}.csv")
                code, _, _ = run_cli(capsys, command, "--config", str(cfg), "--out", str(outs[-1]))
                assert code == 0
            assert outs[0].read_bytes() == outs[1].read_bytes(), command

    CONFIG_ERRORS = [
        ("mc", "{not json", []),
        ("snr-table", json.dumps({"mechanisms": [{"g": 2}]}), []),  # no "tag"
        ("filter-scan", json.dumps({"temperature": -1}), []),
        ("filter-scan", json.dumps({"gain": 2.5}), []),
        ("shelving-demo", "{}", ["--gain", "2.7"]),
        ("verify", "{}", ["--gain", "0.5"]),
        ("verify", json.dumps({"cutoff": 1.5}), []),
        ("verify", json.dumps({"cutoff": -3}), []),
        ("verify", json.dumps({"fixed_phase": "x"}), []),
        ("verify", json.dumps({"fixed_phase": math.inf}), []),
        ("snr-table", json.dumps({"n_a": 0}), []),
        ("snr-table", json.dumps({"dn_b": math.nan}), []),
        ("snr-table", json.dumps({"n_a": 1.5}), []),
        ("mc", json.dumps({"trials": 1000.5}), []),
        ("mc", json.dumps({"seed": "7"}), []),
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 2, "n_a": 1.5}]}), []),
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 2, "trials": 1000.5}]}), []),
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 2, "seed": 0.5}]}), []),
        ("shelving-demo", json.dumps({"n_a": 1.5}), []),
        ("shelving-demo", json.dumps({"trials": True}), []),
        ("shelving-demo", json.dumps({"seed": 7.25}), []),
        ("filter-scan", json.dumps({"n_a": 1.5}), []),
        ("filter-scan", json.dumps({"points": 10.5}), []),
        # a trial output beyond int64, and a thermal law whose q = nbar/(nbar+1) rounds to 1
        ("mc", json.dumps({"scenarios": [{"model": "GModes", "G": 8, "reservoir": {"kind": "fock", "n": 2**61}}]}), []),
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 16, "n_a": 2**60}]}), []),
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 2, "reservoir": {"kind": "thermal", "nbar": 1e17}}]}), []),
        # a reservoir that is not a JSON object
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 2, "reservoir": 5}]}), []),
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 2, "reservoir": []}]}), []),
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 2, "reservoir": {"kind": "poisson"}}]}), []),
        # draw-free, but sum(m * w^2) = (4**600 - 1) / 3 is beyond the float range
        ("mc", json.dumps({"scenarios": [{"model": "MultiStepSingle", "g": 2, "N": 600, "reservoir": {"kind": "fock", "n": 0}}]}), []),
        # a cascade whose g**N would take terabytes to form, and a filtered variance G^2 * n_a beyond the float range
        ("mc", json.dumps({"scenarios": [{"model": "MultiStepSingle", "g": 2, "N": 10**12}]}), []),
        ("filter-scan", json.dumps({"n_a": 10**307}), []),
        # a 400-digit integer in a float field of each command
        ("verify", json.dumps({"gain": 10**400}), []),
        ("snr-table", json.dumps({"dn_b": 10**400}), []),
        ("mc", json.dumps({"scenarios": [{"model": "GModes", "G": 2, "reservoir": {"kind": "thermal", "nbar": 10**400}}]}), []),
        ("filter-scan", json.dumps({"temperature": 10**400}), []),
        ("shelving-demo", json.dumps({"nbar": 10**400}), []),
        # an output path that is not a non-empty string
        ("snr-table", json.dumps({"out": 5}), []),
        ("mc", json.dumps({"out": []}), []),
        ("filter-scan", json.dumps({"out": ""}), []),
        # malformed snr-table mechanisms and grids
        ("snr-table", json.dumps({"mechanisms": [{"tag": "Bogus"}]}), []),
        ("snr-table", json.dumps({"mechanisms": [{"tag": "MultiStepSingleMode"}]}), []),  # a cascade without g
        ("snr-table", json.dumps({"mechanisms": [{"tag": "MultiStepMultiMode", "g": 1}]}), []),
        ("snr-table", json.dumps({"mechanisms": [{"tag": "MultiStepMultiMode", "g": 2.5}]}), []),
        ("snr-table", json.dumps({"mechanisms": ["SingleMode"]}), []),
        ("snr-table", json.dumps({"grid": ["8"]}), []),
        ("snr-table", json.dumps({"grid": [None]}), []),
        ("snr-table", json.dumps({"grid": [[2]]}), []),
        ("snr-table", json.dumps({"grid": [{"G": 2}]}), []),
        ("snr-table", json.dumps({"grid": [True]}), []),
        ("snr-table", json.dumps({"grid": {"G": 2}}), []),
        # filter-scan: no points, a table that is not a path, an occupancy beyond the float range
        ("filter-scan", json.dumps({"points": 0}), []),
        ("filter-scan", json.dumps({"table": ""}), []),
        ("filter-scan", json.dumps({"table": []}), []),
        ("filter-scan", json.dumps({"table": 0}), []),
        ("filter-scan", json.dumps({"table": False}), []),
        ("filter-scan", json.dumps({"omega_amp": 1e-320}), []),
        ("filter-scan", json.dumps({"omega_amp": 1e-300}), []),
        # one trial has no variance to estimate; a verify cutoff above MAX_CUTOFF
        ("mc", "{}", ["--trials", "1"]),
        ("mc", json.dumps({"scenarios": [{"model": "SingleMode", "G": 2, "trials": 1}]}), []),
        ("shelving-demo", "{}", ["--trials", "1"]),
        ("verify", "{}", ["--cutoff", "100001"]),
        # a JSON string or a boolean in a float field; float() would have read each as 1.0, a valid value
        *((command, json.dumps(config), []) for bad in ("1", True) for command, config in _in_each_float_field(bad)),
        # runs above MAX_DRAWS: 10**400 trials, a thermal cascade of 2**31 - 2 draw slots, 2 * 10**8 shelving slots
        ("mc", json.dumps({"trials": 10**400}), []),
        ("mc", json.dumps({"scenarios": [{"model": "MultiStepMulti", "g": 2, "N": 30, "reservoir": {"kind": "thermal", "nbar": 1.0}}]}), []),
        ("shelving-demo", "{}", ["--gain", "20000"]),
    ]

    def test_bad_config_file_is_a_config_error(self, capsys, tmp_path, monkeypatch):
        # no --out flag, so that a config's own "out" is read; any CSV would land under tmp_path
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("FOCKAMP_OUT_DIR", str(tmp_path / "out"))
        for k, (command, text, extra) in enumerate(self.CONFIG_ERRORS):
            cfg = tmp_path / f"broken{k}.json"
            cfg.write_text(text)
            code, _, err = run_cli(capsys, command, "--config", str(cfg), *extra)
            assert code == 2, (command, text, extra)
            assert "configuration error" in err
            assert not list(tmp_path.rglob("*.csv")), (command, text, extra)


# JSON-shaped garbage: small integers, odd floats, null, bools, names that are valid somewhere
# in a config, and lists and objects of these; sizes stay small (trials, N <= 4) so that
# every valid draw runs in milliseconds
_WORDS = ["", "x", "fock", "thermal", "empirical", "SingleMode", "GModes", "MultiStepSingle", "MultiStepMulti",
          "Shelving", "Multiplexed", "MultiStepSingleMode", "MultiStepMultiMode", "PhaseInsensitive", "PhaseSensitive"]
_KEYS = ["model", "tag", "kind", "G", "g", "N", "n_a", "n", "nbar", "probs", "reservoir", "cavity_modes",
         "mode_budget", "trials", "seed"]
_SCALARS = st.one_of(
    st.integers(min_value=-1, max_value=4),
    st.sampled_from([1.5, math.nan, math.inf, 1e-320, None, True, False]),
    st.sampled_from(_WORDS),
)
_JSONISH = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4)),
    max_leaves=8,
)
_TOP = st.one_of(_JSONISH, st.just(10**400))
# a large trial count exits 2 only above MAX_DRAWS, so trials stay small or reach 10**400
_FIELDS = {"trials": _TOP, "grid": st.one_of(_TOP, st.lists(st.one_of(_SCALARS, st.just(10**400)), max_size=3))}
_BASE = {"mc": {"trials": 3}, "shelving-demo": {"trials": 3}}
# the config keys each command reads
_CONFIG_KEYS = {
    "verify": ["cutoff", "fixed_phase", "gain", "seed"],
    "snr-table": ["dn_b", "grid", "mechanisms", "n_a", "out"],
    "mc": ["out", "scenarios", "seed", "trials"],
    "filter-scan": ["gain", "gamma", "n_a", "omega0", "omega_amp", "omega_max", "omega_min", "out",
                    "points", "table", "temperature"],
    "shelving-demo": ["gain", "n_a", "nbar", "out", "seed", "trials"],
}


@pytest.mark.parametrize("command", sorted(_CONFIG_KEYS))
def test_garbage_config_exits_cleanly(command, tmp_path, monkeypatch):
    keys = _CONFIG_KEYS[command]
    allowed = {0, 1, 2} if command == "verify" else {0, 2}
    runs = itertools.count()

    @settings(max_examples=8 if command == "verify" else 40, deadline=None, derandomize=True)
    @given(config=st.fixed_dictionaries({}, optional={key: _FIELDS.get(key, _TOP) for key in keys}))
    def check(config):
        work = tmp_path / f"run{next(runs)}"
        work.mkdir()
        monkeypatch.chdir(work)  # a relative "out" or "table" resolves in here
        monkeypatch.setenv("FOCKAMP_OUT_DIR", str(work))
        cfg = tmp_path / f"{work.name}.json"
        cfg.write_text(json.dumps({**_BASE.get(command, {}), **config}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg)])
        assert code in allowed
        if code == 2:
            assert "configuration error" in err.getvalue()
            assert not list(work.iterdir())

    check()
