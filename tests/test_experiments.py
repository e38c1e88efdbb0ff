"""Experiment presets, artifact reproducibility, sweeps, and the CLI."""

import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fnlslab import experiments
from fnlslab.energy import energy_audit, write_energy_csv
from fnlslab.evolution import EvolutionConfig, _multipliers, eps_convergence_study, integrate

from fnlslab.cli import _collect, build_parser
from fnlslab.cli import main as cli_main
from fnlslab.experiments import (
    PRESETS,
    SETTINGS,
    family_params,
    parse_complex,
    parse_config_file,
    parse_settings,
    regularity_threshold,
    run,
    run_estimates,
    sweep,
)
from fnlslab.nonlinearity import linear_transport
from fnlslab.spectral import SpectralField, random_field, sobolev_norm


def read(path):
    with open(path) as fh:
        return fh.read()


def test_regularity_threshold():
    assert regularity_threshold(2.5) == 2.5
    assert regularity_threshold(3.0) == 2.5
    assert regularity_threshold(4.0) == 3.0


def test_parse_complex():
    assert parse_complex("1") == 1.0
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2i") == 2j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5") == -0.5


def test_presets_by_name():
    def build(name, **params):
        return PRESETS[name].family(**family_params(name, params))

    assert build("cubic", c=2.0).as_dict() == {(2, 0, 1, 0): 2.0}
    assert build("linear_transport").as_dict() == {(0, 1, 0, 0): 1j}
    with pytest.raises(KeyError):
        family_params("septic", {})


PART = st.just(0.0) | st.floats(0.5, 2.0) | st.floats(-2.0, -0.5)


@given(
    st.sampled_from(sorted(PRESETS)),
    st.integers(0, 2**32 - 1),
    st.builds(complex, PART, PART),
    st.builds(complex, PART, PART),
    st.integers(1, 3),
)
@settings(max_examples=300, deadline=None)
def test_family_formulas_agree_with_checker(name, seed, a, b, m):
    # example_d's c2 is 2 Re c1 + b, so Re(2 c1 - c2) = 0 exactly when Re b = 0
    spec = PRESETS[name]
    drawn = {"c": a, "m": m, "c1": a, "c2": 2 * a.real + b}
    p = {key: drawn[key] for key in spec.default_params}
    verdict = experiments.check_wellposedness_condition(spec.family(**p), seed=seed)
    assert verdict.satisfied == spec.wellposed(p)


def test_run_wellposed_and_illposed_branches(tmp_path):
    s = run("example_c", tmp_path / "ill", overrides={"c": 1j}, seed=0)
    names = {a["name"]: a for a in s["analyses"]}
    assert names["criterion"]["pass"]
    assert names["growth_probe"]["pass"]
    assert names["growth_probe"]["metrics"]["classification"] == "directional_growth_detected"
    assert (tmp_path / "ill" / "verdict.json").exists()
    assert (tmp_path / "ill" / "growth_rates.csv").exists()
    assert (tmp_path / "ill" / "growth_rates.gp").exists()
    assert (tmp_path / "ill" / "summary.json").exists()

    s = run("example_c", tmp_path / "well", overrides={"c": 1.0}, seed=0)
    names = {a["name"]: a for a in s["analyses"]}
    assert names["criterion"]["pass"]
    assert "energy_audit" in names and names["energy_audit"]["pass"]
    assert (tmp_path / "well" / "energy_trace.csv").exists()


def test_summary_schema(tmp_path):
    s = run("cubic", tmp_path / "run", seed=3)
    assert set(s) == {"preset", "seed", "analyses", "config"}
    assert s["preset"] == "cubic" and s["seed"] == 3
    e = run_estimates(tmp_path / "estimates", seed=3, quick=True)
    assert set(e) == {"preset", "seed", "analyses"}
    assert e["preset"] == "estimates" and e["seed"] == 3
    for summary, out in ((s, "run"), (e, "estimates")):
        for a in summary["analyses"]:
            assert set(a) == {"name", "pass", "metrics"}
        on_disk = json.loads(read(tmp_path / out / "summary.json"))
        assert on_disk == json.loads(json.dumps(summary, sort_keys=True))
    assert all(set(a["metrics"]) == {"params", "worst_growth", "slope"} for a in e["analyses"][:4])


def test_rerun_is_byte_identical(tmp_path):
    run("example_c", tmp_path / "a", overrides={"c": 1j}, seed=5)
    run("example_c", tmp_path / "b", overrides={"c": 1j}, seed=5)
    for name in ("summary.json", "growth_rates.csv", "verdict.json", "probe_trajectory.csv"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name


@pytest.mark.parametrize("eps", [None, 0.05])  # the default 1e-2 is a row of the eps study; 0.05 is none
def test_cubic_audit_and_eps_study_match_separate_runs(tmp_path, monkeypatch, eps):
    blocks = []
    integrate_rows = experiments.integrate_rows
    monkeypatch.setattr(
        experiments, "integrate_rows", lambda rows: blocks.append(len(rows)) or integrate_rows(rows)
    )
    overrides = {} if eps is None else {"eps": eps}
    s = run("cubic", tmp_path, overrides=overrides, seed=2)
    assert blocks == [3 if eps is None else 4]  # one block of the smooth datum's runs
    monkeypatch.undo()
    spec = PRESETS["cubic"]
    cfg = EvolutionConfig(
        alpha=spec.config.alpha, eps=spec.config.eps if eps is None else eps,
        cutoff=spec.config.cutoff, dt=spec.config.dt, horizon=spec.config.horizon,
        record_every=spec.config.record_every,
    )
    phi = experiments._smooth_small_data(cfg.cutoff, 2)
    F = spec.family(**spec.default_params)
    r = regularity_threshold(cfg.alpha) + 0.1
    trace = energy_audit(integrate(phi, F, cfg), F, r)
    write_energy_csv(trace, tmp_path / "separate_energy_trace.csv")
    assert read(tmp_path / "energy_trace.csv") == read(tmp_path / "separate_energy_trace.csv")
    table = eps_convergence_study(phi, F, cfg, [1e-1, 1e-2, 1e-3])
    want = "eps_1,eps_2,sup_l2_diff\n" + "".join(f"{a:.17g},{b:.17g},{d:.17g}\n" for a, b, d in table.pairs)
    assert read(tmp_path / "eps_rate.csv") == want
    assert [a["name"] for a in s["analyses"]] == ["criterion", "energy_audit", "eps_rate"]
    assert s["analyses"][2]["metrics"]["beta"] == table.beta


def test_eps_rate_fails_on_a_truncated_run(tmp_path):
    # cubic(60) at alpha = 2.5 leaves the blowup ceiling: the default-eps row
    # is truncated, and the eps study holds that row, so both analyses fail.
    s = run("cubic", tmp_path, overrides={"c": "60", "alpha": "2.5"})
    names = {a["name"]: a for a in s["analyses"]}
    for name in ("energy_audit", "eps_rate"):
        assert names[name]["metrics"]["truncated"] is True and not names[name]["pass"], name


def test_run_computes_the_criterion_verdict_once(tmp_path, monkeypatch):
    calls = []
    check = experiments.check_wellposedness_condition
    monkeypatch.setattr(
        experiments, "check_wellposedness_condition", lambda *a, **k: calls.append(1) or check(*a, **k)
    )
    s = run("example_c", tmp_path, overrides={"c": 1.0, "horizon": 0.005}, seed=0)
    assert [a["name"] for a in s["analyses"]] == ["criterion", "energy_audit"]
    assert len(calls) == 1


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_linear_regression_follows_the_viscous_flow(tmp_path, eps):
    # the exact flow of F = c u_x under viscosity carries exp(-eps k^2 t)
    s = run("linear_transport", tmp_path, overrides={"eps": eps}, seed=0)
    (entry,) = [a for a in s["analyses"] if a["name"] == "linear_regression"]
    assert entry["pass"], entry["metrics"]


def _loop_linear_regression_metric(cfg, c, seed, traj):
    """The linear regression's sup relative error, one snapshot at a time."""
    rng = np.random.default_rng(seed)
    ks = np.arange(-cfg.cutoff, cfg.cutoff + 1)
    phi = np.exp(-np.abs(ks).astype(float)) * np.exp(2j * np.pi * rng.random(ks.size))
    lam = _multipliers(ks, cfg.alpha, cfg.eps) + 1j * complex(c) * ks
    worst = 0.0
    for t, snap in zip(traj.times, traj.snapshots):
        exact = phi * np.exp(lam * t)
        nz = np.abs(exact) > 0
        rel = np.abs(snap.coeffs[nz] - exact[nz]) / np.abs(exact[nz])
        worst = max(worst, float(np.max(rel)))
    return worst


@given(
    st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.floats(2.05, 5.0),
    st.floats(0.0, 2.0),
    st.integers(1, 40),
    st.sampled_from([1e6, math.inf]),
    st.integers(0, 2**32 - 1),
)
@example(1.0, 3.0, 2.0, 40, 1e6, 0)  # high modes whose exact value underflows to 0
@example(-200j, 3.0, 0.0, 4, math.inf, 0)  # inf snapshots, whose errors are NaN
@settings(max_examples=25, deadline=None)
def test_linear_regression_metric_is_bitwise_the_per_snapshot_fold(
    c, alpha, eps, cutoff, ceiling, seed
):
    cfg = EvolutionConfig(alpha=alpha, eps=eps, cutoff=cutoff, dt=0.01, horizon=1.0,
                          record_every=1, blowup_ceiling=ceiling)
    runs = []
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "integrate", lambda *a: runs.append(integrate(*a)) or runs[-1])
        record = experiments._Run(PRESETS["linear_transport"], linear_transport(c), {"c": c},
                                  False, cfg, seed, out, ())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, metrics = record.linear_regression()
            want = _loop_linear_regression_metric(cfg, c, seed, runs[0])
    assert np.float64(metrics["sup_relative_error"]).tobytes() == np.float64(want).tobytes()


def test_growth_probe_blowup_is_quiet(tmp_path):
    # An RK stage of the probe's K = 64 run overflows before the end-of-step
    # ceiling check records the run as truncated; that must not warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = run("example_d", tmp_path, overrides={"c1": 1, "c2": "i", "alpha": 3}, seed=1)
    assert [(a["name"], a["pass"]) for a in s["analyses"]] == [
        ("criterion", True), ("growth_probe", True)
    ]
    assert s["analyses"][1]["metrics"]["matching_run"] == 29


def _inline_control_data(witness, cutoff, s, side, seed):
    # the control datum with its own copy of the tail rule and of the random tail
    rng = np.random.default_rng(seed)
    k = np.arange(-cutoff, cutoff + 1)
    g = rng.standard_normal((1, 2, 2 * cutoff + 1))
    w = (1.0 + k.astype(float) ** 2) ** (-(s + 4.0) / 2.0)
    c = 0.1 * w * (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    c[:, k <= 0 if side == "plus" else k >= 0] = 0.0
    c[:, k == 0] = 0.0
    tail = SpectralField(c[0], cutoff)
    wn, tn = sobolev_norm(witness, 0.0), sobolev_norm(tail, 0.0)
    if tn > 0 and wn > 0:
        tail = tail * (0.1 * wn / tn)
    return witness.with_cutoff(cutoff) + tail


@given(
    st.integers(1, 300),
    st.floats(-1.0, 8.0),
    st.sampled_from(["minus", "plus"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-3, 1.0, 30.0]),
)
@example(32, 2.35, "minus", 3, 0.0)  # a zero witness keeps the tail as drawn
@settings(max_examples=60, deadline=None)
def test_control_datum_is_bitwise_the_inline_tail(cutoff, s, side, seed, amplitude):
    witness = random_field(2, 1.0, np.random.default_rng(seed + 1), amplitude=amplitude)
    got = experiments._control_data(witness, cutoff, s, side, seed)
    want = _inline_control_data(witness, cutoff, s, side, seed)
    assert got.cutoff == cutoff and got.coeffs.tobytes() == want.coeffs.tobytes()


def test_unknown_overrides_rejected(tmp_path):
    with pytest.raises(ValueError):
        run("cubic", tmp_path, overrides={"viscosity": 1})
    with pytest.raises(KeyError):
        run("quintic", tmp_path)


def test_sweep_alpha_reports_ladder_depths(tmp_path):
    rows = sweep(
        "example_d",
        "alpha",
        [2.5, 3.0, 4.0],
        tmp_path,
        overrides={"c1": 1j, "c2": 2j, "horizon": 0.1, "dt": 1e-3, "modes": 16},
        seed=0,
    )
    depths = []
    for row in rows:
        assert row["error"] is None
        names = {a["name"]: a for a in row["summary"]["analyses"]}
        depths.append(names["energy_audit"]["metrics"]["ladder_depth"])
    assert depths == [2, 1, 1]
    table = read(tmp_path / "sweep.csv").strip().splitlines()
    assert table[0] == "value,analysis,pass"
    assert len(table) == 1 + 2 * 3  # two analyses per value


def test_sweep_empty_values(tmp_path):
    rows = sweep("cubic", "eps", [], tmp_path)
    assert rows == []
    assert read(tmp_path / "sweep.csv").strip() == "value,analysis,pass"


def test_sweep_isolates_failures(tmp_path):
    rows = sweep("cubic", "alpha", [3.0, 1.5], tmp_path, seed=0)
    assert rows[0]["error"] is None
    assert rows[1]["error"] is not None  # alpha <= 2 rejected, run recorded as error


def test_estimates_runner(tmp_path):
    s = run_estimates(tmp_path, seed=0, quick=True)
    assert all(a["pass"] for a in s["analyses"])
    assert (tmp_path / "estimate_ratios.csv").exists()


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\npreset = example_c\nc = i\nmodes= 16\n\nhorizon =0.05\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"preset": "example_c", "c": "i", "modes": "16", "horizon": "0.05"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("preset example_c\n")
    with pytest.raises(ValueError):
        parse_config_file(bad)


# -- CLI ------------------------------------------------------------------------------


def test_cli_check_verb(tmp_path, capsys):
    rc = cli_main(["check", "--preset", "example_c", "--c", "i", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["satisfied"] is False
    assert json.loads(read(tmp_path / "criterion.json"))["satisfied"] is False
    rc = cli_main(["check", "--preset", "cubic", "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(read(tmp_path / "criterion.json"))["satisfied"] is True


def test_cli_check_without_out_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["check", "--preset", "cubic"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["satisfied"] is True
    assert list(tmp_path.iterdir()) == []


def test_cli_check_nonlinearity_file(tmp_path, capsys):
    nl = tmp_path / "f.txt"
    nl.write_text("0 1 0 0 0 1\n")  # i * u_x
    rc = cli_main(["check", "--nonlinearity", str(nl), "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out.strip())["satisfied"] is False


def test_cli_run_and_audit_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli_main(
        ["run", "--preset", "example_c", "--c", "1", "--modes", "16",
         "--horizon", "0.05", "--dt", "1e-3", "--out", str(out)]
    )
    assert rc == 0
    assert (out / "summary.json").exists()
    capsys.readouterr()

    # probe branch leaves a trajectory we can audit
    out2 = tmp_path / "run2"
    rc = cli_main(
        ["run", "--preset", "example_c", "--c", "i", "--modes", "16",
         "--horizon", "0.05", "--out", str(out2)]
    )
    assert rc == 0
    capsys.readouterr()
    rc = cli_main(
        ["audit", "--trajectory", str(out2 / "probe_trajectory.csv"),
         "--sidecar", str(out2 / "probe_trajectory.json"), "--out", str(tmp_path / "audit")]
    )
    assert rc == 0
    assert (tmp_path / "audit" / "energy_trace.csv").exists()


def test_cli_audit_rejects_a_malformed_trajectory(tmp_path, capsys):
    # a cutoff-2 trajectory: a mode beyond it neither wraps onto k = +2
    # (k = -3) nor crashes (k = 3), a second row for one (t, k) does not
    # replace the first, a missing row does not read as 0, and a sidecar
    # without alpha is invalid
    meta = {"alpha": 3.0, "eps": 0.0, "cutoff": 2, "dt": 0.01, "horizon": 0.02,
            "nonlinearity": "2 0 1 0 0 1\n"}
    rows = "".join(
        f"{t},{k},{0.1 + 0.2 * (k == 0)},0\n" for t in (0, 0.01, 0.02) for k in range(-2, 3)
    )
    sidecar, csv = tmp_path / "t.json", tmp_path / "t.csv"
    sidecar.write_text(json.dumps(meta))
    csv.write_text("t,k,re,im\n" + rows)
    argv = ["audit", "--trajectory", str(csv), "--sidecar", str(sidecar), "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    for k in (-3, 3):
        bad = tmp_path / f"bad{k}.csv"
        bad.write_text("t,k,re,im\n" + rows + f"0.02,{k},1,0\n")
        capsys.readouterr()
        assert cli_main([*argv[:2], str(bad), *argv[3:]]) == 2
        assert f"{bad}:17: mode {k} outside the cutoff 2" in capsys.readouterr().err
    bad = tmp_path / "twice.csv"
    bad.write_text("t,k,re,im\n" + rows + "0.02,1,9,9\n")
    assert cli_main([*argv[:2], str(bad), *argv[3:]]) == 2
    assert f"{bad}:17: a second row for mode 1 at t = 0.02" in capsys.readouterr().err
    bad = tmp_path / "missing.csv"
    kept = [row for row in rows.splitlines(True) if not row.startswith("0.01,0,")]
    bad.write_text("t,k,re,im\n" + "".join(kept))
    assert cli_main([*argv[:2], str(bad), *argv[3:]]) == 2
    assert f"{bad}:10: no row for mode 0 at t = 0.01" in capsys.readouterr().err
    # a header without rows and a value that is not finite are rejected before
    # anything is audited or written
    out = tmp_path / "rejected"
    for name, body, message in (
        ("empty", "", ": no data rows"),
        ("nan", rows + "0.03,1,nan,0\n", ":17: a value that is not finite"),
        ("inf", rows.replace("0.01,2,0.1,0", "0.01,2,0.1,-inf"), ":11: a value that is not finite"),
        ("inf_t", rows + "inf,0,0.1,0\n", ":17: a value that is not finite"),
    ):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("t,k,re,im\n" + body)
        assert cli_main(["audit", "--trajectory", str(bad), "--sidecar", str(sidecar), "--out", str(out)]) == 2
        assert f"{bad}{message}" in capsys.readouterr().err
        assert not (out / "energy_trace.csv").exists()
    sidecar.write_text(json.dumps({k: v for k, v in meta.items() if k != "alpha"}))
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "error: 'alpha'\n"


def test_cli_audit_rejects_a_trajectory_without_its_header(tmp_path, capsys):
    # a CSV without a header lost its first row (then "no row for mode -2"),
    # and one headed time,mode,a,b was audited as valid: both name line 1
    meta = {"alpha": 3.0, "eps": 0.0, "cutoff": 2, "dt": 0.01, "horizon": 0.02,
            "nonlinearity": "2 0 1 0 0 1\n"}
    rows = "".join(
        f"{t},{k},{0.1 + 0.2 * (k == 0)},0\n" for t in (0, 0.01, 0.02) for k in range(-2, 3)
    )
    sidecar, out = tmp_path / "t.json", tmp_path / "audit"
    sidecar.write_text(json.dumps(meta))
    for name, text, header in (
        ("headless", rows, "'0,-2,0.1,0'"),
        ("renamed", "time,mode,a,b\n" + rows, "'time,mode,a,b'"),
    ):
        bad = tmp_path / f"{name}.csv"
        bad.write_text(text)
        argv = ["audit", "--trajectory", str(bad), "--sidecar", str(sidecar), "--out", str(out)]
        assert cli_main(argv) == 2
        assert f"{bad}:1: header {header}, not 't,k,re,im'" in capsys.readouterr().err
        assert not (out / "energy_trace.csv").exists()


def test_cli_sweep_verb(tmp_path, capsys):
    rc = cli_main(
        ["sweep", "--preset", "cubic", "--axis", "eps", "--values", "0.1", "0.01",
         "--modes", "16", "--horizon", "0.1", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "sweep.csv").exists()


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("preset=example_c\nc=1\nmodes=16\nhorizon=0.05\n")
    rc = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "art")])
    assert rc == 0
    summary = json.loads(read(tmp_path / "art" / "summary.json"))
    assert summary["config"]["modes"] == 16


def test_run_custom_nonlinearity_uses_checker_witness(tmp_path):
    # a custom terms file bypasses preset expectations: the criterion analysis
    # is informational and the probe reuses the checker's witness
    from fnlslab.nonlinearity import parse_nonlinearity

    F = parse_nonlinearity("0 1 0 0 0 1\n")  # i u_x
    s = run(
        "linear_transport",
        tmp_path,
        overrides={"modes": 16, "horizon": 0.6},
        nonlinearity=F,
        seed=0,
    )
    names = {a["name"]: a for a in s["analyses"]}
    assert names["criterion"]["pass"]
    assert names["criterion"]["metrics"]["satisfied"] is False
    assert names["growth_probe"]["metrics"]["classification"] == "directional_growth_detected"
    assert s["config"]["custom_nonlinearity"] == ["0 1 0 0 0 1"]
    assert "_custom" not in s["config"]["params"]


def test_custom_run_takes_the_analyses_of_its_verdict(tmp_path, capsys):
    # the preset supplies only the evolution defaults: cubic's energy audit
    # and eps study do not run on an F whose criterion fails
    nl = tmp_path / "custom.nl"
    nl.write_text("0 1 0 0 0 1\n")  # i u_x
    out = tmp_path / "art"
    assert cli_main(["run", "--preset", "cubic", "--nonlinearity", str(nl), "--out", str(out)]) == 0
    s = json.loads(read(out / "summary.json"))
    assert [a["name"] for a in s["analyses"]] == ["criterion", "growth_probe"]
    assert s["analyses"][0]["metrics"]["satisfied"] is False
    assert s["config"]["dt"] == PRESETS["cubic"].config.dt
    assert not (out / "energy_trace.csv").exists() and not (out / "eps_rate.csv").exists()


def test_run_records_a_failed_verdict_under_dynamics(tmp_path):
    # the verdict's grid passes the budget: the criterion records the error,
    # and so does the dynamics dispatch that reads the verdict
    from fnlslab.nonlinearity import parse_nonlinearity

    s = run("cubic", tmp_path, nonlinearity=parse_nonlinearity("0 5000000 0 0 0 1\n"))
    assert [a["name"] for a in s["analyses"]] == ["criterion", "dynamics"]
    for a in s["analyses"]:
        assert not a["pass"]
        assert a["metrics"]["error"].startswith("DealiasBudgetError: alias-free grid needs")
    assert json.loads(read(tmp_path / "summary.json")) == s


def test_cli_grid_budget_error_is_exit_two(tmp_path, capsys):
    nl = tmp_path / "big.nl"
    nl.write_text("0 5000000 0 0 0 1\n")
    meta = {"alpha": 3.0, "eps": 0.0, "cutoff": 2, "dt": 0.01, "horizon": 0.01}
    sidecar, csv = tmp_path / "t.json", tmp_path / "t.csv"
    sidecar.write_text(json.dumps(meta))
    csv.write_text("t,k,re,im\n" + "".join(f"{t},{k},0.1,0\n" for t in (0, 0.01) for k in range(-2, 3)))
    for argv in (
        ["check", "--nonlinearity", str(nl)],
        ["audit", "--nonlinearity", str(nl), "--trajectory", str(csv), "--sidecar", str(sidecar),
         "--out", str(tmp_path / "art")],
    ):
        assert cli_main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: alias-free grid needs ")


def test_cli_estimates_verb(tmp_path, capsys):
    rc = cli_main(["estimates", "--quick", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "estimate_ratios.csv").exists()
    assert (tmp_path / "estimate_ratios.gp").exists()


def test_cli_invalid_config_is_exit_two(tmp_path, capsys):
    rc = cli_main(["run", "--preset", "cubic", "--alpha", "1.0", "--out", "/tmp/nope_art"])
    assert rc == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("preset=cubic\nviscosity=1\n")
    out = str(tmp_path / "art")
    for argv in (
        ["run", "--config", str(bad), "--out", out],  # unknown config key
        ["run", "--out", out],
        ["sweep", "--axis", "eps", "--values", "0.1", "--out", out],
        ["check", "--out", out],
        ["check", "--nonlinearity", str(tmp_path)],  # a directory: IsADirectoryError
        ["run", "--preset", "cubic", "--horizon", "1.0", "--dt", "0.3", "--out", out],
        ["run", "--preset", "example_b", "--c", "1", "--modes=0", "--out", out],
        ["run", "--preset", "example_b", "--c", "1", "--modes=-3", "--out", out],
        ["check", "--preset", "cubic", "--c1", "2"],  # a parameter of another family
        ["check", "--preset", "example_d", "--m", "2"],
        ["sweep", "--preset", "cubic", "--axis", "bogus", "--values", "1", "2", "--out", out],
        ["sweep", "--preset", "cubic", "--axis", "seed", "--values", "1", "--out", out],
        ["sweep", "--preset", "cubic", "--axis", "eps", "--out", out],  # no values
        ["sweep", "--preset", "cubic", "--axis", "eps", "--values", "--out", out],
        ["sweep", "--preset", "example_d", "--axis", "c", "--values", "1", "2", "--out", out],
        ["sweep", "--preset", "example_d", "--c", "1", "--axis", "alpha", "--values", "3",
         "--out", out],
        ["sweep", "--preset", "septic", "--axis", "alpha", "--values", "3", "--out", out],
    ):
        assert cli_main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)  # rejected before any run started


def test_cli_verbs_reject_flags_they_do_not_read(tmp_path, capsys):
    nl = tmp_path / "custom.nl"
    nl.write_text("0 1 0 0 0 1\n")  # i u_x
    out = str(tmp_path / "art")
    for argv in (
        # a run with an explicit nonlinearity takes no family parameters
        ["run", "--preset", "cubic", "--nonlinearity", str(nl), "--c", "5", "--out", out],
        ["run", "--preset", "example_d", "--nonlinearity", str(nl), "--c2", "1", "--out", out],
        # and neither does a check of one
        ["check", "--nonlinearity", str(nl), "--c", "2", "--out", out],
        ["check", "--nonlinearity", str(nl), "--m", "2", "--out", out],
        ["check", "--nonlinearity", str(nl), "--c1", "2", "--out", out],
        ["check", "--preset", "cubic", "--nonlinearity", str(nl), "--c2", "2", "--out", out],
        ["estimates", "--modes", "5", "--alpha", "7", "--out", out],
        ["estimates", "--preset", "cubic", "--out", out],
        ["audit", "--trajectory", "t.csv", "--sidecar", "t.json", "--alpha", "3", "--out", out],
        ["audit", "--trajectory", "t.csv", "--sidecar", "t.json", "--config", "c", "--out", out],
    ):
        assert cli_main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)
    with pytest.raises(ValueError, match="family parameters"):
        run("cubic", out, overrides={"c": "2"}, nonlinearity=PRESETS["cubic"].family(1j))
    # the flags each of them reads
    args = build_parser().parse_args(["estimates", "--seed", "3", "--quick"])
    assert _collect(args) == (None, None, {}, 3) and args.quick
    args = build_parser().parse_args(["audit", "--trajectory", "t.csv", "--sidecar", "t.json",
                                      "--nonlinearity", str(nl), "--r", "2.5"])
    assert _collect(args) == (None, str(nl), {}, 0) and args.r == 2.5


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--preset", "cubic", "--eps", "nan"],
        ["run", "--preset", "cubic", "--eps", "inf"],
        ["run", "--preset", "cubic", "--alpha", "inf"],
        ["run", "--preset", "cubic", "--c", "nan"],
        ["check", "--preset", "cubic", "--c", "nan"],
        ["check", "--nonlinearity", "NAN_FILE"],
        ["audit", "--trajectory", "CSV", "--sidecar", "SIDECAR", "--r", "nan"],
        ["audit", "--trajectory", "CSV", "--sidecar", "SIDECAR", "--r", "inf"],
    ],
    ids=" ".join,
)
def test_cli_non_finite_setting_is_exit_two(argv, tmp_path, capsys):
    files = {"NAN_FILE": tmp_path / "nan.txt", "CSV": tmp_path / "t.csv",
             "SIDECAR": tmp_path / "t.json"}
    files["NAN_FILE"].write_text("2 0 1 0 0 1\n1 0 0 0 nan 0\n")
    # a cutoff-2 trajectory of cubic(i) that audits cleanly at the default r
    files["CSV"].write_text("t,k,re,im\n" + "".join(
        f"{t},{k},{0.3 / (1 + k * k)},0\n" for t in (0, 0.01, 0.02) for k in range(-2, 3)
    ))
    files["SIDECAR"].write_text(json.dumps(
        {"alpha": 3.0, "eps": 0.0, "cutoff": 2, "dt": 0.01, "horizon": 0.02,
         "nonlinearity": "2 0 1 0 0 1\n"}
    ))
    out = str(tmp_path / "art")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main([str(files.get(a, a)) for a in argv] + ["--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)  # rejected before any run started


def test_cli_rejected_value_names_its_flag(tmp_path, capsys):
    out = str(tmp_path / "art")
    assert cli_main(["run", "--preset", "cubic", "--modes", "2.5", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --modes: invalid modes value '2.5'")
    assert cli_main(["sweep", "--preset", "cubic", "--axis", "eps", "--values", "0.1", "x",
                     "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: --values: invalid eps value 'x'")
    assert not os.path.exists(out)


def test_cli_rejected_value_names_its_config_line(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("preset=example_c\n# the coefficient\nc = 1+\nmodes=8\n")
    out = str(tmp_path / "art")
    assert cli_main(["run", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}:3: invalid c value '1+'")
    # a flag overrides the file, and is then the value's source
    assert cli_main(["run", "--config", str(cfg), "--c", "2j+", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: --c: invalid c value '2j+'")
    assert not os.path.exists(out)


def test_cli_takes_negative_complex_values(tmp_path, capsys):
    base = ["--preset", "example_c", "--modes", "4", "--horizon", "0.0025"]
    rc = cli_main(["sweep", *base, "--axis", "c", "--values", "1", "i", "-i", "1+2i",
                   "--out", str(tmp_path / "s")])
    assert rc in (0, 1)
    rows = json.loads(read(tmp_path / "s" / "sweep.json"))
    assert [r["value"] for r in rows] == [
        {"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 1.0}, {"re": -0.0, "im": -1.0},
        {"re": 1.0, "im": 2.0},
    ]
    rc = cli_main(["run", *base, "--c", "-i", "--out", str(tmp_path / "r")])
    assert rc in (0, 1)
    params = json.loads(read(tmp_path / "r" / "summary.json"))["config"]["params"]
    assert params["c"] == {"re": -0.0, "im": -1.0}
    capsys.readouterr()
    assert cli_main(["run", *base, "--bogus", "--out", str(tmp_path / "b")]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_cli_sweep_exit_one_on_failure(tmp_path, capsys):
    # a run that errors, then an analysis that fails (too few snapshots to fit)
    rc = cli_main(["sweep", "--preset", "cubic", "--axis", "alpha", "--values", "1.5",
                   "--out", str(tmp_path / "a")])
    assert rc == 1
    rc = cli_main(["sweep", "--preset", "example_c", "--c", "i", "--axis", "horizon",
                   "--values", "0.0005", "--modes", "8", "--out", str(tmp_path / "b")])
    assert rc == 1
    assert "growth_probe=FAIL" in capsys.readouterr().out


def test_cli_entry_point_subprocess(tmp_path):
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "fnlslab.cli", "check", "--preset", "example_d",
         "--c1", "1", "--c2", "2", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip())["satisfied"] is True


# one typed value per run setting, and the same value as a flag or file would spell it
TYPED = {"alpha": 2.5, "eps": 0.01, "modes": 16, "dt": 1e-3, "horizon": 0.05,
         "record_every": 5, "seed": 3, "c": 1j, "m": 2, "c1": 1 + 2j, "c2": -1.0}
TEXT = {"alpha": "2.5", "eps": "1e-2", "modes": "16", "dt": "0.001", "horizon": "0.05",
        "record_every": "5", "seed": "3", "c": "i", "m": "2", "c1": "1+2i", "c2": "-1"}


def test_settings_table_drives_flags_config_and_axes(tmp_path):
    assert set(TYPED) == set(TEXT) == set(SETTINGS)
    assert parse_settings(TEXT) == parse_settings(TYPED) == TYPED
    parser = build_parser()
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in TEXT.items()))
    for verb, extra in (("run", []), ("check", []), ("sweep", ["--axis", "eps", "--values", "0"])):
        for key, text in TEXT.items():
            _, _, settings, seed = _collect(parser.parse_args([verb, f"--{key}", text, *extra]))
            assert dict(settings, seed=seed) == {"seed": 0, key: TYPED[key]}
        args = parser.parse_args([verb, "--config", str(cfg), *extra])
        preset, nl_path, settings, seed = _collect(args)
        assert (preset, nl_path, dict(settings, seed=seed)) == (None, None, TYPED)
    for key in SETTINGS:
        if key == "seed":
            with pytest.raises(ValueError):
                sweep("cubic", key, [], tmp_path / key)
        else:
            assert sweep("cubic", key, [], tmp_path / key) == []


def test_integer_settings_are_strict():
    # these used to read 2, 8, 1 and -3
    for raw in ({"record_every": 2.5}, {"modes": 8.9}, {"m": True}, {"seed": -3},
                {"seed": "-1"}, {"modes": "8.0"}, {"m": np.True_}, {"record_every": np.float64(5)}):
        with pytest.raises(ValueError, match=f"invalid {next(iter(raw))} value"):
            parse_settings(raw)
    typed = parse_settings({"modes": np.int64(8), "seed": " 7 ", "m": "2", "record_every": 0})
    assert typed == {"modes": 8, "seed": 7, "m": 2, "record_every": 0}
    assert all(type(v) is int for v in typed.values())


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--preset", "cubic"],  # satisfied: the seed is never used
        ["check", "--preset", "example_b"],
        ["run", "--preset", "cubic"],
        ["sweep", "--preset", "cubic", "--axis", "eps", "--values", "0.1"],
        ["estimates", "--quick"],
        ["audit", "--trajectory", "t.csv", "--sidecar", "t.json"],  # audit takes no --seed
    ],
    ids=lambda argv: argv[0] + ("_" + argv[2] if argv[0] == "check" else ""),
)
def test_every_verb_rejects_a_negative_seed(argv, tmp_path, capsys):
    out = str(tmp_path / "art")
    assert cli_main([*argv, "--seed", "-1", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)


def test_cli_record_every_by_flag_or_file(tmp_path, capsys):
    base = ["run", "--preset", "example_c", "--c", "1", "--modes", "16", "--horizon", "0.05"]
    assert cli_main([*base, "--record_every", "5", "--out", str(tmp_path / "flag")]) == 0
    cfg = tmp_path / "job.cfg"
    cfg.write_text("record_every=5\n")
    assert cli_main([*base, "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    for name in ("flag", "file"):
        assert json.loads(read(tmp_path / name / "summary.json"))["config"]["record_every"] == 5
