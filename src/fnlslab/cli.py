"""Command-line driver.

Verbs:

  check      criterion verdict only (preset or nonlinearity file)
  run        execute a preset's analyses into an artifact directory
  sweep      run a preset across values of one parameter
  estimates  the inequality stress lab
  audit      modified-energy audit of a stored trajectory

Flat key=value config files are accepted via --config; command-line flags
override file values.  Exit status: 0 all analyses passed, 1 an analysis
failed, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import energy as energy_mod
from . import experiments as exp
from .evolution import read_trajectory
from .nonlinearity import (
    check_wellposedness_condition,
    format_nonlinearity,
    parse_nonlinearity,
    preset as nonlinearity_preset,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--preset", help="preset name")
    p.add_argument("--nonlinearity", help="nonlinearity terms file (a b c d re im)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--modes", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="artifacts", help="artifact directory")
    p.add_argument("--c", help="coefficient for cubic/example_b/example_c/linear_transport")
    p.add_argument("--m", type=int, help="power for example_b")
    p.add_argument("--c1", help="first coefficient for example_d")
    p.add_argument("--c2", help="second coefficient for example_d")


def _collect(args: argparse.Namespace) -> tuple[str | None, dict, int, str]:
    conf: dict = {}
    if args.config:
        conf.update(exp.parse_config_file(args.config))
    for key in ("preset", "alpha", "eps", "modes", "dt", "horizon", "seed", "c", "m", "c1", "c2", "nonlinearity"):
        val = getattr(args, key, None)
        if val is not None:
            conf[key] = val
    preset = conf.pop("preset", None)
    seed = int(conf.pop("seed", 0))
    out = args.out
    overrides: dict = {}
    for key in ("alpha", "eps", "dt", "horizon"):
        if key in conf:
            overrides[key] = float(conf.pop(key))
    if "modes" in conf:
        overrides["modes"] = int(conf.pop("modes"))
    if "record_every" in conf:
        overrides["record_every"] = int(conf.pop("record_every"))
    for key in ("c", "c1", "c2"):
        if key in conf:
            overrides[key] = exp.parse_complex(str(conf.pop(key)))
    if "m" in conf:
        overrides["m"] = int(conf.pop("m"))
    nl_path = conf.pop("nonlinearity", None)
    if conf:
        raise ValueError(f"unknown config keys: {sorted(conf)}")
    if nl_path:
        overrides["_nonlinearity_path"] = nl_path
    return preset, overrides, seed, out


def _load_nonlinearity(preset: str | None, overrides: dict):
    path = overrides.pop("_nonlinearity_path", None)
    if path:
        with open(path) as fh:
            return parse_nonlinearity(fh.read())
    if preset:
        params = {k: overrides[k] for k in ("c", "m", "c1", "c2") if k in overrides}
        return nonlinearity_preset(preset, **params)
    raise ValueError("need --preset or --nonlinearity")


def cmd_check(args) -> int:
    preset, overrides, seed, out = _collect(args)
    F = _load_nonlinearity(preset, dict(overrides))
    verdict = check_wellposedness_condition(F, seed=seed)
    payload = {
        "satisfied": verdict.satisfied,
        "witness_value": verdict.witness_value,
        "trials": verdict.trials,
        "tolerance": verdict.tolerance,
        "nonlinearity": format_nonlinearity(F).strip().splitlines(),
    }
    print(json.dumps(payload, sort_keys=True))
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "criterion.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def cmd_run(args) -> int:
    preset, overrides, seed, out = _collect(args)
    if preset is None:
        raise ValueError("run needs --preset")
    nl = None
    if "_nonlinearity_path" in overrides:
        nl = _load_nonlinearity(None, overrides)
    summary = exp.run(preset, out, overrides=overrides, nonlinearity=nl, seed=seed)
    for a in summary["analyses"]:
        print(f"{a['name']}: {'pass' if a['pass'] else 'FAIL'}")
    print(f"artifacts: {out}")
    return 0 if all(a["pass"] for a in summary["analyses"]) else 1


def cmd_sweep(args) -> int:
    preset, overrides, seed, out = _collect(args)
    if preset is None:
        raise ValueError("sweep needs --preset")
    axis = args.axis
    values: list = []
    for tok in args.values:
        if axis in ("modes", "m", "record_every"):
            values.append(int(tok))
        elif axis in ("c", "c1", "c2"):
            values.append(exp.parse_complex(tok))
        else:
            values.append(float(tok))
    rows = exp.sweep(preset, axis, values, out, overrides=overrides, seed=seed)
    ok = True
    for row in rows:
        if row["error"]:
            ok = False
            print(f"{axis}={row['value']}: ERROR {row['error']}")
        else:
            ok &= all(a["pass"] for a in row["summary"]["analyses"])
            flags = ",".join(
                f"{a['name']}={'pass' if a['pass'] else 'FAIL'}"
                for a in row["summary"]["analyses"]
            )
            print(f"{axis}={row['value']}: {flags}")
    print(f"artifacts: {out}")
    return 0 if ok else 1


def cmd_estimates(args) -> int:
    _, _, seed, out = _collect(args)
    summary = exp.run_estimates(out, seed=seed, quick=args.quick)
    ok = True
    for a in summary["analyses"]:
        name = a.get("estimate", a.get("name"))
        ok &= a["pass"]
        print(f"{name}: {'pass' if a['pass'] else 'FAIL'}")
    print(f"artifacts: {out}")
    return 0 if ok else 1


def cmd_audit(args) -> int:
    preset, overrides, seed, out = _collect(args)
    traj = read_trajectory(args.trajectory, args.sidecar)
    with open(args.sidecar) as fh:
        meta = json.load(fh)
    if "_nonlinearity_path" in overrides:
        F = _load_nonlinearity(None, overrides)
    elif "nonlinearity" in meta:
        F = parse_nonlinearity(meta["nonlinearity"])
    else:
        raise ValueError("no nonlinearity available: pass --nonlinearity")
    r = args.r if args.r is not None else exp.regularity_threshold(traj.config.alpha) + 0.1
    trace = energy_mod.energy_audit(traj, F, r)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "energy_trace.csv")
    energy_mod.write_energy_csv(trace, path)
    violations = int((~trace.coercivity_ok).sum())
    print(f"snapshots: {len(trace.times)}  coercivity violations: {violations}")
    print(f"growth constant (max positive slope of log(1+E)): {trace.lipschitz:.6g}")
    print(f"artifacts: {path}")
    return 0 if violations == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fnlslab",
        description="Pseudospectral laboratory for derivative fractional NLS on the torus",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="criterion verdict only")
    _add_common(p)
    p.set_defaults(fn=cmd_check, out=None)  # criterion.json only with --out

    p = sub.add_parser("run", help="execute a preset")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run a preset across parameter values")
    _add_common(p)
    p.add_argument("--axis", required=True, help="parameter to vary (eps, alpha, modes, ...)")
    p.add_argument("--values", nargs="*", default=[], help="values for the axis")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("estimates", help="inequality stress lab")
    _add_common(p)
    p.add_argument("--quick", action="store_true", help="smaller cutoff ladder")
    p.set_defaults(fn=cmd_estimates)

    p = sub.add_parser("audit", help="energy audit of a stored trajectory")
    _add_common(p)
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
    p.add_argument("--sidecar", required=True, help="trajectory JSON sidecar")
    p.add_argument("--r", type=float, help="energy regularity index (default s0(alpha)+0.1)")
    p.set_defaults(fn=cmd_audit)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
