"""Command-line driver.

Verbs:

  check      criterion verdict only (preset or nonlinearity file)
  run        execute a preset's analyses into an artifact directory
  sweep      run a preset across values of one setting
  estimates  the inequality stress lab
  audit      modified-energy audit of a stored trajectory

The run settings come from one table, `experiments.SETTINGS`: each of its
keys is a flag (--alpha, --modes, --c1, ...), a key of the flat key=value
file given by --config, and (seed aside) a sweep --axis.  Flag and file
values merge as strings, flags overriding the file, and the table's parsers
type them.  Exit status: 0 all analyses passed, 1 an analysis failed, 2
invalid configuration (a bad command line included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import energy as energy_mod
from . import experiments as exp
from .evolution import _trajectory_from, _write_json
from .nonlinearity import (
    check_wellposedness_condition,
    format_nonlinearity,
    parse_nonlinearity,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad command line is invalid configuration too
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")

    def _parse_optional(self, arg_string):
        # A number such as -i, -2.5 or -1+2i is a value, never an option:
        # argparse by itself only lets plain negative numbers through.
        try:
            exp.parse_complex(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--preset", help="preset name")
    p.add_argument("--nonlinearity", help="nonlinearity terms file (a b c d re im)")
    p.add_argument("--out", default="artifacts", help="artifact directory")
    for key, parse in exp.SETTINGS.items():
        p.add_argument(f"--{key}", help=f"run setting, parsed by {parse.__name__.lstrip('_')}")


def _collect(args: argparse.Namespace) -> tuple[str | None, str | None, dict, int]:
    """Preset, nonlinearity path, typed run settings and seed; flags override the
    file, and a flag the verb does not take reads as not given."""
    sources: dict = {}
    config = getattr(args, "config", None)
    conf = exp.parse_config_file(config, sources) if config else {}
    for key in ("preset", "nonlinearity", *exp.SETTINGS):
        if getattr(args, key, None) is not None:
            conf[key], sources[key] = getattr(args, key), f"--{key}"
    preset = conf.pop("preset", None)
    nl_path = conf.pop("nonlinearity", None)
    settings = exp.parse_settings(conf, sources)
    seed = settings.pop("seed", 0)
    return preset, nl_path, settings, seed


def _read_nonlinearity(path: str):
    with open(path) as fh:
        return parse_nonlinearity(fh.read())


def cmd_check(args) -> int:
    preset, nl_path, settings, seed = _collect(args)
    if nl_path:
        F = _read_nonlinearity(nl_path)
    elif preset:
        F = exp.PRESETS[preset].family(**exp.family_params(preset, settings))
    else:
        raise ValueError("need --preset or --nonlinearity")
    verdict = check_wellposedness_condition(F, seed=seed)
    payload = exp._verdict_fields(verdict)
    payload["nonlinearity"] = format_nonlinearity(F).strip().splitlines()
    print(json.dumps(payload, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "criterion.json"), payload)
    return 0


def _report(summary: dict, out: str) -> int:
    """Print each analysis of a summary as pass or FAIL; exit 0 if all passed, else 1."""
    for a in summary["analyses"]:
        print(f"{a['name']}: {'pass' if a['pass'] else 'FAIL'}")
    print(f"artifacts: {out}")
    return 0 if all(a["pass"] for a in summary["analyses"]) else 1


def cmd_run(args) -> int:
    preset, nl_path, settings, seed = _collect(args)
    if preset is None:
        raise ValueError("run needs --preset")
    nl = _read_nonlinearity(nl_path) if nl_path else None
    summary = exp.run(preset, args.out, overrides=settings, nonlinearity=nl, seed=seed)
    return _report(summary, args.out)


def cmd_sweep(args) -> int:
    preset, nl_path, settings, seed = _collect(args)
    if preset is None:
        raise ValueError("sweep needs --preset")
    if nl_path:
        raise ValueError("sweep runs preset families only; it takes no --nonlinearity")
    axis = args.axis
    values = [exp.parse_settings({axis: v}, {axis: "--values"})[axis] for v in args.values]
    rows = exp.sweep(preset, axis, values, args.out, overrides=settings, seed=seed)
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
    print(f"artifacts: {args.out}")
    return 0 if ok else 1


def cmd_estimates(args) -> int:
    summary = exp.run_estimates(args.out, seed=_collect(args)[3], quick=args.quick)
    return _report(summary, args.out)


def cmd_audit(args) -> int:
    nl_path = _collect(args)[1]
    with open(args.sidecar) as fh:
        meta = json.load(fh)
    traj = _trajectory_from(args.trajectory, meta)
    if nl_path:
        F = _read_nonlinearity(nl_path)
    elif "nonlinearity" in meta:
        F = parse_nonlinearity(meta["nonlinearity"])
    else:
        raise ValueError("no nonlinearity available: pass --nonlinearity")
    r = args.r if args.r is not None else exp.regularity_threshold(traj.config.alpha) + 0.1
    trace = energy_mod.energy_audit(traj, F, r)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "energy_trace.csv")
    energy_mod.write_energy_csv(trace, path)
    violations = int((~trace.coercivity_ok).sum())
    print(f"snapshots: {len(trace.times)}  coercivity violations: {violations}")
    print(f"growth constant (max positive slope of log(1+E)): {trace.lipschitz:.6g}")
    print(f"artifacts: {path}")
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--axis", required=True, help="run setting to vary (any but seed)")
    p.add_argument("--values", nargs="+", required=True, help="values for the axis")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("estimates", help="inequality stress lab")
    p.add_argument("--seed", help="run setting, parsed by nonnegative_int")
    p.add_argument("--out", default="artifacts", help="artifact directory")
    p.add_argument("--quick", action="store_true", help="smaller cutoff ladder")
    p.set_defaults(fn=cmd_estimates)

    p = sub.add_parser("audit", help="energy audit of a stored trajectory")
    p.add_argument("--nonlinearity", help="nonlinearity terms file (a b c d re im)")
    p.add_argument("--out", default="artifacts", help="artifact directory")
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
    p.add_argument("--sidecar", required=True, help="trajectory JSON sidecar")
    p.add_argument("--r", type=float, help="energy regularity index (default s0(alpha)+0.1)")
    p.set_defaults(fn=cmd_audit)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
