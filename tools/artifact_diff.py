"""Replay fixed fnlslab invocations on two checkouts and diff what they produce.

    python tools/artifact_diff.py --parent PARENT_CHECKOUT

The invocations run once for the checkout this file sits in ("change") and
once for another checkout of the repository ("parent"), each side in a fresh
process with its own ``src`` on PYTHONPATH:

  - the 21 ``run`` calls of the benchmark's ``preset_sweep`` workload (7
    families x 3 alphas, as built by ``perfbench/workloads.py``) at workload
    seeds 1 and 7;
  - ``check`` of example_d(1, 2), of example_c(1e-12i) with ``--seed 2`` and
    of example_d(1e7, 2e7): the last two are the criterion's scale cases,
    ill-posed at a tiny scale and well-posed at a large one;
  - ``sweep --preset example_c --axis c --values 1 i -i 1+2i``;
  - ``estimates --quick`` (cutoffs up to 128, seed 0), and ``estimates``
    and ``estimates --seed 7`` (cutoffs up to 256, as the benchmark's
    ``criterion_batch`` workload runs it);
  - ``run --preset example_b --c 2i --m 2`` (the example_b witness at m = 2);
  - ``run --preset cubic --eps 0.05 --seed 3``: an eps outside the eps
    study, so the smooth datum's block has four rows, the run's eps and the
    study's three;
  - ``run --preset linear_transport --eps 1e-3``: the linear regression
    against the exact flow under viscosity;
  - ``run --nonlinearity FILE`` (a custom polynomial) with the evolution
    defaults of preset cubic, and with those of preset example_c: each runs
    the criterion and the dynamics, here the growth probe on the checker's
    witness against the cubic control;
  - ``run --config FILE``, whose file sets the preset and every evolution
    setting;
  - ``audit`` of a fixed cutoff-2 trajectory CSV and sidecar, whose sidecar
    names the nonlinearity and leaves record_every and blowup_ceiling to
    their defaults;
  - ``check --nonlinearity FILE`` of example_c(1) + x * linear_transport(i)
    at x = 1e-10 and 1e-11: violations below the witness search's tolerance,
    so the first field of largest |G| is the witness.

The tool writes these input files into one temporary directory.  58
invocations in all.

Each invocation writes into its own directory.  The exit codes, the printed
lines (with the output directory normalised) and ``diff -r`` of the output
trees are compared in invocation order.  The tool prints every differing
invocation with how it differs: for differing trees, the ``diff -rq`` list of
files, the largest relative difference over the numeric fields of each
differing ``.csv`` or ``.json`` file (and the field it is in), and the first
40 lines of ``diff -r``.  Then it prints how many are identical, and exits 1
if any differs, 0 when everything is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The input files of the invocations, by name.
INPUTS = {
    # A custom nonlinearity for the `run --nonlinearity` calls: i|u|^2 u_x plus
    # a transport term, which violates the criterion, so the runs take the probe.
    "custom.nl": "1 1 1 0 0 1\n0 1 0 0 0.5 0\n",
    # The preset and every evolution setting of a run.
    "run.cfg": "preset=example_d\nalpha=2.5\neps=1e-3\nmodes=24\ndt=5e-4\nhorizon=0.05\n"
    "record_every=5\n",
    # A trajectory of cubic(i) at cutoff 2, modes 0.3 e^{-i k^3 t} / (1 + k^2);
    # its sidecar leaves record_every and blowup_ceiling to their defaults.
    "audit.csv": "t,k,re,im\n" + "".join(
        f"{t!r},{k},{0.3 * math.cos(k**3 * t) / (1 + k * k)!r},"
        f"{-0.3 * math.sin(k**3 * t) / (1 + k * k)!r}\n"
        for t in (0.0, 0.01, 0.02) for k in range(-2, 3)
    ),
    "audit.json": json.dumps(
        {"alpha": 3.0, "eps": 0.0, "cutoff": 2, "dt": 0.01, "horizon": 0.02,
         "truncated": False, "nonlinearity": "2 0 1 0 0 1\n"}
    ),
    # example_c(1) + x * linear_transport(i): G = x along every field.
    "small_1e-10.nl": "1 1 1 0 2 0\n2 0 0 1 1 0\n0 1 0 0 0 1e-10\n",
    "small_1e-11.nl": "1 1 1 0 2 0\n2 0 0 1 1 0\n0 1 0 0 0 1e-11\n",
}


def invocations(inputs: str) -> list[list[str]]:
    """The fixed argument lists, without --out, reading INPUTS from the directory `inputs`."""
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import PresetSweep

    nl_path, cfg_path, csv_path, json_path, small_10, small_11 = (
        os.path.join(inputs, name) for name in INPUTS
    )
    calls = [argv for seed in (1, 7) for _, argv, _ in PresetSweep().build(seed)]
    return calls + [
        ["check", "--preset", "example_d", "--c1", "1", "--c2", "2"],
        ["check", "--preset", "example_c", "--c", "1e-12i", "--seed", "2"],
        ["check", "--preset", "example_d", "--c1", "1e7", "--c2", "2e7"],
        ["sweep", "--preset", "example_c", "--axis", "c", "--values", "1", "i", "-i", "1+2i"],
        ["estimates", "--quick"],
        ["estimates"],
        ["estimates", "--seed", "7"],
        ["run", "--preset", "example_b", "--c", "2i", "--m", "2"],
        ["run", "--preset", "cubic", "--eps", "0.05", "--seed", "3"],
        ["run", "--preset", "linear_transport", "--eps", "1e-3"],
        ["run", "--preset", "cubic", "--nonlinearity", nl_path],
        ["run", "--preset", "example_c", "--nonlinearity", nl_path],
        ["run", "--config", cfg_path],
        ["audit", "--trajectory", csv_path, "--sidecar", json_path],
        ["check", "--nonlinearity", small_10],
        ["check", "--nonlinearity", small_11],
    ]


def replay(calls_path: str, out_root: str) -> None:
    """Run every call in this process; print [exit code, stdout] per call as JSON."""
    from fnlslab.cli import main

    with open(calls_path) as fh:
        calls = json.load(fh)
    results = []
    for i, argv in enumerate(calls):
        out = os.path.join(out_root, f"{i:02d}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*argv, "--out", out])
        results.append([code, buf.getvalue().replace(out_root, "OUT")])
    print(json.dumps(results))


def _run_side(checkout: str, calls_path: str, out_root: str) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--replay", calls_path, out_root],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def difference(i, argv, results, roots) -> str | None:
    """A report of how invocation i differs between the sides, or None."""
    (code_p, out_p), (code_c, out_c) = results["parent"][i], results["change"][i]
    what = "fnlslab " + " ".join(argv)
    if code_p != code_c:
        return f"{what}\nexit code: parent {code_p}, change {code_c}"
    if out_p != out_c:
        return f"{what}\nstdout differs:\n--- parent\n{out_p}--- change\n{out_c}"
    trees = [os.path.join(roots[side], f"{i:02d}") for side in ("parent", "change")]
    listing = subprocess.run(["diff", "-rq", *trees], capture_output=True, text=True)
    if listing.returncode == 0:
        return None
    lines = [what, "output trees differ:", *(listing.stdout + listing.stderr).splitlines()]
    for line in listing.stdout.splitlines():
        if line.startswith("Files ") and line.endswith(" differ"):
            a, b = line[len("Files ") : -len(" differ")].split(" and ")
            if a.endswith((".csv", ".json")):
                lines.append(f"{os.path.relpath(a, trees[0])}: {_largest_relative(a, b)}")
    diff = subprocess.run(["diff", "-r", *trees], capture_output=True, text=True)
    return "\n".join(lines + (diff.stdout + diff.stderr).splitlines()[:40])


def _numbers(path: str) -> list:
    """The numeric fields of a .csv file (named by its header) or a .json file
    (named by the key they sit under), in file order, as (name, value)."""
    with open(path) as fh:
        if path.endswith(".json"):
            return list(_leaves(json.load(fh), ""))
        header, *rows = list(csv.reader(fh)) or [[]]
    out = []
    for row in rows:
        for name, cell in zip(header, row):
            with contextlib.suppress(ValueError):
                out.append((name, float(cell)))
    return out


def _leaves(obj, name: str):
    """The numbers in a parsed JSON value, each as (its nearest key, value)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value, name)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield name, float(obj)


def _largest_relative(parent: str, change: str) -> str:
    """The largest |a - b| / max(|a|, |b|) over the numeric fields of two files."""
    a, b = _numbers(parent), _numbers(change)
    if [name for name, _ in a] != [name for name, _ in b]:
        return "numeric fields differ in number or names"
    worst, where = 0.0, None
    for (name, x), (_, y) in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        r = abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x) and math.isfinite(y) else math.inf
        if r > worst:
            worst, where = r, name
    return f"largest relative difference {worst:.3g}" + (f" (field {where})" if where else "")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout to compare against")
    p.add_argument("--replay", nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.replay:
        replay(*args.replay)
        return 0
    if not args.parent:
        p.error("--parent is required")
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        for name, text in INPUTS.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
        calls = invocations(tmp)
        calls_path = os.path.join(tmp, "calls.json")
        with open(calls_path, "w") as fh:
            json.dump(calls, fh)
        roots = {side: os.path.join(tmp, side) for side in sides}
        results = {side: _run_side(sides[side], calls_path, roots[side]) for side in sides}
        reports = [r for i, argv in enumerate(calls) if (r := difference(i, argv, results, roots))]
    for report in reports:
        print(report + "\n")
    print(f"{len(calls) - len(reports)} of {len(calls)} invocations: exit codes, stdout and "
          "output trees identical")
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
