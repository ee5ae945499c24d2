"""Command-line front end.

Sector parameters (--alpha, --beta) are given in degrees; folding angles
(--drive, --rho*, --seed*) are radians unless --degrees is passed.  Exit
codes: 0 success, 2 domain error, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import config_space as cs
from . import fold_models as fm
from .core_geometry import g60
from .errors import NoSolutionError, OutOfRangeError, RigidFoldError
from .symmetry_enumeration import classify_g60

_MODELS = {m.value: m for m in fm.FoldModel}


def _rad(value: float, args) -> float:
    return math.radians(value) if args.degrees else value


def _sector(value_deg: float) -> float:
    return math.radians(value_deg)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--degrees", action="store_true", help="folding-angle flags are degrees")
    p.add_argument("--tol", type=float, default=cs.DEFAULT_TOL, help="closure tolerance")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", default=None, help="output format")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rigidfold",
                                 description="Rigid folding kinematics of a degree-6 vertex.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="classify all six-crease bracelet colorings")
    _add_common(p)

    p = sub.add_parser("fold", help="evaluate one folded state of a family")
    p.add_argument("model", choices=sorted(_MODELS))
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--alpha", type=float, default=60.0, help="sector angle, degrees")
    p.add_argument("--beta", type=float, default=60.0, help="sector angle, degrees")
    p.add_argument("--drive", type=float, default=None)
    for i in range(1, 7):
        p.add_argument(f"--rho{i}", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("sweep", help="sample a family over its drive range")
    p.add_argument("model", choices=sorted(_MODELS))
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--alpha", type=float, default=60.0)
    p.add_argument("--beta", type=float, default=60.0)
    p.add_argument("-n", type=int, default=100, help="sample count (per axis for grids)")
    _add_common(p)

    p = sub.add_parser("trace", help="trace the two-pair relation curve")
    p.add_argument("--seed1", type=float, default=0.0)
    p.add_argument("--seed2", type=float, default=0.0)
    p.add_argument("--step", type=float, default=0.02)
    _add_common(p)

    p = sub.add_parser("region", help="admissible (rho4, rho5) mask at fixed rho6")
    p.add_argument("--rho6", type=float, required=True)
    p.add_argument("-n", type=int, default=201)
    _add_common(p)

    p = sub.add_parser("resch", help="fold the seven-vertex symmetric patch")
    p.add_argument("--drive", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("export", help="convert a json sample file to csv or obj")
    p.add_argument("input")
    p.add_argument("--model", choices=sorted(_MODELS), default="general",
                   help="pattern family the samples fold (matters for obj)")
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--alpha", type=float, default=60.0)
    p.add_argument("--beta", type=float, default=60.0)
    _add_common(p)
    return ap


def _table_json(rows) -> str:
    payload = [
        {
            "k": r.k,
            "pattern_count": r.pattern_count,
            "foldable": [
                {"pattern": str(p), "name": name, "dof": dof}
                for p, name, dof in r.foldable_patterns
            ],
        }
        for r in rows
    ]
    return json.dumps(payload, indent=1) + "\n"


def _table_text(rows) -> str:
    lines = [f"{'k':>2}  {'patterns':>8}  foldable"]
    for r in rows:
        cells = [f"{str(p)} ({name or 'unnamed'}, dof {dof})" for p, name, dof in r.foldable_patterns]
        lines.append(f"{r.k:>2}  {r.pattern_count:>8}  {'; '.join(cells) if cells else '-'}")
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    rows = classify_g60()
    _emit(_table_json(rows) if args.format == "json" else _table_text(rows), args.output)
    return 0


def _fold_mode(args) -> fm.FoldMode:
    return fm.FoldMode(_MODELS[args.model], args.mode, _sector(args.alpha), _sector(args.beta))


def _drive_values(args, names) -> tuple[float, ...]:
    """The named drive flags in order; a lone rho drive may also be given as --drive."""
    vals = []
    for name in names:
        val, flag = getattr(args, name), f"--{name}"
        if len(names) == 1 and name != "drive":
            val, flag = (args.drive if args.drive is not None else val), f"--drive ({name})"
        if val is None:
            raise OutOfRangeError(f"{args.model} requires {flag}")
        vals.append(_rad(val, args))
    return tuple(vals)


def _opposites_state(args) -> tuple[np.ndarray, object]:
    """Any two of rho1..rho3 fix the third; a vacuous relation is an error here."""
    names = ("rho1", "rho2", "rho3")
    given = {n: _rad(getattr(args, n), args) for n in names if getattr(args, n) is not None}
    if len(given) != 2:
        raise OutOfRangeError("opposites requires exactly two of --rho1 --rho2 --rho3")
    mode = _fold_mode(args)
    sol = fm.opposites_solve(mode.alpha, mode.beta, **given)
    if sol.free:
        raise NoSolutionError("relation is vacuous; the third angle is free")
    vec = fm.opposites_vector(*(given.get(n, sol.angles[0]) for n in names))
    return vec, fm.FAMILIES[mode.model].pattern(mode)


def _fold_state(args) -> tuple[np.ndarray, object]:
    model = _MODELS[args.model]
    if model is fm.FoldModel.OPPOSITES:
        return _opposites_state(args)
    fam = fm.FAMILIES[model]
    drives = _drive_values(args, fam.drives)
    mode = _fold_mode(args)
    return fam.fold(mode, drives, cs.DEFAULT_TOL)[0], fam.pattern(mode)


def cmd_fold(args) -> int:
    vec, pattern = _fold_state(args)
    sample = cs.make_sample(pattern, vec, branch=args.mode, tol=args.tol)
    if args.format == "json":
        _emit(cs.samples_to_json([sample]), args.output)
    else:
        angles = " ".join(f"{x:.12g}" for x in sample.rho)
        _emit(f"rho = [{angles}]\nresidual = {sample.residual:.6e}\nvalid = {str(sample.valid).lower()}\n",
              args.output)
    return 0


def _infer_format(args, default_fmt: str) -> str:
    if args.format:
        return args.format
    if args.output:
        ext = args.output.rsplit(".", 1)[-1].lower()
        if ext in ("csv", "json", "obj"):
            return ext
    return default_fmt


def _write_samples(samples, args, pattern=None, default_fmt="csv") -> int:
    text, skipped = cs.render(samples, _infer_format(args, default_fmt), pattern, args.tol)
    _emit(text, args.output)
    if skipped:
        print(f"skipped {skipped} invalid samples", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    mode = _fold_mode(args)
    result = cs.sweep_model(mode, args.n, tol=args.tol)
    return _write_samples(result, args, fm.FAMILIES[mode.model].pattern(mode))


def cmd_trace(args) -> int:
    seed = (_rad(args.seed1, args), _rad(args.seed2, args))
    trace = cs.trace_implicit_curve(fm.two_pair_curve_residual, seed, step=args.step, tol=args.tol)
    pattern = fm.two_pair_pattern()
    points = np.array([s.rho[:2] for s in trace.samples])
    sol = fm.two_pair_solve(points[:, 0], points[:, 1], tol=max(args.tol, cs.DEFAULT_TOL))
    first = fm.drive_ranks(sol.drive) == 0  # each point's best completion; points with none are skipped
    completed = sol.vectors[first]
    return _write_samples(cs.make_samples(pattern, completed, [0] * len(completed), args.tol), args, pattern)


def cmd_region(args) -> int:
    region = cs.admissible_region(_rad(args.rho6, args), grid_n=args.n, tol=args.tol)
    fmt = _infer_format(args, "json")
    if fmt == "json":
        payload = {
            "rho6": region.rho6,
            "rho4": [float(x) for x in region.rho4_axis],
            "rho5": [float(x) for x in region.rho5_axis],
            "mask": [[bool(x) for x in row] for row in region.mask],
        }
        _emit(json.dumps(payload) + "\n", args.output)
    elif fmt == "csv":
        lines = ["rho4,rho5,admissible"]
        for i, r4 in enumerate(region.rho4_axis):
            for j, r5 in enumerate(region.rho5_axis):
                lines.append(f"{r4:.12g},{r5:.12g},{'true' if region.mask[i, j] else 'false'}")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        raise OutOfRangeError(f"region supports csv or json, not {fmt!r}")
    return 0


def cmd_resch(args) -> int:
    vertices = fm.resch_fold(_rad(args.drive, args))
    pattern = g60()
    samples = cs.make_samples(pattern, list(vertices.values()), list(vertices), args.tol)
    report = "".join(f"{s.branch}: residual {s.residual:.3e}\n" for s in samples)
    if args.output:
        _write_samples(samples, args, pattern)
    sys.stdout.write(report)
    return 0


def cmd_export(args) -> int:
    samples = cs.load_samples_json(args.input)
    mode = _fold_mode(args)
    return _write_samples(samples, args, fm.FAMILIES[mode.model].pattern(mode))


_DISPATCH = {
    "table": cmd_table,
    "fold": cmd_fold,
    "sweep": cmd_sweep,
    "trace": cmd_trace,
    "region": cmd_region,
    "resch": cmd_resch,
    "export": cmd_export,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for every later call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except RigidFoldError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
