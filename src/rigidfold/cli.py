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
from .core_geometry import check_fold_angle, g60, wrap_angles
from .errors import OutOfRangeError, RigidFoldError
from .symmetry_enumeration import classify_g60

_MODELS = {m.value: m for m in fm.FoldModel}
_ANGLE_FLAGS = ("drive", "rho1", "rho2", "rho3", "rho4", "rho5", "rho6")  # the folding angles `fold` takes


def _rad(value: float, args) -> float:
    return math.radians(value) if args.degrees else value


def _emit(text: str, out: str | None):
    if out:
        cs.write_text(out, text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser, degrees: bool = True):
    """Output flags, with --degrees for a command that reads folding angles."""
    if degrees:
        p.add_argument("--degrees", action="store_true", help="folding-angle flags are degrees")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", default=None, help="output format")


def _add_family(p: argparse.ArgumentParser, **model):
    """The family flags: the model (positional, or an option with the ``model`` settings when they are given),
    its mode and the sector angles in degrees."""
    if model:
        p.add_argument("--model", choices=sorted(_MODELS), **model)
    else:
        p.add_argument("model", choices=sorted(_MODELS))
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--alpha", type=float, default=60.0, help="sector angle, degrees")
    p.add_argument("--beta", type=float, default=60.0, help="sector angle, degrees")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rigidfold",
                                 description="Rigid folding kinematics of a degree-6 vertex.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="classify all six-crease bracelet colorings")
    _add_common(p, degrees=False)

    p = sub.add_parser("fold", help="evaluate one folded state of a family")
    _add_family(p)
    for name in _ANGLE_FLAGS:
        p.add_argument(f"--{name}", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("sweep", help="sample a family over its drive range")
    _add_family(p)
    p.add_argument("-n", type=int, default=100, help="sample count (per axis for grids)")
    _add_common(p, degrees=False)

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
    _add_family(p, default="general", help="pattern family the samples fold (matters for obj)")
    _add_common(p, degrees=False)
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
    fmt = _infer_format(args, ("text", "json"), "text")
    rows = classify_g60()
    _emit(_table_json(rows) if fmt == "json" else _table_text(rows), args.output)
    return 0


def _fold_mode(args) -> fm.FoldMode:
    return fm.FoldMode(_MODELS[args.model], args.mode, math.radians(args.alpha), math.radians(args.beta))


def _refuse_unread(args, names):
    """Refuse an angle flag that the model does not read."""
    unread = [f"--{n}" for n in _ANGLE_FLAGS if n not in names and getattr(args, n) is not None]
    if unread:
        raise OutOfRangeError(f"{args.model} does not take {' '.join(unread)}")


def _drive_values(args, names) -> tuple[float, ...]:
    """The named drive flags in order; a lone rho drive may be given as --drive instead, not as both."""
    lone = len(names) == 1 and names[0] != "drive"
    if lone and args.drive is not None:
        if getattr(args, names[0]) is not None:
            raise OutOfRangeError(f"{args.model} takes --{names[0]} or --drive, not both")
        names = ("drive",)
    _refuse_unread(args, names)
    for name in names:
        if getattr(args, name) is None:
            flag = f"--drive ({name})" if lone else f"--{name}"
            raise OutOfRangeError(f"{args.model} requires {flag}")
    return tuple(_rad(getattr(args, name), args) for name in names)


def _opposites_drives(args) -> tuple[tuple[float, float], fm.FoldMode, float | None]:
    """(rho1, rho2) from any two of rho1..rho3, the missing one as ``opposites_solve`` gives it (a free one
    is taken flat, as the family does), the mode, and rho3 if it is given."""
    names = ("rho1", "rho2", "rho3")
    _refuse_unread(args, names)
    given = {n: _rad(getattr(args, n), args) for n in names if getattr(args, n) is not None}
    if len(given) != 2:
        raise OutOfRangeError("opposites requires exactly two of --rho1 --rho2 --rho3")
    mode = _fold_mode(args)
    sol = fm.opposites_solve(mode.alpha, mode.beta, **given)
    third = 0.0 if sol.free else sol.angles[0]
    return (given.get("rho1", third), given.get("rho2", third)), mode, given.get("rho3")


def _fold_state(args) -> tuple[np.ndarray, int, object]:
    """The first state the family reports at the drives the flags give, its branch tag and the crease pattern."""
    model = _MODELS[args.model]
    fam, rho3 = fm.FAMILIES[model], None
    if model is fm.FoldModel.OPPOSITES:
        drives, mode, rho3 = _opposites_drives(args)
    else:
        drives, mode = _drive_values(args, fam.drives), _fold_mode(args)
    pattern = mode.pattern  # sectors that make no vertex fail before the solve
    vectors, tags = fam.rows(mode, [drives])
    if rho3 is not None:  # a given rho3 is reported as given, not as the pair recomputes it
        vectors[0, 2::3] = rho3
    return vectors[0], tags[0], pattern


def cmd_fold(args) -> int:
    fmt = _infer_format(args, ("text", "json"), "text")
    vec, branch, pattern = _fold_state(args)
    sample = cs.make_sample(pattern, vec, branch=branch)
    if fmt == "json":
        _emit(cs.samples_to_json([sample]), args.output)
    else:
        angles = " ".join(f"{x:.12g}" for x in sample.rho)
        _emit(f"rho = [{angles}]\nresidual = {sample.residual:.6e}\nvalid = {str(sample.valid).lower()}\n",
              args.output)
    return 0


def _infer_format(args, supported: tuple[str, ...], default: str) -> str:
    """--format, else the -o extension when it names a format, else ``default``.

    A format outside the command's ``supported`` set raises OutOfRangeError (exit 2).
    """
    fmt = args.format
    if not fmt and args.output:
        ext = args.output.rsplit(".", 1)[-1].lower()
        fmt = ext if ext in ("csv", "json", "obj") else None
    fmt = fmt or default
    if fmt not in supported:
        names = f"{', '.join(supported[:-1])} or {supported[-1]}"
        raise OutOfRangeError(f"{args.command} supports {names}, not {fmt!r}")
    return fmt


def _write_samples(samples, args, fmt: str, pattern) -> int:
    """Write the samples in ``fmt``; only the obj writer reads the crease pattern."""
    text, invalid, foreign = cs.render(samples, fmt, pattern)
    _emit(text, args.output)
    if invalid:
        print(f"skipped {invalid} invalid samples", file=sys.stderr)
    if foreign:
        print(f"skipped {foreign} samples that do not close on the export pattern (pick theirs with --model)",
              file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    fmt, mode = _infer_format(args, ("csv", "json", "obj"), "csv"), _fold_mode(args)
    return _write_samples(cs.sweep_model(mode, args.n), args, fmt, mode.pattern)


def cmd_trace(args) -> int:
    fmt = _infer_format(args, ("csv", "json", "obj"), "csv")
    seed = (_rad(args.seed1, args), _rad(args.seed2, args))
    check_fold_angle(seed[0], "seed1")  # the relation is 2pi-periodic: a seed outside traces no folding
    check_fold_angle(seed[1], "seed2")
    trace = cs.trace_implicit_curve(fm.two_pair_curve_residual, seed, step=args.step,
                                    gradient=fm.two_pair_curve_gradient)
    if not trace.closed:
        print(f"warning: trace did not close: {trace.note}", file=sys.stderr)
    mode = fm.FoldMode(fm.FoldModel.TWOPAIR)
    fam, walked = fm.FAMILIES[mode.model], wrap_angles(trace.samples.rho)  # a point past +/-pi is one inside
    completed, tags = fam.rows(mode, walked, skip=tuple(fm.REASON_ERRORS))
    if len(completed) < len(walked):
        print(f"skipped {len(walked) - len(completed)} traced points that do not complete to a closing state",
              file=sys.stderr)
    return _write_samples(cs.make_samples(mode.pattern, completed, tags), args, fmt, mode.pattern)


def cmd_region(args) -> int:
    fmt = _infer_format(args, ("csv", "json"), "json")
    region = cs.admissible_region(_rad(args.rho6, args), grid_n=args.n)
    if fmt == "json":
        payload = {"rho6": region.rho6, "rho4": region.rho4_axis.tolist(), "rho5": region.rho5_axis.tolist(),
                   "mask": region.mask.tolist()}
        _emit(json.dumps(payload) + "\n", args.output)
    else:
        rho5 = region.rho5_axis.tolist()
        lines = ["rho4,rho5,admissible"] + [
            "%.12g,%.12g,%s" % (r4, r5, "true" if ok else "false")
            for r4, row in zip(region.rho4_axis.tolist(), region.mask.tolist()) for r5, ok in zip(rho5, row)]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_resch(args) -> int:
    fmt = _infer_format(args, ("csv", "json", "obj"), "csv")  # an unknown format fails with or without -o
    vertices = fm.resch_fold(_rad(args.drive, args))
    pattern = g60()
    samples = cs.make_samples(pattern, list(vertices.values()), list(vertices))
    report = "".join(f"{s.branch}: residual {s.residual:.3e}\n" for s in samples)
    if args.output:
        _write_samples(samples, args, fmt, pattern)
    sys.stdout.write(report)
    return 0


def cmd_export(args) -> int:
    fmt = _infer_format(args, ("csv", "json", "obj"), "csv")
    samples, mode = cs.load_samples_json(args.input), _fold_mode(args)
    return _write_samples(samples, args, fmt, mode.pattern)


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
