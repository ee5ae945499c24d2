"""Seeded inputs, passes and output checks for the four benchmark workloads.

A workload is built in two steps.  ``make_inputs`` runs at set-up: it draws
every input from the seed, writes the files the program reads, and returns a
plain-JSON description of the passes: each op pairs one
``rigidfold.cli.main`` argument list with the check its output must pass.
Checks recompute closure residuals with their own rotation product, so they
do not trust the program's residual column.

Sizes are the criterion-3 sizes scaled down 60 to 90x (1000 states per
1-DOF model become 16, the 32x32 grids become 4x4, ``region -n 201`` becomes
``-n 21``) so that one run of a few tens of seconds holds enough passes for a
median and a tail.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "region", "io", "interactive")
DEFAULT_SEED = 0

SWEEP_N = 16  # states per 1-DOF or curve model
SWEEP_GRID = 4  # axis length for the 2-DOF models
TRACE_STEP = "0.2"
REGION_N = 21
IO_SAMPLES = 600
IO_VALID = 240  # the rest self-intersect
INTERACTIVE_SETS = 8  # distinct drive sets, cycled over passes
MAX_DRAWS = 1000  # rejection-sampling budget; running out means the program is wrong

ONE_DOF = ("degree4", "trifold", "bowtie", "igloo1dof", "twopair", "general")
GRIDS = ("opposites", "igloo", "almost-general")
CLOSE_TOL = 1e-8
THIRD = math.pi / 3.0

# Census that exhaustive enumeration gives on the 60-degree vertex: pattern
# counts per color count k, foldable counts per k, and the unnamed foldable
# three-coloring.  The paper's table lists 10 four-color classes; the
# program reports 11, and this benchmark checks the program's own census.
CENSUS_PATTERNS = [1, 7, 14, 11, 3, 1]
CENSUS_FOLDABLE = [0, 2, 2, 2, 1, 1]
CENSUS_EXTRA = "111232"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def sectors(model: str, alpha: float = THIRD, beta: float = THIRD) -> list[float]:
    """Sector angles of each family's crease pattern (mode 1), radians."""
    pi = math.pi
    if model == "degree4":
        return [pi - beta, alpha, beta, pi - alpha]
    if model == "trifold":
        return [beta, 2.0 * pi / 3.0 - beta] * 3
    if model == "bowtie":
        return [pi - 2.0 * beta, beta, beta] * 2
    if model == "opposites":
        return [alpha, beta, pi - alpha - beta] * 2
    if model in ("igloo", "igloo1dof"):
        g = pi - alpha - beta
        return [alpha, beta, g, g, beta, alpha]
    return [THIRD] * 6


def closure_residuals(sector_angles, rho) -> np.ndarray:
    """Frobenius distance from the identity of the crease-rotation product.

    ``rho`` is an (N, n) array of folding angles.  Each crease rotation is
    built with Rodrigues' formula about the in-plane crease direction.
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    theta = np.concatenate([[0.0], np.cumsum(sector_angles)[:-1]])
    acc = np.broadcast_to(np.eye(3), (rho.shape[0], 3, 3)).copy()
    for k, t in enumerate(theta):
        u = np.array([math.cos(t), math.sin(t), 0.0])
        cross = np.array([[0.0, 0.0, u[1]], [0.0, 0.0, -u[0]], [-u[1], u[0], 0.0]])
        c, s = np.cos(rho[:, k]), np.sin(rho[:, k])
        rot = (c[:, None, None] * np.eye(3) + s[:, None, None] * cross
               + (1.0 - c)[:, None, None] * np.outer(u, u))
        acc = acc @ rot
    return np.linalg.norm(acc - np.eye(3), axis=(1, 2))


# ---------------------------------------------------------------------------
# seeded inputs

def _fmt(x: float) -> str:
    return repr(float(x))


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Draw the workload's inputs from ``seed`` and write its input files.

    Returns ``{"info": ..., "sets": [[op, ...], ...]}``; pass ``i`` runs
    ``sets[i % len(sets)]``.  Every drawn input lies in its family's domain.
    """
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    out = str(workdir)
    if workload == "sweep":
        return _sweep_inputs(rng, seed, out)
    if workload == "region":
        r = 0.8 if seed == DEFAULT_SEED else rng.uniform(0.7, 0.8)  # equal work: ~660 closures a pass
        op = {"argv": ["region", "--rho6", _fmt(r), "-n", str(REGION_N), "-o", f"{out}/mask.json"],
              "check": "region", "file": f"{out}/mask.json"}
        return {"info": {"rho6": r, "grid": REGION_N}, "sets": [[op]]}
    if workload == "io":
        return _io_inputs(rng, workdir)
    if workload == "interactive":
        return _interactive_inputs(rng, out)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_inputs(rng: random.Random, seed: int, out: str) -> dict:
    if seed == DEFAULT_SEED:
        alpha = beta = 60.0
    else:  # a band inside every family's domain (bow tie needs beta < 90)
        alpha, beta = rng.uniform(50.0, 70.0), rng.uniform(50.0, 70.0)
    ops = []
    for model in ONE_DOF + GRIDS:
        n = SWEEP_GRID if model in GRIDS else SWEEP_N
        argv = ["sweep", model, "-n", str(n), "-o", f"{out}/{model}.csv"]
        pattern = sectors(model)
        if model not in ("twopair", "general", "almost-general"):  # these fix 60-degree sectors
            argv[2:2] = ["--alpha", _fmt(alpha), "--beta", _fmt(beta)]
            pattern = sectors(model, math.radians(alpha), math.radians(beta))
        ops.append({"argv": argv, "check": "csv", "file": f"{out}/{model}.csv", "sectors": pattern})
    ops.append({"argv": ["trace", "--step", TRACE_STEP, "-o", f"{out}/trace.csv"], "check": "csv",
                "file": f"{out}/trace.csv", "sectors": sectors("twopair")})
    return {"info": {"alpha_deg": alpha, "beta_deg": beta}, "sets": [ops]}


def _io_inputs(rng: random.Random, workdir: Path) -> dict:
    from rigidfold import config_space as cs
    from rigidfold import fold_models as fm
    from rigidfold.core_geometry import g60
    from rigidfold.errors import NoSolutionError

    nprng = np.random.default_rng(rng.getrandbits(64))
    pattern = g60()
    want = {True: IO_VALID, False: IO_SAMPLES - IO_VALID}  # a fixed mix keeps the work per seed equal
    samples = []
    for _ in range(4 * IO_SAMPLES):
        if not any(want.values()):
            break
        r4, r5, r6 = nprng.uniform(-math.pi, math.pi, 3)
        try:
            sols = fm.general_fold(r4, r5, r6)
        except NoSolutionError:
            continue
        for j, v in enumerate(sols):
            s = cs.make_sample(pattern, v, j + 1)
            if want[s.valid]:
                want[s.valid] -= 1
                samples.append(s)
    if any(want.values()):
        raise RuntimeError(f"no {IO_VALID}/{IO_SAMPLES - IO_VALID} valid/invalid mix in the draws")
    src = workdir / "in.json"
    src.write_text(cs.samples_to_json(samples))
    valid = IO_VALID
    ops = [{"argv": ["export", str(src), "-o", str(workdir / f"out.{fmt}")], "check": f"export_{fmt}",
            "file": str(workdir / f"out.{fmt}"), "input": str(src), "samples": IO_SAMPLES, "valid": valid}
           for fmt in ("csv", "json", "obj")]
    return {"info": {"samples": IO_SAMPLES, "valid": valid}, "sets": [ops]}


def _interactive_inputs(rng: random.Random, out: str) -> dict:
    from rigidfold import config_space as cs
    from rigidfold import fold_models as fm
    from rigidfold.errors import RigidFoldError

    def u(lim):
        return rng.uniform(-lim, lim)

    curve = cs.trace_implicit_curve(fm.two_pair_curve_residual, (0.0, 0.0))
    tri_lim = fm.trifold_drive_limit(THIRD)

    def draw(fn, *bounds):
        for _ in range(MAX_DRAWS):  # rejection sampling keeps only drives the family admits
            x = [u(b) for b in bounds]
            try:
                fn(*x)
            except RigidFoldError:
                continue
            return x
        raise RuntimeError(f"{fn.__name__} admitted none of {MAX_DRAWS} draws")

    def opposites(r1, r2):
        if fm.opposites_solve(THIRD, THIRD, r1, r2).free:
            raise RigidFoldError("the relation leaves the third angle free")

    def igloo(r2, r3):
        fm.igloo_rho1(THIRD, THIRD, r2, r3)
        fm.igloo_rho4(THIRD, THIRD, r2, r3)

    def on_curve():
        for _ in range(MAX_DRAWS):
            r1, r2 = (float(v) for v in rng.choice(curve.samples).rho[:2])
            try:
                fm.two_pair_complete(r1, r2)
            except RigidFoldError:
                continue
            return [r1, r2]
        raise RuntimeError("no completable point on the two-pair curve")

    sets = []
    for _ in range(INTERACTIVE_SETS):
        drives = {
            "degree4": {"--drive": u(3.0)},
            "trifold": {"--drive": u(0.95 * tri_lim)},
            "bowtie": {"--drive": u(3.0)},
            "opposites": dict(zip(("--rho1", "--rho2"), draw(opposites, 3.0, 3.0))),
            "igloo": dict(zip(("--rho2", "--rho3"), draw(igloo, 3.0, 3.0))),
            "igloo1dof": {"--drive": u(3.0)},
            "twopair": dict(zip(("--rho1", "--rho2"), on_curve())),
            "general": dict(zip(("--rho4", "--rho5", "--rho6"), draw(fm.general_fold, 3.0, 3.0, 3.0))),
            "almost-general": dict(zip(("--rho4", "--rho5"), draw(fm.almost_general, 3.0, 3.0))),
        }
        ops = [{"argv": ["table", "-o", f"{out}/table.txt"], "check": "table_text", "file": f"{out}/table.txt"},
               {"argv": ["table", "--format", "json", "-o", f"{out}/table.json"], "check": "table_json",
                "file": f"{out}/table.json"}]
        for model, flags in drives.items():
            # '=' keeps negative values from reading as flags
            argv = ["fold", model] + [f"{flag}={_fmt(v)}" for flag, v in flags.items()]
            ops.append({"argv": argv, "check": "fold", "sectors": sectors(model)})
        ops.append({"argv": ["resch", f"--drive={_fmt(u(0.9 * tri_lim))}"], "check": "resch"})
        sets.append(ops)
    return {"info": {"sets": INTERACTIVE_SETS, "commands_per_pass": len(sets[0])}, "sets": sets}


# ---------------------------------------------------------------------------
# output checks

@dataclass
class Outcome:
    """What one checked call produced: counts (gated) and a digest (reported)."""

    counts: dict
    digest: str
    states: int
    worst_residual: float = 0.0


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _check_csv_rows(text: str, sector_angles) -> tuple[int, int, float]:
    lines = text.splitlines()
    header = lines[0].split(",")
    n = sum(h.startswith("rho") for h in header)
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows:
        raise CheckFailed("csv has no samples")
    valid_rows = [r for r in rows if r[n + 1] == "true"]
    worst = 0.0
    if valid_rows:
        rho = np.array([[float(x) for x in r[:n]] for r in valid_rows])
        res = closure_residuals(sector_angles, rho)
        worst = float(res.max())
        if worst >= CLOSE_TOL:
            raise CheckFailed(f"a valid sample has closure residual {worst:.3e}")
    return len(rows), len(valid_rows), worst


def check(op: dict, rc: int, out: str, err: str) -> Outcome:
    """Validate one call's output; raise CheckFailed when it is wrong."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}: {err.strip()[:200]}")
    kind = op["check"]
    if kind == "csv":
        data = _read(op["file"])
        n, valid, worst = _check_csv_rows(data.decode(), op["sectors"])
        return Outcome({"samples": n, "valid": valid}, hashlib.sha256(data).hexdigest(), n, worst)
    if kind == "region":
        data = _read(op["file"])
        mask = json.loads(data)["mask"]
        if len(mask) != REGION_N or any(len(row) != REGION_N for row in mask):
            raise CheckFailed("region mask has the wrong shape")
        cells = sum(map(sum, mask))
        if cells == 0:
            raise CheckFailed("region mask is empty")
        return Outcome({"admissible": cells}, hashlib.sha256(data).hexdigest(), REGION_N ** 2)
    if kind == "export_csv":
        data = _read(op["file"])
        n, valid, worst = _check_csv_rows(data.decode(), sectors("general"))
        if (n, valid) != (op["samples"], op["valid"]):
            raise CheckFailed(f"csv export has {n} samples / {valid} valid")
        return Outcome({"samples": n, "valid": valid}, hashlib.sha256(data).hexdigest(), n, worst)
    if kind == "export_json":
        data = _read(op["file"])
        if data != _read(op["input"]):
            raise CheckFailed("json export does not reproduce its input")
        return Outcome({"samples": op["samples"]}, hashlib.sha256(data).hexdigest(), op["samples"])
    if kind == "export_obj":
        data = _read(op["file"])
        lines = data.decode().splitlines()
        written = sum(ln.startswith("o ") for ln in lines)
        skipped = op["samples"] - op["valid"]
        if written != op["valid"] or sum(ln.startswith("v ") for ln in lines) != 7 * written:
            raise CheckFailed(f"obj export wrote {written} objects, want {op['valid']}")
        if skipped and f"skipped {skipped} invalid samples" not in err:
            raise CheckFailed(f"obj export did not report {skipped} skipped samples")
        return Outcome({"written": written, "skipped": skipped}, hashlib.sha256(data).hexdigest(),
                       op["samples"])
    if kind == "table_json":
        data = _read(op["file"])
        rows = json.loads(data)
        patterns = [r["pattern_count"] for r in rows]
        foldable = [len(r["foldable"]) for r in rows]
        names = {f["pattern"] for r in rows for f in r["foldable"]}
        if patterns != CENSUS_PATTERNS or foldable != CENSUS_FOLDABLE or CENSUS_EXTRA not in names:
            raise CheckFailed(f"census {patterns} / {foldable} differs from the computed census")
        return Outcome({"four_color_classes": patterns[3]}, hashlib.sha256(data).hexdigest(), 1)
    if kind == "table_text":
        data = _read(op["file"])
        rows = [ln.split() for ln in data.decode().splitlines()[1:]]
        if [int(r[1]) for r in rows] != CENSUS_PATTERNS or CENSUS_EXTRA not in data.decode():
            raise CheckFailed("text census differs from the computed census")
        return Outcome({"four_color_classes": int(rows[3][1])}, hashlib.sha256(data).hexdigest(), 1)
    if kind == "fold":
        fields = dict(ln.split(" = ", 1) for ln in out.splitlines())
        rho = [float(x) for x in fields["rho"].strip("[]").split()]
        printed = float(fields["residual"])
        worst = float(closure_residuals(op["sectors"], [rho])[0])
        if max(printed, worst) >= CLOSE_TOL:
            raise CheckFailed(f"fold state does not close: residual {max(printed, worst):.3e}")
        return Outcome({"valid": int(fields["valid"] == "true")},
                       hashlib.sha256(out.encode()).hexdigest(), 1, worst)
    if kind == "resch":
        residuals = [float(ln.rsplit(" ", 1)[1]) for ln in out.splitlines()]
        if len(residuals) != 7 or max(residuals) >= CLOSE_TOL:
            raise CheckFailed(f"resch patch does not close: {residuals}")
        return Outcome({"vertices": 7}, hashlib.sha256(out.encode()).hexdigest(), 1, max(residuals))
    raise ValueError(f"unknown check {kind!r}")
