"""Command-line interface: subcommands, formats, units, exit codes."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidfold import cli
from rigidfold.cli import main
from rigidfold.config_space import CurveTrace, Samples, trace_implicit_curve
from rigidfold.core_geometry import CreasePattern, _shared_layout, closure_residual, wrap_angles
from rigidfold.fold_models import FAMILIES, FoldMode, FoldModel, two_pair_curve_gradient, two_pair_curve_residual

TRIFOLD_RHO1 = 4.0 * math.atan((2.0 + math.sqrt(3.0)) * math.tan(0.1))
DATA = Path(__file__).resolve().parent / "data"  # the census bytes of `table` and `table --format json`


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["fold", "sweep", "export"])
def test_family_commands_say_the_sector_angles_are_degrees(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert re.search(r"--alpha ALPHA\s+sector angle, degrees", out)
    assert re.search(r"--beta BETA\s+sector angle, degrees", out)


def test_table_text(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7  # header + one row per class count
    assert "trifold" in out and "fully general" in out


def test_readme_table_block_is_the_table_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```\n$ rigidfold table\n", 1)[1].split("```", 1)[0]
    assert run(capsys, "table") == (0, block, "")


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["k"] for r in rows] == [1, 2, 3, 4, 5, 6]
    names = {f["name"] for r in rows for f in r["foldable"] if f["name"]}
    assert names == {
        "trifold", "bow tie", "opposites", "igloo",
        "two pair", "almost general", "fully general",
    }
    for r in rows:
        for f in r["foldable"]:
            assert set(f) == {"pattern", "name", "dof"}


@pytest.mark.parametrize("argv, fixture", [([], "table.txt"), (["--format", "json"], "table.json")])
def test_table_bytes_equal_the_committed_census(tmp_path, capsys, argv, fixture):
    out = tmp_path / "out"
    assert run(capsys, "table", *argv, "-o", str(out)) == (0, "", "")
    assert out.read_bytes() == (DATA / fixture).read_bytes()


def test_table_and_fold_take_json_from_the_output_extension(tmp_path, capsys):
    """-o *.json writes json; another extension, or --format text, keeps the text default."""
    text = run(capsys, "table")[1]
    assert run(capsys, "table", "-o", str(tmp_path / "t.json")) == (0, "", "")
    assert (tmp_path / "t.json").read_text() == run(capsys, "table", "--format", "json")[1]
    assert run(capsys, "table", "-o", str(tmp_path / "t.txt")) == (0, "", "")
    assert (tmp_path / "t.txt").read_text() == text == run(capsys, "table", "--format", "text")[1]
    assert run(capsys, "fold", "trifold", "--drive", "0.1", "-o", str(tmp_path / "f.json")) == (0, "", "")
    [record] = json.loads((tmp_path / "f.json").read_text())
    assert record["valid"] and record["branch"] == 1
    assert run(capsys, "fold", "trifold", "--drive", "0.1", "-o", str(tmp_path / "f.txt")) == (0, "", "")
    assert (tmp_path / "f.txt").read_text().startswith("rho = [")


def test_fold_trifold_example(capsys):
    code, out, _ = run(capsys, "fold", "trifold", "--beta", "60", "--mode", "1",
                       "--drive", "-0.4")
    assert code == 0
    rho1 = float(out.split("[")[1].split()[0])
    assert math.isclose(rho1, TRIFOLD_RHO1, abs_tol=1e-10)
    assert "valid = true" in out


def test_fold_degrees_flag(capsys):
    deg = math.degrees(-0.4)
    code, out, _ = run(capsys, "fold", "trifold", "--beta", "60", "--drive",
                       str(deg), "--degrees")
    assert code == 0
    rho1 = float(out.split("[")[1].split()[0])
    assert math.isclose(rho1, TRIFOLD_RHO1, abs_tol=1e-9)


def test_fold_bowtie_modes_agree_at_60(capsys):
    _, out1, _ = run(capsys, "fold", "bowtie", "--beta", "60", "--mode", "1",
                     "--drive", "1.0")
    _, out2, _ = run(capsys, "fold", "bowtie", "--beta", "60", "--mode", "2",
                     "--drive", "1.0")
    # angle vectors agree to print precision; residuals are closure noise
    assert out1.splitlines()[0] == out2.splitlines()[0]


def test_fold_general_flat(capsys):
    code, out, _ = run(capsys, "fold", "general", "--rho4", "0", "--rho5", "0",
                       "--rho6", "0")
    assert code == 0
    assert out.startswith("rho = [0 0 0 0 0 0]\n")


@pytest.mark.parametrize("given", [("--rho1=0", "--rho2=0"), ("--rho1=0", "--rho3=0"), ("--rho2=0", "--rho3=0")])
def test_fold_opposites_flat_pair_is_the_flat_state(capsys, given):
    """A flat pair leaves the third angle free; it is taken flat, as ``Family.fold`` and the sweep take it."""
    mode = FoldMode(FoldModel.OPPOSITES)
    assert FAMILIES[mode.model].fold(mode, (0.0, 0.0))[0].tolist() == [0.0] * 6
    code, out, err = run(capsys, "fold", "opposites", *given)
    assert (code, err) == (0, "")
    assert out == "rho = [0 0 0 0 0 0]\nresidual = 0.000000e+00\nvalid = true\n"


def test_degree4_at_equal_sectors_prints_and_writes_no_negative_zero(tmp_path, capsys):
    assert run(capsys, "fold", "degree4", "--mode", "2", "--drive", "0.3")[1].startswith("rho = [0.3 0 0.3 0]\n")
    for mode in ("1", "2"):
        out = tmp_path / f"d{mode}.csv"
        assert run(capsys, "sweep", "degree4", "--mode", mode, "-n", "3", "-o", str(out))[0] == 0
        assert "-0," not in out.read_text() and len(out.read_text().splitlines()) == 4


FLAT = {  # each family's drive flags at the flat state; the one-drive families take --drive=0
    FoldModel.OPPOSITES: ["--rho1=0", "--rho2=0"],
    FoldModel.IGLOO2DOF: ["--rho2=0", "--rho3=0"],
    FoldModel.TWOPAIR: ["--rho1=0", "--rho2=0"],
    FoldModel.FULLY_GENERAL: ["--rho4=0", "--rho5=0", "--rho6=0"],
    FoldModel.ALMOST_GENERAL: ["--rho4=0", "--rho5=0"],
}
FAMILY_MODES = [(model, m) for model, fam in FAMILIES.items() for m in fam.modes]


def _negative_zeros(text: str) -> list[str]:
    """The csv cells, text tokens and json numbers of ``text`` that read as -0."""
    def zero(cell):
        try:
            return float(cell) == 0.0
        except ValueError:
            return False

    return [cell for cell in re.split(r'[\s,\[\]{}:"]+', text) if cell.startswith("-") and zero(cell)]


@pytest.mark.parametrize("model, mode", FAMILY_MODES, ids=lambda v: getattr(v, "value", v))
def test_fold_tags_its_state_as_the_sweep_tags_the_family(tmp_path, capsys, model, mode):
    """``fold --format json`` tags its state with the branch ``sweep`` gives the first state of a drive."""
    path = tmp_path / "s.json"
    assert run(capsys, "sweep", model.value, "--mode", str(mode), "-n", "3", "-o", str(path)) == (0, "", "")
    code, out, _ = run(capsys, "fold", model.value, "--mode", str(mode), *FLAT.get(model, ["--drive=0"]),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["branch"] == json.loads(path.read_text())[0]["branch"]


@pytest.mark.parametrize("model", list(FoldModel), ids=lambda m: m.value)
def test_fold_and_sweep_write_no_negative_zero(tmp_path, capsys, model):
    for mode in FAMILIES[model].modes:
        for fmt in ("text", "json"):
            code, out, _ = run(capsys, "fold", model.value, "--mode", str(mode), *FLAT.get(model, ["--drive=0"]),
                               "--format", fmt)
            assert code == 0 and not _negative_zeros(out), (mode, out)
        for ext in ("csv", "json"):
            path = tmp_path / f"s.{ext}"
            assert run(capsys, "sweep", model.value, "--mode", str(mode), "-n", "3", "-o", str(path))[0] == 0
            assert not _negative_zeros(path.read_text()), (mode, ext)


PI_SEED = ["--seed1=3.141592653589793", "--seed2=1.2309594173407747"]


@pytest.mark.parametrize("argv", [["trace", "--step", "0.2"], ["trace", *PI_SEED, "--step", "0.05"],
                                  ["resch", "--drive", "0"], ["resch", "--drive=-0.4"]], ids=" ".join)
def test_trace_and_resch_write_no_negative_zero(tmp_path, capsys, argv):
    for ext in ("csv", "json"):
        path = tmp_path / f"out.{ext}"
        assert run(capsys, *argv, "-o", str(path))[0] == 0
        assert not _negative_zeros(path.read_text()), ext


def test_fold_json_format(capsys):
    code, out, _ = run(capsys, "fold", "igloo", "--alpha", "70", "--beta", "80",
                       "--rho2", "0.5", "--rho3", "-0.3", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["valid"] is True
    assert rec["rho2"] == 0.5


# Malformed json sample files, written to {tmp} by the test below
MALFORMED = {
    "notjson.json": "rho1 = 0.1\n",
    "object.json": '{"rho1": 0.1, "residual": 0.0, "valid": true, "branch": 0}\n',
    "notrecord.json": "[[0.1, 0.2, 0.3]]\n",
    "noresidual.json": '[{"rho1": 0.1, "valid": true, "branch": 0}]\n',
    "norho.json": '[{"residual": 0.0, "valid": true, "branch": 0}]\n',
    "badkey.json": '[{"rho1": 0.1, "rhox": 0.2, "residual": 0.0, "valid": true, "branch": 0}]\n',
    "nullangle.json": '[{"rho1": null, "residual": 0.0, "valid": true, "branch": 0}]\n',
    "textresidual.json": '[{"rho1": 0.1, "residual": "0", "valid": true, "branch": 0}]\n',
    "textvalid.json": '[{"rho1": 0.1, "residual": 0.0, "valid": "false", "branch": 0}]\n',
    "listbranch.json": '[{"rho1": 0.1, "residual": 0.0, "valid": true, "branch": [1]}]\n',
    "infangle.json": '[{"rho1": Infinity, "rho2": 0.1, "rho3": 0.1, "rho4": 0.1, "rho5": 0.1, "rho6": 0.1, '
                     '"residual": 0.0, "valid": true, "branch": 1}]\n',
    "nanresidual.json": '[{"rho1": 0.1, "residual": NaN, "valid": false, "branch": 0}, '
                        '{"rho1": 0.1, "residual": NaN, "valid": true, "branch": 0}]\n',
    "boolbranch.json": '[{"rho1": 0.1, "residual": 0.0, "valid": false, "branch": 0}, '
                       '{"rho1": 0.1, "residual": 0.0, "valid": false, "branch": true}]\n',
    "paddedkey.json": '[{"rho1": 0.1, "rho01": 0.2, "residual": 0.0, "valid": false, "branch": 0}]\n',
    "gapkey.json": '[{"rho1": 0.1, "residual": 0.0, "valid": false, "branch": 0}, '
                   '{"rho1": 0.1, "rho3": 0.2, "residual": 0.0, "valid": false, "branch": 0}]\n',
}

# (argv, error text); {samples} is a valid json sample file, {empty} holds [], {tmp} is scratch
DOMAIN_ERRORS = [
    (["fold", "trifold", "--beta", "60", "--drive", "2.5"], "maps outside"),
    (["fold", "general", "--alpha", "70", "--rho4", "0.1", "--rho5", "0.2", "--rho6", "0.3"],
     "fixed 60-degree sectors"),
    (["fold", "twopair", "--beta", "50", "--rho1", "0", "--rho2", "0"], "fixed 60-degree sectors"),
    (["sweep", "twopair", "--alpha", "70", "-n", "4"], "fixed 60-degree sectors"),
    (["export", "{samples}", "--model", "general", "--alpha", "70"], "fixed 60-degree sectors"),
    (["fold", "general", "--alpha", "nan", "--rho4", "0.1", "--rho5", "0.2", "--rho6", "0.3"],
     "general has fixed 60-degree sectors"),
    (["sweep", "twopair", "--beta", "nan", "-n", "3"], "twopair has fixed 60-degree sectors"),
    (["fold", "almost-general", "--alpha", "nan", "--rho4", "0.1", "--rho5", "0.2"],
     "almost-general has fixed 60-degree sectors"),
    (["fold", "bowtie", "--beta", "100", "--drive", "0.5"],
     "bowtie needs every sector > 0: alpha=1.0471975511965976, beta=1.7453292519943295 give sectors [-0.349"),
    (["fold", "opposites", "--mode", "9", "--rho1", "0.1", "--rho2", "0.2"], "mode must be 1,"),
    (["fold", "igloo", "--mode", "2", "--rho2", "0.1", "--rho3", "0.2"], "mode must be 1,"),
    (["sweep", "opposites", "--mode", "2", "-n", "4"], "mode must be 1,"),
    (["fold", "degree4", "--mode", "3", "--drive", "0.5"], "mode must be 1 or 2"),
    (["export", "{samples}", "--model", "degree4", "--mode", "9"], "mode must be 1 or 2"),
    (["export", "{empty}", "-o", "{tmp}/out.csv"], "nothing to export"),
    (["export", "{empty}", "-o", "{tmp}/out.json"], "nothing to export"),
    (["export", "{empty}", "-o", "{tmp}/out.obj"], "nothing to export"),
    (["export", "{samples}", "--model", "degree4", "-o", "{tmp}/out.obj"], "expected 4 folding angles, got 6"),
    (["fold", "degree4", "--drive", "nan"], "drive must lie in [-pi, pi], got nan"),
    (["resch", "--drive", "nan"], "drive must lie in [-pi, pi], got nan"),
    (["resch", "--drive", "2"], "drive 2.0 maps outside [-pi, pi]; reachable |drive| <= 1.0471975511965976"),
    (["region", "--rho6", "nan"], "rho6 must lie in [-pi, pi], got nan"),
    (["region", "--rho6", "5"], "rho6 must lie in [-pi, pi], got 5.0"),
    (["trace", "--seed1", "nan"], "seed1 must lie in [-pi, pi], got nan"),
    (["trace", "--seed1", "6.283185307179586", "--seed2", "0", "--step", "0.2"],
     "seed1 must lie in [-pi, pi], got 6.283185307179586"),
    (["trace", "--seed2", "-4", "-o", "{tmp}/out.csv"], "seed2 must lie in [-pi, pi], got -4.0"),
    (["export", "{tmp}/notjson.json", "-o", "{tmp}/out.csv"], "notjson.json is not json: Expecting value"),
    (["export", "{tmp}/object.json", "-o", "{tmp}/out.csv"], "object.json is not a json array of sample records"),
    (["export", "{tmp}/notrecord.json", "-o", "{tmp}/out.csv"], "notrecord.json: record 0 is not an object"),
    (["export", "{tmp}/noresidual.json", "-o", "{tmp}/out.csv"], "noresidual.json: record 0 has no 'residual'"),
    (["export", "{tmp}/norho.json", "-o", "{tmp}/out.json"], "norho.json: record 0 has no rhoN key"),
    (["export", "{tmp}/badkey.json", "-o", "{tmp}/out.csv"],
     "badkey.json: record 0 has a rho key that is not rhoN"),
    (["export", "{tmp}/nullangle.json", "-o", "{tmp}/out.csv"],
     "nullangle.json: record 0 has an angle or residual"),
    (["export", "{tmp}/textresidual.json", "-o", "{tmp}/out.obj"],
     "textresidual.json: record 0 has an angle or residual"),
    (["export", "{tmp}/textvalid.json", "-o", "{tmp}/out.csv"], "textvalid.json: record 0 needs a true/false valid"),
    (["export", "{tmp}/listbranch.json", "-o", "{tmp}/out.json"],
     "listbranch.json: record 0 needs a true/false valid and an integer or string branch"),
    (["export", "{tmp}/boolbranch.json", "-o", "{tmp}/out.json"],
     "boolbranch.json: record 1 needs a true/false valid and an integer or string branch"),
    (["export", "{tmp}/paddedkey.json", "-o", "{tmp}/out.json"],
     "paddedkey.json: record 0 angle keys must be rho1..rhoN"),
    (["export", "{tmp}/gapkey.json", "-o", "{tmp}/out.csv"], "gapkey.json: record 1 angle keys must be rho1..rhoN"),
    (["export", "{tmp}/infangle.json", "-o", "{tmp}/out.obj"],
     "infangle.json: record 0 is flagged valid but has an angle or residual that is not finite"),
    (["export", "{tmp}/infangle.json", "-o", "{tmp}/out.csv"],
     "infangle.json: record 0 is flagged valid but has an angle or residual that is not finite"),
    (["export", "{tmp}/nanresidual.json", "-o", "{tmp}/out.csv"],
     "nanresidual.json: record 1 is flagged valid but has an angle or residual that is not finite"),
    (["trace", "--step", "nan"], "step must be finite and > 0, got nan"),
    (["trace", "--step", "inf"], "step must be finite and > 0, got inf"),
    (["trace", "--step", "-0.2"], "step must be finite and > 0, got -0.2"),
    (["trace", "--step", "0"], "step must be finite and > 0, got 0.0"),
    (["table", "--format", "csv"], "table supports text or json, not 'csv'"),
    (["table", "-o", "{tmp}/out.obj"], "table supports text or json, not 'obj'"),
    (["fold", "trifold", "--drive", "0.1", "--format", "obj"], "fold supports text or json, not 'obj'"),
    (["fold", "trifold", "--drive", "0.1", "-o", "{tmp}/out.csv"], "fold supports text or json, not 'csv'"),
    (["region", "--rho6", "0.8", "-n", "3", "--format", "obj"], "region supports csv or json, not 'obj'"),
    (["sweep", "trifold", "-n", "4", "--format", "text"], "sweep supports csv, json or obj, not 'text'"),
    (["resch", "--drive", "0.3", "--format", "xml"], "resch supports csv, json or obj, not 'xml'"),
    (["resch", "--drive", "0.3", "--format", "xml", "-o", "{tmp}/out.csv"],
     "resch supports csv, json or obj, not 'xml'"),
]


def test_domain_error_exits_2(tmp_path, capsys):
    samples, empty = tmp_path / "samples.json", tmp_path / "empty.json"
    assert run(capsys, "fold", "general", "--rho4", "0.1", "--rho5", "0.2", "--rho6", "0.3",
               "-o", str(samples), "--format", "json")[0] == 0
    empty.write_text("[]\n")
    for name, text in MALFORMED.items():
        (tmp_path / name).write_text(text)
    for argv, message in DOMAIN_ERRORS:
        argv = [a.format(samples=samples, empty=empty, tmp=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and message in err, (argv, err)
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("stub, argv", [
    ("sweep_model", ["sweep", "trifold", "-n", "4"]),
    ("trace_implicit_curve", ["trace", "--step", "0.2"]),
    ("admissible_region", ["region", "--rho6", "0.8", "-n", "1501"]),
    ("load_samples_json", ["export", "samples.json"]),
])
def test_a_command_checks_the_format_before_it_computes(monkeypatch, capsys, stub, argv):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{stub} ran before the format was checked")

    monkeypatch.setattr(cli.cs, stub, refuse)
    code, out, err = run(capsys, *argv, "--format", "xml")
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: {argv[0]} supports .* not 'xml'\n", err), err


@pytest.mark.parametrize("fmt", ["csv", "json", "obj"])
def test_sweep_builds_its_crease_pattern_once(tmp_path, capsys, monkeypatch, fmt):
    built, real = [], CreasePattern.from_sectors
    monkeypatch.setattr(CreasePattern, "from_sectors", classmethod(lambda cls, s: built.append(1) or real(s)))
    assert run(capsys, "sweep", "trifold", "--beta", "50", "-n", "4", "-o", str(tmp_path / f"s.{fmt}"))[0] == 0
    assert len(built) == 1


def test_commands_in_one_process_build_their_crease_pattern_once(tmp_path, capsys, monkeypatch):
    """Two folds and a sweep of the trifold at one beta share one layout: one build between them."""
    _shared_layout.cache_clear()
    built, real = [], CreasePattern._build
    monkeypatch.setattr(CreasePattern, "_build", classmethod(lambda cls, s: built.append(1) or real(s)))
    for _ in range(2):
        assert run(capsys, "fold", "trifold", "--beta", "50", "--drive", "0.3")[0] == 0
    assert run(capsys, "sweep", "trifold", "--beta", "50", "-n", "4", "-o", str(tmp_path / "s.csv"))[0] == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv", [
    ["fold", "trifold", "--drive", "0.3"],
    ["fold", "degree4", "--drive", "0.3"],
    ["fold", "bowtie", "--drive", "0.3"],
    ["sweep", "trifold", "-n", "4"],
    ["fold", "general", "--rho4", "0.1", "--rho5", "0.2", "--rho6", "0.3"],
], ids=" ".join)
def test_a_command_checks_its_sectors_once(capsys, monkeypatch, argv):
    """The batched solves read their multipliers from the command's checked FoldMode, without building another."""
    checks, real = [], FoldMode.__post_init__
    monkeypatch.setattr(FoldMode, "__post_init__", lambda self: checks.append(self) or real(self))
    assert run(capsys, *argv)[0] == 0
    assert len(checks) == 1


def test_trace_warns_when_it_does_not_close(tmp_path, capsys):
    code, out, err = run(capsys, "trace", "--step", "1e-4", "-o", str(tmp_path / "open.csv"))
    assert (code, out, err) == (0, "", "warning: trace did not close: step budget exhausted\n")
    assert run(capsys, "trace", "--step", "0.2", "-o", str(tmp_path / "closed.csv")) == (0, "", "")


def test_trace_wraps_the_walked_points_past_pi(tmp_path, capsys):
    """The walk from (pi, acos(1/3)) leaves [-pi, pi]; the relation is 2pi-periodic, so every walked point,
    wrapped, completes: one row each, in walk order."""
    walk = trace_implicit_curve(two_pair_curve_residual, (math.pi, 1.2309594173407747), step=0.05,
                                gradient=two_pair_curve_gradient)
    assert len(walk.samples) == 248 and (abs(walk.samples.rho) > math.pi).any()
    path = tmp_path / "pi.json"
    assert run(capsys, "trace", *PI_SEED, "--step", "0.05", "-o", str(path)) == (0, "", "")
    rows = json.loads(path.read_text())
    pairs = wrap_angles(walk.samples.rho).tolist()
    assert [[r[f"rho{i}"] for i in range(1, 5)] for r in rows] == [[a, a, b, b] for a, b in pairs]
    assert all(r["residual"] < 1e-8 for r in rows)


def test_trace_counts_the_walked_points_it_skips(tmp_path, capsys, monkeypatch):
    """A walked point that does not complete gets no row, and stderr counts it."""
    walker = cli.cs.trace_implicit_curve

    def walk_and_stray(*args, **kwargs):
        walk = walker(*args, **kwargs)
        s = walk.samples
        rho = np.vstack([s.rho, [[1.0, 0.0], [math.nan, 0.0]]])  # off the curve, and not an angle
        return CurveTrace(Samples(rho, np.append(s.residual, [29.4, math.nan]), np.append(s.valid, [False, False]),
                                  s.branch + [0, 0]), walk.closed, walk.note)

    monkeypatch.setattr(cli.cs, "trace_implicit_curve", walk_and_stray)
    path = tmp_path / "t.csv"
    skipped = "skipped 2 traced points that do not complete to a closing state\n"
    assert run(capsys, "trace", "--step", "0.2", "-o", str(path)) == (0, "", skipped)
    with open(path, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 46


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("argv", [["fold", "trifold", "--drive", "0.1"], ["sweep", "trifold", "-n", "3"],
                                  ["trace", "--step", "0.2"], ["resch", "--drive", "0.3"], ["export", "in.json"]],
                         ids=lambda argv: argv[0])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, argv, tol):
    """A --tol that would flag nothing valid, or everything, is a usage error before the command runs:
    no command reads --tol, since every reported sample is judged at ``DEFAULT_TOL``."""
    out = tmp_path / "out.csv"
    code, stdout, err = run(capsys, *argv, f"--tol={tol}", "-o", str(out))
    assert (code, stdout) == (2, "")
    assert f"unrecognized arguments: --tol={tol}" in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1e-2", "1e-12"])
def test_trace_tol_moves_no_traced_row(tmp_path, capsys, monkeypatch, tol):
    """Each traced point completes below the solves' ``DEFAULT_TOL`` whatever bound judges the reported
    samples: moving the report's bound alone writes the same angle columns."""
    paths = [tmp_path / "default.csv", tmp_path / "tol.csv"]
    assert run(capsys, "trace", "--step", "0.05", "-o", str(paths[0])) == (0, "", "")
    monkeypatch.setattr(cli.cs, "DEFAULT_TOL", float(tol))
    assert run(capsys, "trace", "--step", "0.05", "-o", str(paths[1])) == (0, "", "")
    default, moved = ([line.split(",")[:6] for line in p.read_text().splitlines()] for p in paths)
    assert len(default) > 100 and moved == default


def test_numerical_error_exits_3(capsys):
    # (1, 0) violates the two-pair relation, so completion must refuse
    code, _, err = run(capsys, "fold", "twopair", "--rho1", "1.0", "--rho2", "0.0")
    assert code == 3
    assert "error:" in err


def test_a_sweep_with_no_closing_state_is_a_numerical_failure(tmp_path, capsys):
    """almost-general's 2 x 2 grid is the four (+/-pi, +/-pi) corners, and none of them closes."""
    out = tmp_path / "ag.csv"
    code, stdout, err = run(capsys, "sweep", "almost-general", "-n", "2", "-o", str(out))
    assert (code, stdout) == (3, "")
    assert err == "error: almost-general has no closing state at any of its drives for n = 2\n"
    assert not out.exists()


@pytest.mark.parametrize("drives", [
    ["--rho4=6.19e-04", "--rho5=-7.75e-04", "--rho6=1.27e-04"],
    pytest.param(["--rho4=6.19e-07", "--rho5=-7.75e-07", "--rho6=1.27e-07"], marks=pytest.mark.xfail(
        strict=True, reason="near the flat state the general solve judges its double root and existence to an "
                            "absolute 1e-12, so it reports a state that does not exist")),
], ids=["1e-4", "1e-7"])
def test_general_fold_reports_no_state_along_a_drive_direction_that_has_none(capsys, drives):
    """This drive direction has no general state at any scale from 1e-1 down to 1e-5."""
    code, _, err = run(capsys, "fold", "general", *drives)
    assert code == 3 and "no closing branch" in err


def test_export_refuses_a_file_of_mixed_angle_counts(tmp_path, capsys):
    src, out = tmp_path / "mixed.json", tmp_path / "x.csv"
    records = [{"rho1": 0.0, "rho2": 0.0, "rho3": 0.0, "rho4": 0.0, "rho5": 0.0, "rho6": 0.0, "residual": 0.0,
                "valid": True, "branch": 0}, {"rho1": 0.0, "rho2": 0.0, "rho3": 0.0, "rho4": 0.0, "residual": 0.0,
                                              "valid": False, "branch": 0}]
    src.write_text(json.dumps(records, indent=1))
    assert run(capsys, "export", str(src), "-o", str(out)) == (
        2, "", f"error: {src}: record 1 has 4 angles where the records before it have 6\n")
    assert not out.exists()


def test_io_error_exits_4(capsys):
    code, _, err = run(capsys, "export", "/nonexistent/samples.json")
    assert code == 4


def test_usage_error_exits_2(capsys):
    assert run(capsys, "fold", "nosuchmodel", "--drive", "0.1")[0] == 2
    assert run(capsys, "trace", "--no-such-flag")[0] == 2


@pytest.mark.parametrize("argv", [
    ["table", "--tol", "1"],  # the census has no closure tolerance
    ["table", "--degrees"],  # nor folding-angle flags
    ["sweep", "general", "-n", "2", "--degrees"],  # a sweep takes no folding angle
    ["export", "samples.json", "--degrees"],
    ["region", "--rho6", "0.8", "--tol", "1e-8"],  # the mask closes every cell below DEFAULT_TOL
    # every reported sample is judged at DEFAULT_TOL, as every solve is
    ["fold", "trifold", "--drive", "0.1", "--tol", "1e-8"],
    ["sweep", "trifold", "-n", "3", "--tol", "1e-8"],
    ["trace", "--step", "0.2", "--tol", "1e-8"],
    ["resch", "--drive", "0.3", "--tol", "1e-8"],
    ["export", "in.json", "--tol", "1e-8"],
])
def test_an_option_no_command_reads_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("rhos", [["--rho1=0.3"], ["--rho1=0.3", "--rho2=0.2", "--rho3=0.1"]])
def test_fold_opposites_takes_exactly_two_of_its_three_angles(capsys, rhos):
    err = "error: opposites requires exactly two of --rho1 --rho2 --rho3\n"
    assert run(capsys, "fold", "opposites", *rhos) == (2, "", err)


@pytest.mark.parametrize("argv, unread", [
    (["trifold", "--drive=0.1", "--rho3=9"], "--rho3"),
    (["degree4", "--drive=0.1", "--rho1=0.1"], "--rho1"),
    (["bowtie", "--rho1=0.1"], "--rho1"),
    (["general", "--rho4=0", "--rho5=0", "--rho6=0", "--rho1=0"], "--rho1"),
    (["general", "--rho4=0", "--rho5=0", "--rho6=0", "--drive=0"], "--drive"),
    (["almost-general", "--rho4=0", "--rho5=0", "--rho6=0"], "--rho6"),
    (["twopair", "--rho1=0", "--rho2=0", "--rho3=0"], "--rho3"),
    (["igloo", "--rho1=0", "--rho2=0", "--rho3=0", "--rho4=0"], "--rho1 --rho4"),
    (["igloo1dof", "--rho4=0.2", "--rho5=0"], "--rho5"),
    (["opposites", "--rho1=0", "--rho2=0", "--rho4=0"], "--rho4"),
    (["opposites", "--rho1=0", "--rho2=0", "--drive=0"], "--drive"),
])
def test_fold_refuses_an_angle_flag_its_model_does_not_take(capsys, argv, unread):
    assert run(capsys, "fold", *argv) == (2, "", f"error: {argv[0]} does not take {unread}\n")


def test_fold_takes_a_lone_rho_drive_by_name_or_as_drive_but_not_both(capsys):
    by_name = run(capsys, "fold", "igloo1dof", "--rho4=0.2")
    assert by_name[0] == 0
    assert run(capsys, "fold", "igloo1dof", "--drive=0.2") == by_name
    assert run(capsys, "fold", "igloo1dof", "--rho4=0.2", "--drive=0.2") == (
        2, "", "error: igloo1dof takes --rho4 or --drive, not both\n")


def test_parser_is_built_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        runs = [run(capsys, *argv) for argv in (["--help"], ["--help"], ["fold", "nosuchmodel"],
                                                 ["fold", "nosuchmodel"], ["table"])]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1].startswith("usage: rigidfold")
    assert runs[2] == runs[3] and runs[2][0] == 2 and "invalid choice: 'nosuchmodel'" in runs[2][2]
    assert runs[4][0] == 0


def test_missing_drive_reports_domain_error(capsys):
    code, _, err = run(capsys, "fold", "trifold", "--beta", "60")
    assert code == 2
    assert "--drive" in err


def test_sweep_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "trifold", "--beta", "60", "-n", "12",
                     "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 13
    assert lines[0].startswith("rho1,")


def test_region_json(capsys):
    code, out, _ = run(capsys, "region", "--rho6", "0.4", "-n", "9")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rho4"]) == 9
    assert len(payload["mask"]) == 9
    assert any(any(row) for row in payload["mask"])


def test_region_csv_is_the_json_mask_row_by_row(tmp_path, capsys):
    path = tmp_path / "r.csv"
    assert run(capsys, "region", "--rho6", "0", "-n", "41", "-o", str(path)) == (0, "", "")
    code, out, _ = run(capsys, "region", "--rho6", "0", "-n", "41")
    assert code == 0
    payload = json.loads(out)
    lines = path.read_text().splitlines()
    assert len(lines) == 1682 and lines[0] == "rho4,rho5,admissible"
    assert sum(line.endswith(",true") for line in lines) == 1211
    want = [(f"{r4:.12g}", f"{r5:.12g}", "true" if ok else "false")
            for r4, row in zip(payload["rho4"], payload["mask"]) for r5, ok in zip(payload["rho5"], row)]
    assert [tuple(line.split(",")) for line in lines[1:]] == want


def test_resch_reports_and_writes_obj(tmp_path, capsys):
    out_path = tmp_path / "patch.obj"
    code, out, _ = run(capsys, "resch", "--drive", "0.3", "-o", str(out_path))
    assert code == 0
    assert [ln.split(":")[0] for ln in out.strip().splitlines()] == [
        f"r{i}" for i in range(1, 8)
    ]
    text = out_path.read_text()
    assert text.count("o sample_") == 7  # format inferred from the extension


def test_export_json_to_csv(tmp_path, capsys):
    src = tmp_path / "samples.json"
    code, _, _ = run(capsys, "sweep", "twopair", "-n", "10", "--format", "json",
                     "-o", str(src))
    assert code == 0
    code, out, _ = run(capsys, "export", str(src), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("rho1,")
    assert len(out.splitlines()) == 11


def test_export_quotes_a_branch_tag_that_would_split_a_csv_row(tmp_path, capsys):
    """A string tag holding a comma, a quote or a line break is quoted as RFC 4180 asks, so a csv
    reader reads each row back whole; a plain string tag and an integer tag are written as they are."""
    src = tmp_path / "g.json"
    assert run(capsys, "sweep", "general", "-n", "4", "-o", str(src))[0] == 0
    records = json.loads(src.read_text())
    tags = ["a,b", 'q"x\nnew', "plain", 5]
    for record, tag in zip(records, tags, strict=True):
        record["branch"] = tag
    src.write_text(json.dumps(records))
    code, out, _ = run(capsys, "export", str(src), "-o", str(tmp_path / "g.csv"))
    assert code == 0 and out == ""
    text = (tmp_path / "g.csv").read_text()
    with open(tmp_path / "g.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["branch"] for row in rows] == ["a,b", 'q"x\nnew', "plain", "5"]
    assert all(None not in row and None not in row.values() for row in rows)  # nine cells, no more and no fewer
    assert [float(row["residual"]) for row in rows] == pytest.approx([r["residual"] for r in records], rel=1e-11)
    assert ',"a,b"\n' in text and ',"q""x\nnew"\n' in text and text.count('"') == 6
    assert ",plain\n" in text and text.endswith(",5\n")


def test_identical_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "igloo", "--alpha", "70", "--beta", "80", "-n", "6", "-o", str(a))
    run(capsys, "sweep", "igloo", "--alpha", "70", "--beta", "80", "-n", "6", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def _on_curve_pair() -> list[str]:
    """A folded (rho1, rho2) point of the two-pair curve, as CLI flags."""
    trace = trace_implicit_curve(two_pair_curve_residual, (0.0, 0.0), step=0.2)
    r1, r2 = trace.samples[4].rho[:2]
    return ["--rho1", repr(float(r1)), "--rho2", repr(float(r2))]


FOLD_DRIVES = {
    FoldModel.DEGREE4: ["--drive", "0.7"],
    FoldModel.TRIFOLD: ["--drive", "0.4"],
    FoldModel.BOWTIE: ["--drive", "1.0"],
    FoldModel.OPPOSITES: ["--rho1", "0.5", "--rho2", "-0.3"],
    FoldModel.IGLOO2DOF: ["--rho2", "0.5", "--rho3", "-0.3"],
    FoldModel.IGLOO1DOF: ["--drive", "0.8"],
    FoldModel.TWOPAIR: None,  # drawn from the traced curve
    FoldModel.FULLY_GENERAL: ["--rho4", "0.1", "--rho5", "0.2", "--rho6", "0.3"],
    FoldModel.ALMOST_GENERAL: ["--rho4", "0.3", "--rho5", "0.2"],
}


@pytest.mark.parametrize("model", list(FoldModel), ids=lambda m: m.value)
def test_every_family_folds_closed_on_its_sweep_pattern(capsys, model):
    assert model in FAMILIES
    fam = FAMILIES[model]
    # the highest mode and off-60-degree sectors where the family allows them
    alpha, beta = (60.0, 60.0) if fam.sectors(FoldMode(model)) is None else (55.0, 65.0)
    mode = FoldMode(model, max(fam.modes), math.radians(alpha), math.radians(beta))
    drives = FOLD_DRIVES[model] or _on_curve_pair()
    code, out, _ = run(capsys, "fold", model.value, "--mode", str(mode.mode), "--alpha", str(alpha),
                       "--beta", str(beta), *drives, "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    rho = np.array([rec[f"rho{i + 1}"] for i in range(len(rec) - 3)])
    assert np.any(rho != 0.0)
    assert closure_residual(mode.pattern, rho) < 1e-8


FOREIGN = "samples that do not close on the export pattern (pick theirs with --model)"


def test_obj_export_counts_invalid_and_foreign_samples_apart(tmp_path, capsys):
    """Valid samples of another pattern are not called invalid, and --model folds them."""
    trifold, general, both = tmp_path / "tf.json", tmp_path / "general.json", tmp_path / "both.json"
    assert run(capsys, "sweep", "trifold", "--beta", "50", "-n", "8", "-o", str(trifold)) == (0, "", "")
    assert run(capsys, "sweep", "general", "-n", "8", "-o", str(general)) == (0, "", "")
    records = json.loads(general.read_text())
    invalid = sum(not r["valid"] for r in records)
    assert 0 < invalid < len(records)
    both.write_text(json.dumps(records + json.loads(trifold.read_text())))

    out = tmp_path / "out.obj"
    assert run(capsys, "export", str(trifold), "-o", str(out)) == (0, "", f"skipped 8 {FOREIGN}\n")
    assert out.read_text().count("o sample_") == 0
    assert run(capsys, "export", str(trifold), "--model", "trifold", "--beta", "50", "-o", str(out)) == (0, "", "")
    assert out.read_text().count("o sample_") == 8
    assert run(capsys, "export", str(general), "-o", str(out)) == (0, "", f"skipped {invalid} invalid samples\n")
    assert out.read_text().count("o sample_") == len(records) - invalid
    code, _, err = run(capsys, "export", str(both), "-o", str(out))
    assert (code, err) == (0, f"skipped {invalid} invalid samples\nskipped 8 {FOREIGN}\n")
    assert out.read_text().count("o sample_") == len(records) - invalid


def test_commands_read_and_write_utf8_whatever_the_locale(tmp_path):
    """Every file is opened as UTF-8, so no command leans on the locale's default encoding:
    each exits 0 with a missing ``encoding`` turned into an error."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for argv in (["sweep", "general", "-n", "8", "-o", "s.json"], ["export", "s.json", "-o", "s.csv"],
                 ["export", "s.json", "-o", "e.json"], ["export", "s.json", "-o", "s.obj"],
                 ["region", "--rho6", "0.8", "-n", "5", "-o", "m.csv"], ["table", "-o", "t.txt"]):
        done = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                               "-m", "rigidfold.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)
    assert (tmp_path / "e.json").read_bytes() == (tmp_path / "s.json").read_bytes()
