"""Record-by-record sample-file loader, kept as the tests' reference oracle.

This is the loader that ``config_space.load_samples_json`` replaced: it
checks one record at a time and builds one ``ConfigSample`` per record,
where the columnar loader checks and gathers whole columns.  The
differential tests require both to accept the same files and to reject the
others with the same message and record index, apart from the two records
the columnar loader refuses on purpose (a true/false branch, and angle keys
other than rho1..rhoN).
"""

import json
import math

import numpy as np

from rigidfold.config_space import ConfigSample
from rigidfold.errors import OutOfRangeError


def _angle_keys(path: str, i: int, keys) -> list[str]:
    """The rhoN keys of record ``i`` in angle order; raises when a sample field is missing."""
    for name in ("residual", "valid", "branch"):
        if name not in keys:
            raise OutOfRangeError(f"{path}: record {i} has no {name!r}")
    try:
        angles = sorted((k for k in keys if k.startswith("rho")), key=lambda k: int(k[3:]))
    except ValueError:
        raise OutOfRangeError(f"{path}: record {i} has a rho key that is not rhoN") from None
    if not angles:
        raise OutOfRangeError(f"{path}: record {i} has no rhoN key")
    return angles


def load_samples_json(path: str) -> list[ConfigSample]:
    """The json export read back one record at a time.

    The rhoN keys are ordered once for each distinct key set.  Input that is
    not a json array of sample records, or a record flagged valid whose
    angles or residual are not finite, raises OutOfRangeError naming the
    file and the first bad record.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as e:
            raise OutOfRangeError(f"{path} is not json: {e}") from None
    if not isinstance(data, list):
        raise OutOfRangeError(f"{path} is not a json array of sample records")
    angle_keys: dict[tuple, list[str]] = {}
    out = []
    for i, rec in enumerate(data):
        if not isinstance(rec, dict):
            raise OutOfRangeError(f"{path}: record {i} is not an object")
        keys = tuple(rec)
        angles = angle_keys.get(keys)
        if angles is None:
            angles = angle_keys[keys] = _angle_keys(path, i, keys)
        vals = [rec[k] for k in angles]
        try:
            rho = np.array(vals)
        except ValueError:  # nested lists of unequal length
            rho = None
        residual, valid, branch = rec["residual"], rec["valid"], rec["branch"]
        if rho is None or rho.ndim != 1 or rho.dtype.kind not in "biuf" or not isinstance(residual, (int, float)):
            raise OutOfRangeError(f"{path}: record {i} has an angle or residual that is not a number")
        if not isinstance(valid, bool) or not isinstance(branch, (int, str)):
            raise OutOfRangeError(f"{path}: record {i} needs a true/false valid and an integer or string branch")
        # the float sum is finite for finite angles unless it overflows: then ask numpy
        if valid and not (-math.inf < residual < math.inf and (math.isfinite(sum(vals)) or np.isfinite(rho).all())):
            raise OutOfRangeError(f"{path}: record {i} is flagged valid but has an angle or residual that is not finite")
        out.append(ConfigSample(rho=rho.astype(float, copy=False), residual=residual, valid=valid, branch=branch))
    return out
