"""Per-group census solve and per-row decision, kept as the tests' reference oracle.

This is the solve that ``second_order_rigidity.solve_modes`` replaced with
one padded pass: reduced systems built once per class count k at width k,
one ``svd`` per k and one ``eigh`` per (k, rank of L), then one Python call
per coloring that reads its cone off the eigenpairs of Qn.  Each row's
``ModeSolution`` holds its own unpadded arrays.  The differential tests
require both to give every coloring the same DOF, witness and rays.
"""

import numpy as np

from rigidfold.second_order_rigidity import ModeSolution, _checked_labels, _cone_points
from rigidfold.tolerances import CENSUS_ZERO, ROUNDOFF


def _separates(X: np.ndarray) -> bool:
    """True when no two rows of X coincide: some point of the span of X's
    columns (or X itself, for one vector) has pairwise distinct classes."""
    k = X.shape[0]
    gaps = np.abs(X[:, None] - X[None, :]).reshape(k, k, -1).max(axis=2)
    return np.count_nonzero(gaps <= CENSUS_ZERO) == k  # the diagonal only


def decide(lam: np.ndarray, V: np.ndarray) -> int | None:
    """One coloring's DOF from the eigenpairs (lam, V) of Qn: dim null(L), less one
    where Qn is indefinite; None when every real ray merges two classes."""
    pos, neg = lam > ROUNDOFF, lam < -ROUNDOFF
    zero = ~(pos | neg)
    indefinite = pos.any() and neg.any()
    if not indefinite:
        distinct = zero.any() and _separates(V[:, zero])
    elif pos.sum() + neg.sum() > 2:
        distinct = _separates(V)
    else:  # the two mixes span the two hyperplanes, modulo null(Qn)
        distinct = any(_separates(np.column_stack([x, V[:, zero]])) for x in _cone_points(lam, V)[-2:])
    return len(lam) - int(indefinite) if distinct else None


def _reduced_systems(pattern, groups):
    """Stacked (L, Q, E) per group of (B, n) label arrays sharing a class count k, at width k."""
    th = pattern.crease_angles
    C = np.vstack([np.cos(th), np.sin(th)])
    S = np.triu(np.sin(th[None] - th[:, None]), 1)  # S[i, j] = sin(th_j - th_i), i < j
    for labels in groups:
        E = (labels[:, :, None] == np.arange(1, labels.max() + 1)).astype(float)
        M = E.transpose(0, 2, 1) @ S @ E
        yield C @ E, 0.5 * (M + M.transpose(0, 2, 1)), E


def census_solutions(pattern, colorings) -> list[ModeSolution]:
    """Each coloring's solution, solved by group and decided one row at a time."""
    labels = [_checked_labels(pattern, c) for c in colorings]
    ks = np.array([max(cls) for cls in labels], dtype=int)
    groups = [np.flatnonzero(ks == k) for k in np.unique(ks)]
    out: list = [None] * len(labels)
    systems = _reduced_systems(pattern, [np.array([labels[i] for i in g]) for g in groups])
    for group, (L, Q, E) in zip(groups, systems):
        _, sv, vt = np.linalg.svd(L)
        ranks = np.sum(sv > ROUNDOFF, axis=1)
        for rank in np.unique(ranks):
            at = np.flatnonzero(ranks == rank)
            N = vt[at, rank:].transpose(0, 2, 1)  # k x m null-space bases, m may be 0
            lam, W = np.linalg.eigh(N.transpose(0, 2, 1) @ Q[at] @ N)
            for a, l, v in zip(at, lam, N @ W):
                row = group[a]
                stack = tuple(x[None] for x in (L[a], Q[a], E[a], l, v))  # this row's own arrays, as a one-row stack
                out[row] = ModeSolution(tuple(labels[row]), decide(l, v), stack, 0)
    return out
