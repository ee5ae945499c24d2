"""First- and second-order foldability analysis at the unfolded state.

The closure map of a flat vertex, Taylor-expanded along straight velocity
paths rho(t) = t*v with zero acceleration, yields a linear 3x3 matrix
condition and a quadratic one.  Restricting the velocities to be constant
on the classes of a crease coloring turns both into small systems in the
class unknowns; real solution rays of that system are the candidate
folding modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core_geometry import CreasePattern
from .errors import NumericalError, OutOfRangeError
from .tolerances import CENSUS_ZERO, DEDUPE_STEP, ROUNDOFF


@dataclass(frozen=True)
class VelocityVector:
    """Folding-angle velocities, one per crease, first nonzero entry +1."""

    rho_dot: tuple[float, ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rho_dot, dtype=float)


@dataclass(frozen=True, eq=False)
class ModeSolution:
    """Real velocity rays compatible with a coloring, or the lack thereof.

    ``dof`` is the solution dimension at a ray whose class values are
    pairwise distinct, or None when every real ray merges two classes (the
    ray belongs to a coarser coloring).  ``witness`` (such a ray),
    ``velocities`` and ``foldable`` are built from the solve's eigenpairs
    on first access; the row's own arrays are sliced out of the stack that
    all rows share only then.
    """

    color_pattern: tuple[int, ...]
    dof: int | None
    _stack: tuple = field(repr=False)  # (L, Q, E, eigenvalues and class-space eigenvectors of Qn), padded to n
    _row: int = field(repr=False)  # this coloring's row of the stack

    @cached_property
    def _cone(self) -> tuple:
        L, Q, E, lam, V = (a[self._row] for a in self._stack)
        k, m = max(self.color_pattern), np.count_nonzero(~np.isnan(lam))
        return L[:, :k], Q[:k, :k], E[:, :k], lam[:m], V[:k, :m]

    @cached_property
    def _witness_point(self) -> np.ndarray | None:
        """The first of fixed generic directions (eigen-coordinates of Qn),
        projected onto the cone, with distinct classes: unit Qn-weight on each
        signed part, +-1 between them, the null part as it is."""
        if self.dof is None:
            return None
        L, Q, _, lam, V = self._cone
        pos, neg = lam > ROUNDOFF, lam < -ROUNDOFF
        U = np.cos(np.outer(np.arange(1.0, 5.0), np.arange(1.0, len(lam) + 1.0)))
        Y = np.where(pos | neg, 0.0, U)
        if pos.any() and neg.any():
            Y[:, pos] = U[:, pos] / np.sqrt(U[:, pos] ** 2 @ lam[pos])[:, None]
            Y[:, neg] = U[:, neg] / np.sqrt(U[:, neg] ** 2 @ -lam[neg])[:, None]
            Y = np.vstack([Y, np.where(neg, -Y, Y)])
        witness = next((x for x in map(_normalize_ray, Y @ V.T)
                        if _separated(_gaps(x[:, None]), len(x)) and _on_cone(L, Q, x)), None)
        if witness is None:
            raise NumericalError(f"coloring {list(self.color_pattern)} has a ray with distinct classes, "
                                 "but no witness cone point was found")
        return witness

    @cached_property
    def witness(self) -> VelocityVector | None:
        x = self._witness_point
        return None if x is None else VelocityVector(tuple(float(v) for v in self._cone[2] @ x))

    @cached_property
    def velocities(self) -> tuple[VelocityVector, ...]:
        """The witness and the cone points that pass both order conditions,
        deduplicated (the first copy kept) and sorted."""
        L, Q, E, lam, V = self._cone
        points = ([] if self._witness_point is None else [self._witness_point]) + _cone_points(lam, V)
        rays: list[np.ndarray] = []
        seen: set = set()
        for x in points:
            if not _on_cone(L, Q, x):
                continue
            v6 = _normalize_ray(E @ x)
            if v6 is None:
                continue
            key = tuple(np.round(v6 / DEDUPE_STEP).astype(np.int64))
            if key in seen:
                continue
            seen.add(key)
            rays.append(v6)
        rays.sort(key=lambda v: tuple(v))
        return tuple(VelocityVector(tuple(float(x) for x in v)) for v in rays)

    @property
    def foldable(self) -> bool:
        return bool(self.velocities)

    def _key(self):
        return self.color_pattern, self.velocities, self.witness, self.dof

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, ModeSolution) else NotImplemented

    def __hash__(self):
        return hash(self._key())


def first_order_matrix(pattern: CreasePattern, v) -> np.ndarray:
    """Linear term of the closure map along velocities ``v`` at the flat state."""
    v = np.asarray(v, dtype=float)
    if v.shape != (pattern.n,):
        raise OutOfRangeError(f"expected {pattern.n} velocities, got shape {v.shape}")
    # in-plane creases: only the planar part of the cross-product matrix survives
    sx, sy = v @ pattern.creases[:, :2]
    return np.array([[0.0, 0.0, sy], [0.0, 0.0, -sx], [-sy, sx, 0.0]])


def second_order_matrix(pattern: CreasePattern, v) -> np.ndarray:
    """Quadratic term of the closure map along ``v``, zero accelerations assumed."""
    v = np.asarray(v, dtype=float)
    if v.shape != (pattern.n,):
        raise OutOfRangeError(f"expected {pattern.n} velocities, got shape {v.shape}")
    X, Y = v * pattern.creases[:, 0], v * pattern.creases[:, 1]
    sx, sy = X.sum(), Y.sum()
    # sum over i < j of v_i v_j (l_i x l_j)_z, the sine form of the reduced system
    a = Y @ (np.cumsum(X) - X) - X @ (np.cumsum(Y) - Y)
    return np.array([[-sy * sy, sx * sy - a, 0.0],
                     [sx * sy + a, -sx * sx, 0.0],
                     [0.0, 0.0, -sx * sx - sy * sy]])


def _class_list(color_pattern) -> list[int]:
    """Normalize a coloring to first-occurrence integer labels 1..k."""
    if hasattr(color_pattern, "classes"):
        return list(color_pattern.classes)  # a ColorPattern's labels are first-occurrence by construction
    relabel: dict = {}
    out = []
    for label in color_pattern:
        if label not in relabel:
            relabel[label] = len(relabel) + 1
        out.append(relabel[label])
    return out


def _reduced_systems(pattern: CreasePattern, labels: np.ndarray):
    """Stacked (L, Q, E) of (B, n) label rows; E is zero past each row's k classes."""
    th = pattern.crease_angles
    C = np.vstack([np.cos(th), np.sin(th)])
    S = np.triu(np.sin(th[None] - th[:, None]), 1)  # S[i, j] = sin(th_j - th_i), i < j
    E = (labels[:, :, None] == np.arange(1, pattern.n + 1)).astype(float)
    M = E.transpose(0, 2, 1) @ S @ E
    return C @ E, 0.5 * (M + M.transpose(0, 2, 1)), E


def _checked_labels(pattern: CreasePattern, color_pattern) -> list[int]:
    cls = _class_list(color_pattern)
    if len(cls) != pattern.n:
        raise OutOfRangeError(f"coloring length {len(cls)} != {pattern.n} creases")
    return cls


def symmetry_reduced_system(pattern: CreasePattern, color_pattern):
    """Reduce both order conditions by a coloring.

    Returns (L, Q, E): L x = 0 is the first-order condition on the k class
    velocities x, and x^T Q x = 0 is the one scalar component of the
    quadratic condition that does not vanish identically once L x = 0
    holds.  E is the n-by-k class indicator, so the full velocity vector
    is E x.
    """
    cls = _checked_labels(pattern, color_pattern)
    L, Q, E = _reduced_systems(pattern, np.array([cls]))
    k = max(cls)
    return L[0, :, :k], Q[0, :k, :k], E[0, :, :k]


def _normalize_ray(v: np.ndarray) -> np.ndarray | None:
    for x in v:
        if abs(x) > ROUNDOFF:
            return v / x
    return None


def _gaps(X: np.ndarray) -> np.ndarray:
    """max_c |X_pc - X_qc| for each pair of rows p, q of each X (..., K, c)."""
    return np.abs(X[..., :, None, :] - X[..., None, :, :]).max(axis=-1)


def _separated(gaps: np.ndarray, k) -> np.ndarray:
    """Whether no two of the first k rows are within CENSUS_ZERO in every column,
    from their ``_gaps``: then some point of the span of the columns (or the
    one column) has pairwise distinct classes."""
    p = np.arange(gaps.shape[-1])
    pairs = (p[:, None] < p) & (p < np.asarray(k)[..., None, None])  # p < q < k
    return ~(pairs & (gaps <= CENSUS_ZERO)).any(axis=(-2, -1))


def solve_modes(pattern: CreasePattern, colorings) -> list[ModeSolution]:
    """All real velocity rays whose class structure matches each coloring.

    The first-order condition is linear: its solutions are null(L), with
    basis N.  There the quadratic condition is the cone of Qn = N^T Q N,
    decided exactly from its eigenvalues.  Qn definite (or null(L) empty):
    no real ray.  Qn semidefinite: the cone is null(Qn).  Qn indefinite of
    rank >= 3: an irreducible quadric spanning null(L).  Qn indefinite of
    rank 2: the two hyperplanes sqrt(l+) a.w = +-sqrt(-l-) b.w, each plus
    null(Qn).  A ray with pairwise distinct class values exists when some
    piece of the cone (the subspace, either hyperplane, or the quadric
    through its span null(L)) lies in no merge hyperplane x_p = x_q.

    Only the decision and the DOF run here; each ``ModeSolution`` builds
    its witness and rays when they are read.  No real ray means not foldable.

    Each row is padded to n classes, whatever else is in the batch: one
    ``svd`` per class count k, one ``eigh`` per null-space dimension m.
    """
    labels = [_checked_labels(pattern, c) for c in colorings]
    if not labels:
        return []
    lab = np.array(labels)
    ks, B, n = lab.max(axis=1), len(lab), pattern.n
    L, Q, E = _reduced_systems(pattern, lab)
    vt, rank = np.zeros((B, n, n)), np.zeros(B, dtype=int)  # right singular vectors, zero past k
    for k in np.unique(ks).tolist():
        at = np.flatnonzero(ks == k)
        _, sv, vt[at, :k, :k] = np.linalg.svd(L[at, :, :k])
        rank[at] = np.count_nonzero(sv > ROUNDOFF, axis=1)
    src = rank[:, None] + np.arange(n)  # column j of the null(L) basis N is row rank + j of vt, while < k
    N = vt[np.arange(B)[:, None], np.minimum(src, n - 1)].transpose(0, 2, 1)
    N, ms = np.where((src < ks[:, None])[:, None], N, 0.0), ks - rank
    Qn, lam, W = N.transpose(0, 2, 1) @ Q @ N, np.full((B, n), np.nan), np.zeros((B, n, n))
    for m in np.unique(ms).tolist():
        at = np.flatnonzero(ms == m)
        lam[at, :m], W[at, :m, :m] = np.linalg.eigh(Qn[at, :m, :m])
    V = N @ W  # eigenvectors of Qn in class coordinates
    stack = (L, Q, E, lam, V)
    return [ModeSolution(tuple(cls), None if dof < 0 else dof, stack, row)
            for row, (cls, dof) in enumerate(zip(labels, _decide(lam, V, ks)))]


def symmetric_mode_solve(pattern: CreasePattern, color_pattern) -> ModeSolution:
    """One coloring's rays: the one-row call of :func:`solve_modes`."""
    return solve_modes(pattern, [color_pattern])[0]


def _cone_points(lam: np.ndarray, V: np.ndarray) -> list[np.ndarray]:
    """The null eigenvectors of Qn, then the balanced mixes of each
    positive/negative eigenpair, in class coordinates."""
    pos, neg = lam > ROUNDOFF, lam < -ROUNDOFF
    points = list(V[:, ~(pos | neg)].T)
    for i in np.flatnonzero(pos):
        for j in np.flatnonzero(neg):
            a, b = np.sqrt(-lam[j]), np.sqrt(lam[i])
            points += [a * V[:, i] + b * V[:, j], a * V[:, i] - b * V[:, j]]
    return points


def _decide(lam: np.ndarray, V: np.ndarray, k: np.ndarray) -> list[int]:
    """Each row's DOF (-1 for none) from the eigenpairs of its Qn, padded to a
    common class count K: lam (B, K) is NaN past the row's m eigenvalues, and
    V (B, K, K) is zero past its k classes and m columns.

    The DOF is dim null(L) = m, less one where Qn is indefinite.  At a
    witness x = N w on the cone, rank [L; 2(Qx)^T] = rank L + [Qn w != 0],
    and Qn w = 0 exactly when Qn is semidefinite.
    """
    pos, neg, zero = lam > ROUNDOFF, lam < -ROUNDOFF, np.abs(lam) <= ROUNDOFF  # a NaN pad is none of them
    indefinite = pos.any(axis=1) & neg.any(axis=1)
    rank2 = indefinite & (np.count_nonzero(pos | neg, axis=1) == 2)
    # semidefinite and rank 2: the null columns; indefinite of rank > 2: all.  A zero column adds 0 to a gap.
    gaps = _gaps(np.where((zero | (indefinite & ~rank2)[:, None])[:, None], V, 0.0))
    # rank 2: each balanced mix of the one signed pair spans a hyperplane with null(Qn)
    rows, i, j = np.arange(len(lam)), pos.argmax(axis=1), neg.argmax(axis=1)
    a = np.sqrt(-lam[rows, j], out=np.zeros(len(lam)), where=rank2)
    b = np.sqrt(lam[rows, i], out=np.zeros(len(lam)), where=rank2)
    ai, bj = a[:, None] * V[rows, :, i], b[:, None] * V[rows, :, j]
    lines = (np.maximum(gaps, _gaps(x[:, :, None])) for x in (ai + bj, ai - bj))
    span, plus, minus = _separated(np.stack([gaps, *lines]), k)
    distinct = np.where(rank2, plus | minus, span & (indefinite | zero.any(axis=1)))
    m = np.count_nonzero(~np.isnan(lam), axis=1)
    return np.where(distinct, m - indefinite, -1).tolist()


def _on_cone(L: np.ndarray, Q: np.ndarray, x: np.ndarray) -> bool:
    return np.max(np.abs(L @ x)) <= CENSUS_ZERO and abs(x @ Q @ x) <= CENSUS_ZERO


def ray_class_values(color_pattern, velocity: VelocityVector | np.ndarray) -> np.ndarray:
    """Per-class velocity values of a ray, indexed by class label order."""
    cls = _class_list(color_pattern)
    v = velocity.as_array() if isinstance(velocity, VelocityVector) else np.asarray(velocity, float)
    return v[[cls.index(c) for c in range(1, max(cls) + 1)]]
