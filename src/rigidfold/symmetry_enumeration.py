"""Bracelet colorings of six creases and their foldability classification.

A coloring of the six creases encodes a folding-angle symmetry: creases of
equal color fold with equal angle.  Colorings are identified up to the
dihedral symmetries of the hexagon and up to renaming of colors, i.e. as
k-colored bracelet patterns.  The census names a pattern after the folding
family whose coloring (``Family.coloring`` in ``FAMILIES``) it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core_geometry import g60
from .errors import OutOfRangeError
from .fold_models import FAMILIES, FoldModel
from .second_order_rigidity import _class_list, solve_modes

# the census name of each family; the 1-DOF igloo is a sub-mode of the igloo's coloring, and degree-4 has four creases
_CENSUS_NAMES = {
    FoldModel.TRIFOLD: "trifold",
    FoldModel.BOWTIE: "bow tie",
    FoldModel.OPPOSITES: "opposites",
    FoldModel.IGLOO2DOF: "igloo",
    FoldModel.TWOPAIR: "two pair",
    FoldModel.ALMOST_GENERAL: "almost general",
    FoldModel.FULLY_GENERAL: "fully general",
}

#: each named family's coloring, as ``FAMILIES`` lays out its creases -> family name (keys need not be canonical)
NAMED_REPRESENTATIVES = {FAMILIES[model].coloring: name for model, name in _CENSUS_NAMES.items()}


@dataclass(frozen=True, order=True)
class ColorPattern:
    """Canonical 6-bead coloring: labels appear in first-occurrence order 1..k."""

    classes: tuple[int, ...]

    def __post_init__(self):
        if len(self.classes) != 6:
            raise OutOfRangeError(f"expected 6 classes, got {len(self.classes)}")
        if list(self.classes) != _class_list(self.classes):
            raise OutOfRangeError(f"labels not in first-occurrence order: {self.classes}")

    @property
    def k(self) -> int:
        return max(self.classes)

    def __str__(self) -> str:
        return "".join(str(c) for c in self.classes)


@dataclass(frozen=True)
class Table1Row:
    k: int
    pattern_count: int
    foldable_patterns: tuple[tuple[ColorPattern, str | None, int], ...]


# the 12 dihedral position maps of a hexagon
_DIHEDRAL = [lambda i, r=r: (i + r) % 6 for r in range(6)] + [
    lambda i, r=r: (r - i) % 6 for r in range(6)
]


def canonical_form(coloring) -> ColorPattern:
    """Lexicographically smallest first-occurrence relabeling over all 12 images."""
    seq = list(coloring)
    if len(seq) != 6:
        raise OutOfRangeError(f"expected 6 labels, got {len(seq)}")
    best = min(tuple(_class_list([seq[g(i)] for i in range(6)])) for g in _DIHEDRAL)
    return ColorPattern(best)


#: canonical pattern classes -> family name
NAMED_PATTERNS = {
    canonical_form(rep).classes: name for rep, name in NAMED_REPRESENTATIVES.items()
}


def _restricted_growth(n: int):
    """All first-occurrence labelings of n beads (one per set partition)."""
    def rec(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(1, used + 2):
            yield from rec(prefix + [c], max(used, c))
    yield from rec([], 0)


@lru_cache(maxsize=1)
def _all_patterns() -> tuple[ColorPattern, ...]:
    return tuple(sorted({canonical_form(s) for s in _restricted_growth(6)}))


def enumerate_patterns(k: int) -> list[ColorPattern]:
    """All canonical bracelet patterns on six beads using exactly k colors."""
    if not 1 <= k <= 6:
        raise OutOfRangeError(f"k must be in 1..6, got {k}")
    return [p for p in _all_patterns() if p.k == k]


def classify_g60() -> list[Table1Row]:
    """Classify every bracelet pattern on the flat 60-degree vertex.

    A pattern counts as foldable only if some real velocity ray keeps all
    of its classes at pairwise distinct values (the solve's witness ray);
    rays that merge classes belong to a coarser pattern.  DOF is the
    solution dimension at that ray.
    """
    pats = _all_patterns()
    by_k: dict = {k: [] for k in range(1, 7)}
    for pat, sol in zip(pats, solve_modes(g60(), pats)):  # one batched solve; only dof is read
        by_k[pat.k].append((pat, sol.dof))
    return [Table1Row(k=k, pattern_count=len(group),
                      foldable_patterns=tuple((pat, NAMED_PATTERNS.get(pat.classes), dof)
                                              for pat, dof in group if dof is not None))
            for k, group in by_k.items()]
