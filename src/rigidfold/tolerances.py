"""Every numerical threshold of the package, each named once with what it separates.

Values are compared with O(1) quantities (angles in radians, cosines,
singular values), closure residuals (Frobenius distances of a loop product
from the identity, judged by ``DEFAULT_TOL`` alone) or distances on the
unit sphere.  Each one moves by a factor of 10 either way without changing
the census, the sweeps, the trace or the resch patch
(``tests/test_tolerances.py``).  This module imports nothing from the package.
"""

# An O(1) quantity in double precision counts as zero, or as at its bound, below this.
ROUNDOFF = 1e-12
# A drive pair whose relation defect is at most this lies on the relation curve.
ON_CURVE = 1e-7
# The one closure bound: a residual below this closes, for every solve, sample flag and obj skip; above, NotClosedError.
DEFAULT_TOL = 1e-8
# A crease length, crease height or sector sum this close to 1, 0 or 2 pi is exact input.
INPUT_SLACK = 1e-9
# A signed distance or sector size of a folded fan below this is contact, not overlap.
TRIANGLE_EPS = 1e-9
# An order-condition defect, class gap or singular value of the census below this is zero.
CENSUS_ZERO = 1e-9
# Velocity rays whose entries round alike on a grid this fine are one ray.
DEDUPE_STEP = 1e-6
# A relation-curve gradient shorter than this marks a node, which the walker crosses straight.
NODE_GRAD_TOL = 1e-6
# Step of the walker's central-difference gradient.
DIFF_STEP = 1e-6
