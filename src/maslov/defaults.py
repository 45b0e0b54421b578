"""Default tolerances.

All tolerances are absolute unless noted.  Rank and signature thresholds are
rescaled by the data at the point of use (see the corresponding functions);
the values here are the base factors and the defaults of the ``tol_rank``,
``tol_sig`` and ``tol_round`` arguments, which nothing rewrites at runtime.
"""

#: structural checks: unitarity, frame orthonormality (max-norm)
TOL_SYM = 1e-10

#: symplecticity, relative: ||S^T M S - M||_max <= TOL_SYMPLECTIC * max(1, ||S||_max^2)
TOL_SYMPLECTIC = 1e-8

#: corank decisions: threshold is TOL_RANK_BASE * max(1, largest singular value)
TOL_RANK_BASE = 1e-8

#: signature null-space decisions: TOL_SIG_BASE * max(1, largest |eigenvalue|)
TOL_SIG_BASE = 1e-9

#: an index value must land within TOL_ROUND of an integer
TOL_ROUND = 1e-6

#: floor of the |det w - e^{i theta}| bound for points of the universal
#: cover, which otherwise scales with the frame's tol (leray.LagrangianLift)
TOL_PHASE = 1e-9

#: width (in decades) of the ambiguity band around rank/signature thresholds
AMBIGUITY_DECADE = 10.0
