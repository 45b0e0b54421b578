"""Default tolerances, and the one function that decides each kind.

All tolerances are absolute unless noted.  Rank and signature thresholds are
rescaled by the data at the point of use; the values here are the base
factors and the defaults of the ``tol_rank``, ``tol_sig`` and ``tol_round``
arguments, which nothing rewrites at runtime.  No other site restates a rule:

    kind            function                    constant
    caller arrays   errors.numeric_array        (none: numbers only)
    caller scalars  errors.scalar               (none: finite int or float)
    tolerances      cli.check_tolerance         (none: a caller scalar > 0)
    sample count    paths.sample_count          paths.MAX_SAMPLES
    frame           lagrangian.check_frames     the frame's tol, TOL_SYM
    symmetric       lagrangian.is_symmetric     TOL_SYM, relative
    symplectic      symplectic.is_symplectic    TOL_SYMPLECTIC, relative
    w from outside  lagrangian.frame_from_w     TOL_SYM
    eigenbasis      lagrangian._eigenbasis      1e-6, rebuild residual (used there only)
    corank          lagrangian._intersection    TOL_RANK_BASE, AMBIGUITY_DECADE (by corank)
    transversal     lagrangian.transversal_margin  corank's t, the frame rule's B (derived)
    shear split     lagrangian.graph_matrix     corank's t / AMBIGUITY_DECADE; TOL_ROUND
    signature       signature.sign_counts       TOL_SIG_BASE, AMBIGUITY_DECADE
    theta           leray.check_theta           TOL_PHASE, scaled by the frame
    rounding        leray.nearest_integer       TOL_ROUND
    matching        paths._matches              PLANE_MATCH_TOL
    phase step      paths._step_ok              paths.MAX_PHASE_STEP
    certified grid  paths.certified_count       MAX_PHASE_STEP, paths.phase_slack (derived)
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

#: two w matrices, or two symplectic matrices, match within this (max-norm)
PLANE_MATCH_TOL = 1e-8

#: floor of the |det w - e^{i theta}| bound for points of the universal
#: cover, which otherwise scales with the frame's tol (leray.check_theta)
TOL_PHASE = 1e-9

#: width (in decades) of the ambiguity band around rank/signature thresholds
AMBIGUITY_DECADE = 10.0
