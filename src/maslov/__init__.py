"""Topological Maslov-type indices for Lagrangian and symplectic paths."""

from .defaults import TOL_PHASE, TOL_RANK_BASE, TOL_ROUND, TOL_SIG_BASE, TOL_SYM
from .derived import (
    HalfInteger,
    SymmetricFamily,
    graph_path,
    hormander_xi,
    shear_path,
    spectral_flow,
)
from .errors import BadInput, IllConditioned, MaslovError, Undersampled
from .lagrangian import (
    LagrangianFrame,
    apply_symplectic,
    coordinate_x,
    coordinate_xstar,
    frame_from_graph,
    frame_from_unitary,
    frame_from_w,
    intersection_dim,
    souriau_w,
)
from .leray import LagrangianLift, lift_of, mu_bar, souriau_m
from .paths import (
    LagrangianPath,
    SymplecticPath,
    induced_path,
    keller_maslov,
    lift_path,
    mu_ell,
    mu_lagrangian,
    mu_symplectic,
)
from .signature import TripleSignature, inert_index, kashiwara_tau
from .symplectic import SymplecticMatrix, is_symplectic, omega, omega_matrix

__version__ = "0.1.0"

#: the public names of ``constructions``, which is loaded on the first
#: access to one of them (PEP 562), so that ``import maslov`` skips it
_CONSTRUCTIONS = frozenset({
    "Cochain", "coboundary", "concat", "concat_symplectic", "deck_apply", "direct_sum_frame",
    "direct_sum_lift", "direct_sum_symplectic", "embed_unitary", "path_joining", "reverse",
    "robbin_salamon", "rotation_path", "symplectic_path_from_algebra", "transversal_companion",
    "unitary_path",
})


def __getattr__(name):
    if name in _CONSTRUCTIONS:
        from . import constructions

        return getattr(constructions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
