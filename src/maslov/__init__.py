"""Topological Maslov-type indices for Lagrangian and symplectic paths."""

from .defaults import TOL_PHASE, TOL_RANK_BASE, TOL_ROUND, TOL_SIG_BASE, TOL_SYM
from .derived import (
    HalfInteger,
    SymmetricFamily,
    direct_sum_lift,
    graph_path,
    hormander_xi,
    robbin_salamon,
    shear_path,
    spectral_flow,
)
from .errors import BadInput, IllConditioned, MaslovError, Undersampled
from .lagrangian import (
    LagrangianFrame,
    apply_symplectic,
    coordinate_x,
    coordinate_xstar,
    direct_sum_frame,
    frame_from_graph,
    frame_from_unitary,
    frame_from_w,
    intersection_dim,
    souriau_w,
    transversal_companion,
)
from .leray import LagrangianLift, deck_apply, lift_of, mu_bar, souriau_m
from .paths import (
    LagrangianPath,
    SymplecticPath,
    concat,
    concat_symplectic,
    induced_path,
    keller_maslov,
    lift_path,
    mu_ell,
    mu_lagrangian,
    mu_symplectic,
    path_joining,
    reverse,
    rotation_path,
    symplectic_path_from_algebra,
    unitary_path,
)
from .signature import Cochain, TripleSignature, coboundary, inert_index, kashiwara_tau
from .symplectic import (
    SymplecticMatrix,
    direct_sum_symplectic,
    embed_unitary,
    is_symplectic,
    omega,
    omega_matrix,
)

__version__ = "0.1.0"
