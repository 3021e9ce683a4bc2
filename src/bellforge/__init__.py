"""Coherent states on complex projective spaces, anti-holomorphic twist maps,
and the maximally entangled states their invariant-measure integrals produce."""

from .analysis import (
    SchmidtData,
    rank_of_family,
    resolution_of_unity_cp1,
    resolution_of_unity_cp2,
    resolution_of_unity_mc,
    schmidt,
    state_distance,
    total_measure_cp1,
    total_measure_cp2,
)
from .bell import (
    BipartiteState,
    bell_target,
    closed_form_bell_cp1,
    closed_form_bell_cp2,
    fivel_bell,
    generalized_bell,
    unitary_transport_identity,
)
from .coherent import (
    binomial_row,
    coherent_cp1,
)
from .errors import (
    BellforgeError,
    DimensionMismatchError,
    DomainError,
    EmptyFamilyError,
    UnknownFlatMapError,
)
from .flatmaps import (
    FlatMapId,
    cp1_catalog,
    cpn_catalog,
    flat_projector,
    flat_state,
    global_unitary,
    projector_consistency,
    verify_antimap,
)
from .fourier import clock, shift, verify_shift_diagonalization, walsh_hadamard
from .projective import projector_of
from .quadrature import (
    MCSpec,
    QuadratureSpecCP1,
    QuadratureSpecCP2,
    cpn_rule,
    gauss_legendre_01,
    integrate_cp1,
    integrate_cp2,
    moment_cp1,
    moments_cp1,
    sample_fubini_study,
)

__version__ = "0.1.0"
