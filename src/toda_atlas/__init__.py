"""Matrix factorizations, Weyl-indexed linearizing charts, and isospectral
flows for traceless real matrices, with a verification harness and CLI.

The manifold under study is the set of symmetric traceless matrices with
a fixed strictly decreasing spectrum. Charts indexed by permutations make
the sorting (Toda) flow exactly linear; the cells of the Bruhat
decomposition appear in each chart as coordinate subspaces and coincide
with the flow's stable and unstable manifolds. A companion
symmetrization flow retracts matrices with simple real spectrum onto
symmetric ones while preserving the spectrum and every Hessenberg-type
zero pattern.
"""

from .atlas import (
    BruhatClass,
    ChartCoords,
    FlagPoint,
    bruhat_classify,
    chart_domain_test,
    chart_flow_exact,
    chart_forward,
    chart_inverse,
    chart_linear_field,
    coords_from_frame,
    h_conjugate,
    nbar_from_affine,
)
from .analysis import (
    CheckReport,
    example4_frame_check,
    fiber_experiment,
    full_suite,
    pushforward_check,
    pushforward_richardson,
    sym_linearization_spectrum,
    unstable_manifold_experiments,
)
from .errors import (
    ChartDomainError,
    FactorizationError,
    ProfileError,
    StiffnessError,
    TodaAtlasError,
)
from .factorizations import (
    CellStatus,
    ChevalleyResult,
    KANFactors,
    UNbarFactors,
    chevalley_test,
    f_inverse,
    f_map,
    gs_embed,
    kan_factorize,
    phi,
    phi_sigma,
    unbar_factorize,
)
from .flows import (
    IntegratorConfig,
    Trajectory,
    integrate,
    sym_field,
    toda_field,
)
from .linalg_core import (
    IsospectralWitness,
    Spectrum,
    commutator,
    isospectral_witness,
    pi_k,
    pi_u,
    symmetric_eigen,
)
from .weyl_profiles import (
    InversionSets,
    Permutation,
    Profile,
    hessenberg_profile,
    inversion_sets,
    l_sigma_membership,
    perm_matrix,
    profile_closure,
    profile_project,
    profile_validate,
    v_p_membership,
)

__version__ = "0.1.0"
