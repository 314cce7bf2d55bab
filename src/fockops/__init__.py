"""Matrix-free second-quantized operators on complete Fock subspaces.

Configurations (determinants / permanents) are addressed combinadically,
and one- and two-body operator strings act on state vectors by amplitude
re-addressing with statistics prefactors; the operator matrix is never
built.  Includes Krylov ground-state and propagation solvers, reduced
density matrices, a deterministic row-block parallel executor, and a dense
brute-force oracle for verification.
"""

from .combinadics import (
    BOSON,
    FERMION,
    boson_rank,
    boson_to_fermion,
    boson_unrank,
    fermion_rank,
    fermion_to_boson,
    fermion_unrank,
    space_dimension,
)
from .errors import (
    AddressError,
    ConvergenceError,
    FockError,
    IntegralFormatError,
    InvalidConfigurationError,
    InvalidSpaceError,
    SizeError,
    SolverArgumentError,
    SpaceMismatchError,
    StepFailureError,
    ValidationError,
    WorkerCountError,
)
from .executor import parallel_apply, resolve_workers
from .fockspace import (
    FermionConfig,
    MixtureSpace,
    SpaceDescriptor,
    StateVector,
    axpy,
    basis_state,
    dot,
    iterate_configurations,
    load_state,
    mixture_address,
    random_state,
    save_state,
    zero_state,
)
from .hamiltonian import (
    HamiltonianSpec,
    InterSpeciesTable,
    MixtureHamiltonianSpec,
    OneBodyTable,
    TwoBodyTable,
    build_bose_hubbard,
    load_integrals,
    save_integrals,
    symmetrize_two_body,
    validate,
)
from .kernel import (
    apply_hamiltonian,
    apply_one_body_operator,
    apply_one_body_term,
    apply_two_body_term,
    fermion_sign_count,
)
from .mixtures import (
    apply_inter,
    apply_inter_term,
    apply_intra_a,
    apply_intra_b,
    apply_mixture_hamiltonian,
    mixture_basis_state,
    mixture_random_state,
    product_state,
)
from .observables import (
    energy,
    mixture_densities,
    natural_occupations,
    one_body_density,
    reorder_two_body,
    site_densities,
    two_body_density,
)
from .oracle import build_dense, dense_eig, dense_expm_apply
from .solvers import GroundStateResult, PropagationResult, ground_state, propagate

__version__ = "0.1.0"
