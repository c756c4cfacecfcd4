"""borncraft: exact output distributions of small quantum circuits, their
query oracles, and provably-correct subspace-recovery learners, with a
reproducible experiment harness."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .gf2 import (
    AffineSubspace,
    BitMatrix,
    BitVec,
    max_independent_subset,
    nullspace,
    solve,
)
from .circuit import (
    Circuit,
    Gate,
    T_NOISE_RATE,
    depth,
    format_circuit,
    parity_circuit,
    parse_circuit,
    random_circuit,
    route_nearest_neighbor,
)
from .statevector import (
    circuit_unitary,
    opnorm_tv_check,
    run_state,
    sv_distribution,
)
from .stabilizer import StabTableau, simulate_clifford
from .dist import (
    AffineUniform,
    DenseDist,
    Dist,
    FunctionDist,
    NoisyParity,
    ParityCorrelation,
    PointMass,
    Product,
    SampleOracle,
    StatOracle,
    dist_from_json,
    dist_to_json,
    embed,
    marginalize,
    tv,
    uniform,
)
from .learn import (
    closure_learn,
    lpn_brute_force,
    recover_affine,
    sq_correlation_learner,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    InfeasibleGridError,
    run,
    trial_rng,
    wilson_interval,
    wilson_sigma,
)

# Every name imported above is public, and nothing else is.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
