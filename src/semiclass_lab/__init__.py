"""Numerical laboratory for quantum chaos model systems: quantized torus
automorphisms (cat maps), semiclassical measures and scarred states, entropy
estimation, and billiard eigenmodes."""

import os as _os

from ._blas import env_threads as _env_threads
from .errors import ConfigError as _ConfigError

try:
    _threads = _env_threads()
except _ConfigError:  # copied nowhere; run_experiment raises it
    _threads = None
if _threads:
    # must land before the first numpy import to take effect in BLAS
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = str(_threads)  # over any value the shell set

from .catmap import CatMap, DEFAULT_MAP, LyapunovData, TorusPoint, cat_lyapunov
from .billiard import (BilliardState, StadiumDomain, billiard_flow,
                       circle_angular_momentum, coverage_grid, ergodic_average,
                       orbit_blocks)
from .torus_quantum import (TrigObservable, UnitaryWord, cat_propagator,
                            coherent_state, egorov_defect, propagator_word)
from .spectral import (EigenDecomposition, QuantumPeriod, diagonalize,
                       degeneracy_clusters, quantum_period, scarred_state,
                       short_period_dimensions)
from .measures import (HusimiGrid, ModelMeasure, ball_mass, eigenbasis_elements,
                       husimi, qe_variance, weak_star_distance,
                       wigner_coefficients)
from .entropy import (EntropyEstimate, SampleCloud, atom_cloud,
                      entropy_bound_check, ks_entropy_estimate, mixture_cloud,
                      uniform_cloud)
from .billiard_quantum import (BilliardMode, DiscreteDomain, bouncing_ball_scores,
                               build_laplacian, discretize_stadium,
                               eigenmodes_near, eigenmodes_window,
                               qe_spatial_variance, region_masses, scar_scores)
from .config import EXPERIMENTS, ExperimentConfig, parse_config
from .experiments import RunReport, run_experiment
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
