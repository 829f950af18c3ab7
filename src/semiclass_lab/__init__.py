"""Numerical laboratory for quantum chaos model systems: quantized torus
automorphisms (cat maps), semiclassical measures and scarred states, entropy
estimation, and billiard eigenmodes."""

import os as _os

_threads = _os.environ.get("SEMICLASS_LAB_THREADS")
if _threads:
    # must land before the first numpy import to take effect in BLAS
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .catmap import CatMap, DEFAULT_MAP, LyapunovData, TorusPoint, cat_lyapunov
from .billiard import (BilliardState, StadiumDomain, billiard_flow,
                       circle_angular_momentum, coverage_grid, ergodic_average)
from .torus_quantum import (TrigObservable, cat_propagator, coherent_state,
                            egorov_defect)
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
