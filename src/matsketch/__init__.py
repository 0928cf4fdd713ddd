"""matsketch: column/row sampling with certified reconstruction bounds.

Small dense toolkit around three themes: picking columns (or rows) of a
matrix so the best rank-k approximation inside the picked span provably
tracks the SVD optimum, building row coresets for constrained least
squares, and reducing features for k-means, plus the fast sketched SVDs
those constructions run on and brute-force oracles to test against.
"""

__version__ = "0.1.0"

from .approx_svd import (ApproxBasis, fast_frobenius_svd, fast_spectral_svd,
                         spectral_power_exponent, srht_lowrank)
from .cx import (CxResult, cssp, cx_frobenius, cx_spectral,
                 interpolative_decomposition, lower_bound_instance)
from .errors import (ArgumentError, ConvergenceError, DataFormatError,
                     GuardError, InfeasibleStepError, MatsketchError,
                     NumericError, RankError)
from .kmeans import (ClusterAssignment, indicator_matrix, kmeans_cost, lloyd,
                     reduce_features, selection_width)
from .linalg import (ColumnProblem, SamplingPlan, SvdFactors,
                     apply_plan_columns, apply_plan_rows,
                     best_rank_k_in_subspace, pseudo_inverse, svd)
from .mmio import load_matrix, save_matrix
from .oracles import (all_subset_errors, best_subset_exhaustive,
                      volume_probabilities_exhaustive)
from .regression import (Coreset, RegressionProblem, build_coreset,
                         coreset_size, evaluate_coreset, solve_ls)
from .samplers import (additive_sampling, adaptive_sampling,
                       barrier_dual_frobenius, barrier_dual_general,
                       barrier_dual_spectral, barrier_single, rrqr_select,
                       subspace_sampling)
from .sketch import fwht, gaussian_sketch, sign_sketch, srht_rows
from .synthetic import blobs, lowrank_plus_noise, random_orthonormal

__all__ = [
    "__version__",
    "ApproxBasis", "fast_frobenius_svd", "fast_spectral_svd",
    "spectral_power_exponent", "srht_lowrank",
    "CxResult", "cssp", "cx_frobenius", "cx_spectral",
    "interpolative_decomposition", "lower_bound_instance",
    "ArgumentError", "ConvergenceError", "DataFormatError", "GuardError",
    "InfeasibleStepError", "MatsketchError", "NumericError", "RankError",
    "ClusterAssignment", "indicator_matrix", "kmeans_cost", "lloyd",
    "reduce_features", "selection_width",
    "ColumnProblem", "SamplingPlan", "SvdFactors", "apply_plan_columns",
    "apply_plan_rows", "best_rank_k_in_subspace", "pseudo_inverse", "svd",
    "load_matrix", "save_matrix",
    "all_subset_errors", "best_subset_exhaustive",
    "volume_probabilities_exhaustive",
    "Coreset", "RegressionProblem", "build_coreset", "coreset_size",
    "evaluate_coreset", "solve_ls",
    "additive_sampling", "adaptive_sampling", "barrier_dual_frobenius",
    "barrier_dual_general", "barrier_dual_spectral", "barrier_single",
    "rrqr_select", "subspace_sampling",
    "fwht", "gaussian_sketch", "sign_sketch", "srht_rows",
    "blobs", "lowrank_plus_noise", "random_orthonormal",
]
