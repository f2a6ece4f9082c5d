"""Spectral heat diffusion and diffusion wavelets on triangle meshes.

Heat kernel convolution is computed as a truncated orthogonal-polynomial
expansion of the spectral weight e^(-lambda sigma), applied through the
three-term recurrence of the polynomial family at one sparse matvec per
degree. Chebyshev, Jacobi, Hermite and Laguerre families come with
closed-form coefficients; arbitrary weights (the band-pass wavelet kernel)
go through Gauss quadrature. Validation meshes and ground truth live in
heatflow.sphere; vertex-wise group statistics in heatflow.stats.
"""

from .expansion import (
    ExpansionCoefficients,
    PolynomialFamily,
    apply_expansion,
    chebyshev_coefficients,
    estimate_lambda_max,
    evaluate_expansion,
    heat_coefficients,
    hermite_coefficients,
    jacobi_coefficients,
    laguerre_coefficients,
    numeric_coefficients,
    recurrence_params,
    spectral_bound,
)
from .fields import FieldStack, read_field_csv, read_stack_csv, write_field_csv, write_stack_csv
from .mesh import (
    LBOperator,
    TriangleMesh,
    apply_lb,
    assemble_lb_operator,
    cotan_matrix,
    export_operator,
    load_mesh,
    save_off,
    vertex_areas,
)
from .solvers import (
    EigenSystem,
    eigen_reference,
    eigen_smooth,
    fem_euler_smooth,
    heat_smooth,
    heat_stack,
    iterative_smooth,
    mse,
)
from .sphere import (
    SphericalHarmonicCoeffs,
    ground_truth_field,
    icosphere,
    real_sph_harm,
    spharm_diffuse,
    spharm_evaluate,
    spharm_fit,
    two_cap_signal,
)
from .stats import StatMap, bh_fdr, correlation_map, hotelling_t2_map, two_sample_t_map
from .wavelets import WaveletKernel, spline_kernel, wavelet_stack, wavelet_transform

__version__ = "0.1.0"
