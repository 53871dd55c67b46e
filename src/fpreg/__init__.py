"""Point-set registration in bounded 2D domains via the Fokker-Planck flow."""

from .mesh import (
    TriangleMesh, generate_rect_with_hole, locate_points, boundary_distances,
    save_mesh_json, load_mesh_json, load_gmsh,
)
from .fem import (
    FeSpace, FeField, VectorField,
    build_space, interpolate, values_at, gradients_at, integrate,
    assemble_mass, assemble_fp_form, assemble_supg, solve_linear,
    save_field_binary, load_field_binary,
)
from .density import (
    Gmm, FitReport, em_fit, select_by_aic,
    gmm_logpdf, gmm_pdf, gmm_grad_potential, sample,
    gmm_to_json, gmm_from_json, load_points_csv, save_points_csv,
)
from .fpsolve import (
    TimeGrid, DensityTrajectory, make_time_grid, solve_fp,
    diagnostics_report, write_diagnostics_csv,
)
from .boundary import (
    SmootherParams, raw_distance_field, smooth_distance,
    regularized_potential, gradient_jump_seminorm,
)
from .particles import (
    ParticleSet, TrajectoryLog,
    advect_euler, advect_rk2, advect_gf, gf_potential, hausdorff,
    write_trajectory_csv, write_summary_json,
)
from .analytic import (
    GaussianParams1D, fp_gaussian_1d, mccann_gaussian_1d,
    fp_gaussian_product2d, gaussian2d_pdf,
    kl_divergence, l1_error, l2_error, pinsker_gap,
)
from .errors import (
    FpregError, InvalidGeometry, SolveFailure, UnsupportedDegree,
    InterpolationFailure, InvalidFit, CollapseFailure, InvalidDistanceField,
)

__version__ = "0.1.0"
