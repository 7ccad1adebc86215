"""Two-phase super-resolution of spike trains from low-frequency Fourier data.

Greedy Slepian-filtered peak picking provides an initial position estimate,
which box-constrained projected Newton refinement then sharpens to (in the
noise-free case) machine precision.
"""

from .circle import hausdorff, separation, wrap, wrap_dist
from .experiments import (
    ExperimentConfig,
    GradCheckReport,
    TrialRecord,
    gradcheck,
    run_monte_carlo,
    run_trial,
    sample_instance,
)
from .peaks import PeakConfig, PeakResult, find_peaks
from .refine import (
    BoxConstraint,
    DegenerateDictionaryError,
    NewtonConfig,
    Solution,
    SolveReport,
    build_G,
    gradient_F,
    hessian_F,
    least_squares_beta,
    objective_F,
    run_newton,
    solve,
    solve_phase2,
)
from .slepian import SlepianKernel, build_kernel
from .spectral import (
    SpikeTrain,
    Spectrum,
    add,
    eval_grid,
    eval_point,
    load_spectrum_csv,
    pointwise_mul,
    save_spectrum_csv,
    spike_fourier,
    synth_noise,
)

__version__ = "0.1.0"
