"""machlab: a desk-scale laboratory for the low Mach number limit.

Compressible barotropic flow around a translating obstacle in the fixed
frame, the incompressible reference solution, Neumann-Laplacian spectral
calculus with the acoustic wave propagator, and the convergence metrics of
the singular limit as the Mach number tends to zero.
"""

from .compressible import CompressibleSolver, EnergyRecord, FluidState, RunSample
from .config import ExperimentConfig, canonical_text, parse_config
from .constitutive import (
    PressureLaw,
    ViscosityPair,
    pressure,
    pressure_potential,
    pressure_slope,
    relative_entropy,
    stress,
)
from .diagnostics import (
    EssResSplit,
    MetricsRecord,
    convergence_metrics,
    member_metrics,
    split_ess_res,
    uniform_estimate_report,
)
from .geometry import (
    ExtensionField,
    ExtensionFieldSample,
    Grid,
    MotionPath,
    build_grid,
    eval_motion,
    linear_path,
    sinusoidal_path,
    static_path,
)
from .incompressible import IncompressibleSolver, IncompressibleState
from .spectral import (
    AcousticState,
    SpectralDecomposition,
    acoustic_energy,
    assemble_forcing,
    decay_gram,
    duhamel_solve,
    extract_acoustic_potential,
    forcing_channel_norms,
    make_spatial_cutoff,
    make_spectral_window,
    rage_decay,
    spectral_decompose,
    wave_propagate,
)
from .sweep import run_sweep
from .verify import stored_acoustic_pair, verify_run

__version__ = "0.1.0"
