"""Spectral laboratory for the fractional heat semigroup on a periodic box."""

from .errors import (
    ContaminationError,
    ConvergenceError,
    FracheatError,
    PreconditionError,
    RepresentationError,
)
from .grid import (
    Field,
    GaussianBump,
    GridSpec,
    PlaneWave,
    RandomBandlimited,
    RandomBumps,
    TimeSeries,
    VectorField,
    WavePackets,
    WindowedPowerlaw,
    contamination,
    geometric_times,
    inner_product,
    make_grid,
    read_field,
    synthesize_field,
    uniform_times,
    write_field,
)
from .semigroup import (
    apply_semigroup,
    duhamel,
    fractional_derivative,
    kernel,
    semigroup_series,
)
from .norms import (
    DyadicPartition,
    NormSpec,
    besov_norm,
    bmo_norm,
    default_partition,
    lp_block,
    lp_norm,
    lp_norms,
    mixed_norm,
)
from .estimates import (
    DECAY_BATTERY,
    RatioReport,
    besov_embedding_ratio,
    check_admissible,
    check_scaling_relation,
    conjugate,
    decay_fit,
    dilation_sweep,
    homogeneous_ratio,
    inhomogeneous_ratio,
    kernel_mixed_norm_fit,
    parabolic_ratio,
    run_decay_case,
)
from .nse import (
    PicardReport,
    PotentialReport,
    bilinear_form,
    divergence,
    estimate_bilinear_constant,
    leray_project,
    perturbed_taylor_green,
    regularity_check,
    solve_nse_picard,
    solve_potential_eq,
    taylor_green,
)

__version__ = "0.1.0"
