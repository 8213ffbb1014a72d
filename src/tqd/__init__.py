"""Timestep-aware quality decoupling for flow-matching training.

Video scorers rate motion and visual appearance separately, and samples
strong on both axes are rare. Instead of discarding everything below a
joint bar, this library keeps a sample with probability max(vq, mq) and
steers its training timesteps with a per-sample Beta law: motion-heavy
samples train at high-noise timesteps where layout and motion form,
appearance-heavy samples at low-noise timesteps where detail is refined.

The package ships the sampling mechanism itself (quality, sampler), a
desk-scale harness that exercises it end to end (synth, trainer), and
the diagnostics that justify it (analysis), all behind one CLI (cli).
"""

from .errors import (
    CheckpointError,
    DataError,
    NumericError,
    SamplingError,
    TqdError,
    UsageError,
)
from .quality import (
    QUADRANTS,
    NormalizationConstants,
    PopulationStats,
    QuadrantPartition,
    QualityRecord,
    inject_score_noise,
    normalize_scores,
    partition_quadrants,
    pearson_correlation,
    quadrant_of,
    read_manifest,
    sidecar_path,
    synth_population,
    write_manifest,
    write_sidecar,
)
from .sampler import (
    Batch,
    SamplerConfig,
    TimestepLaw,
    TqdSampler,
    beta_variates,
    bin_masses,
    compute_kappa,
    compute_mu,
    density_curve,
    gamma_variates,
    make_law,
    retention_probability,
)
from .synth import (
    DEGRADATION_KINDS,
    DegradationSpec,
    ToyVideo,
    degrade,
    generate_moving_shape,
    read_video,
    resolve_payload,
    write_video,
)
from .trainer import (
    TrainerConfig,
    TrainState,
    VelocityModel,
    adam_update,
    final_loss,
    grad_at_timestep,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    time_features,
    train,
    write_training_log,
)
from .analysis import (
    GradientProbeCurve,
    HistogramReport,
    QuadrantReport,
    SweepRow,
    gradient_probe,
    quadrant_report,
    robustness_sweep,
    timestep_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "CheckpointError",
    "DEGRADATION_KINDS",
    "DataError",
    "DegradationSpec",
    "GradientProbeCurve",
    "HistogramReport",
    "NormalizationConstants",
    "NumericError",
    "PopulationStats",
    "QUADRANTS",
    "QuadrantPartition",
    "QuadrantReport",
    "QualityRecord",
    "SamplerConfig",
    "SamplingError",
    "SweepRow",
    "TimestepLaw",
    "ToyVideo",
    "TqdError",
    "TqdSampler",
    "TrainState",
    "TrainerConfig",
    "UsageError",
    "VelocityModel",
    "adam_update",
    "beta_variates",
    "bin_masses",
    "compute_kappa",
    "compute_mu",
    "degrade",
    "density_curve",
    "final_loss",
    "gamma_variates",
    "grad_at_timestep",
    "gradient_probe",
    "generate_moving_shape",
    "inject_score_noise",
    "load_checkpoint",
    "loss_and_grad",
    "make_law",
    "normalize_scores",
    "partition_quadrants",
    "pearson_correlation",
    "quadrant_of",
    "quadrant_report",
    "read_manifest",
    "read_video",
    "resolve_payload",
    "retention_probability",
    "robustness_sweep",
    "save_checkpoint",
    "sidecar_path",
    "synth_population",
    "time_features",
    "timestep_histogram",
    "train",
    "write_manifest",
    "write_sidecar",
    "write_training_log",
    "write_video",
]
