"""Directional robust regression under bounded, direction-annotated selection bias."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DruRegError,
    EstimationError,
    InfeasibleError,
    NumericError,
    ParameterError,
    SchemaError,
    ShapeError,
    UndefinedScoreError,
)
from .harness import (
    METHOD_KINDS,
    METHODS,
    Method,
    RunRecord,
    SweepConfig,
    SweepResult,
    b_score,
    histogram_data,
    run_sweep,
    summarize,
)
from .losses import (
    LossSpec,
    MetaInfo,
    dru_loss,
    loss_gradients,
    loss_value,
    pinball_loss,
    ru_loss,
    squared_loss,
)
from .nn import (
    MLP,
    Fit,
    LayerSpec,
    TrainConfig,
    TrainedModel,
    TrainReport,
    backward,
    forward_batch,
    init_mlp,
    init_networks,
    mlp_architecture,
    one_hot_encode,
    train,
    train_stack,
)
from .poststrat import CellTable, build_cell_table, poststratify
from .robustness import (
    DiscreteDistribution,
    WorstCase,
    cvar,
    eta,
    sup_oracle_lp,
    worst_case_dru,
    worst_case_ru,
)
from .sampling import (
    BiasSpec,
    Dataset,
    PopulationSpec,
    biased_sample,
    cell_design,
    default_population_spec,
    estimate_true_meta,
    generate_population,
    grid_levels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
