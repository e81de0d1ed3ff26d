"""Sample-adaptive, frequency-aware acceleration for coarse-to-fine
multi-step image generators, verified against a deterministic toy generator
with an explicit compute-cost model."""

from .decision import (
    FeatureVector,
    ForestConfig,
    Standardizer,
    TrainedModel,
    TreeConfig,
    fit_standardizer,
    load_model,
    predict,
    save_model,
    split_train_val,
    train_forest,
    train_logreg,
    train_tree,
    train_two_stage,
)
from .features import decision_features
from .frequency import HF_EPSILON, HFParams, Spectrum, dft2, hf_diff, hf_ratio, sobel_magnitude
from .generator import (
    StepTrace,
    TargetSpec,
    TraceConfig,
    branch_gap,
    decode_final,
    default_cost_weights,
    generate_trace,
    step_images,
    synth_target,
)
from .image import (
    ImageFormatError,
    load_image,
    resize_area,
    resize_bilinear,
    save_image,
    to_grayscale,
)
from .labeling import (
    LabeledSample,
    assign_label,
    build_dataset,
    label_sample,
    sensitivity_split,
    split_by_probe,
    strategy_fidelity,
)
from .metrics import HF_MASK_QUANTILE, SsimParams, hf_mean, l1_mean, ssim, ssim_hf, ssim_map, ssim_maps
from .pipeline import (
    EvalResult,
    GeneralizationReport,
    PipelineConfig,
    RunReport,
    evaluate,
    feature_reliability,
    generalization_check,
    run_accelerated,
    train_from_samples,
)
from .strategies import (
    DECISION_OVERHEAD,
    DEFAULT_LADDER,
    CostModel,
    Strategy,
    apply_strategy,
    ladder_order,
    output_key,
    parse_strategy,
    speedup,
)

__version__ = "0.1.0"
