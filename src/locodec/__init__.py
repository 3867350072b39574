"""Continuous EEG-to-locomotion-speed decoding pipeline.

Sessions and windowing (``sessions``), spectral tooling (``dsp``), a minimal
reverse-mode autodiff core (``autodiff``), decoder families (``decoders``,
``forest``), the training loop (``trainer``), statistics (``stats``),
synthetic fleets with known ground truth (``synthetic``), experiment
orchestration (``protocols``), report tables (``reporting``), and the
``locodec`` command line (``cli``).
"""

from .errors import (
    ConfigError,
    DegenerateDataError,
    DivergenceError,
    FilterDesignError,
    FitError,
    FormatError,
    IntegrityError,
    LeakageError,
    LocodecError,
    ModelLoadError,
    PlanError,
    ShapeError,
    SpecMismatchError,
    SplitError,
    UnsupportedRateError,
)
from .sessions import (
    CANONICAL_RATE_HZ,
    REGIONS,
    SIDES,
    WINDOW_LEN,
    GateResult,
    Normalizer,
    Session,
    SplitSpec,
    apply_inclusion_gate,
    apply_normalizer,
    fit_normalizer,
    ingest_session,
    invert_normalizer,
    normalized_session,
    preprocess_raw,
    session_iqr,
    split_ranges,
    split_session,
    window_arrays,
    write_session,
)
from .dsp import (
    BAND_NAMES,
    CANONICAL_BANDS,
    BandSpec,
    PsdEstimate,
    aggregate_decile_spectra,
    autocorrelation,
    band,
    band_isolate,
    design_butterworth,
    filtfilt,
    speed_decile_spectra,
    welch_psd,
)
from .decoders import (
    FAMILIES,
    Decoder,
    DecoderSpec,
    fit_forest_decoder,
    gradcheck_decoder,
    load_state,
    new_decoder,
    save_state,
)
from .forest import Forest, ForestSpec, forest_fit, forest_predict
from .trainer import TrainConfig, TrainReport, fine_tune, train
from .stats import (
    PairedScores,
    TestOutcome,
    bonferroni,
    bootstrap_median_ci,
    compare_variants,
    friedman,
    pearson_r,
    polyfit2,
    r_squared,
    shapiro_wilk,
    wilcoxon_signed_rank,
)
from .synthetic import ENCODINGS, FleetSpec, generate_synthetic_fleet, region_layout
from .protocols import (
    DEFAULT_OFFSETS_MS,
    STRATEGIES,
    EvalResult,
    ExperimentPlan,
    HygieneRecord,
    check_no_test_leakage,
    derive_seed,
    evaluate_saved,
    expected_evaluation_count,
    results_to_csv_text,
    run_band_analysis,
    run_baseline,
    run_offset_analysis,
    run_region_analysis,
    run_single_session,
    run_transfer,
    strategy_ranges,
    transfer_pairs,
)

__version__ = "0.1.0"
