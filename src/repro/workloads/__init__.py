"""Synthetic smartphone workloads calibrated to the paper's 25 traces."""

from .addresses import AccessMode, AddressModel, AddressSampler
from .arrivals import ArrivalModel
from repro.metrics.buckets import (
    INTERARRIVAL_BUCKETS_MS,
    RESPONSE_BUCKETS_MS,
    SIZE_BUCKETS,
    bucket_labels,
    histogram,
    size_histogram,
)
from .collection import CollectionResult, collect, sync_fraction
from .combos import interleave, mechanistic_combo, rate_inflation
from .generator import DEFAULT_SEED, generate_all, generate_trace
from .paper_data import (
    ALL_TRACES,
    TABLE_I,
    TABLE_II,
    COMBO_APPS,
    COMBO_COMPONENTS,
    FIG8_HPS_VS_4PS,
    FIG9_HPS_VS_8PS,
    INDIVIDUAL_APPS,
    SizeStatsRow,
    TABLE_III,
    TABLE_IV,
    TimingStatsRow,
    table_iii,
    table_iv,
)
from .scaling import scale_rate, scale_sizes, truncate
from .profiles import (
    DEVICE_BYTES,
    AppProfile,
    all_profiles,
    combo_profiles,
    individual_profiles,
    profile,
)
from .sizes import SizeModel, calibrate as calibrate_sizes, from_histogram

__all__ = [
    "scale_rate",
    "scale_sizes",
    "truncate",
    "CollectionResult",
    "collect",
    "sync_fraction",
    "AccessMode",
    "AddressModel",
    "AddressSampler",
    "ArrivalModel",
    "INTERARRIVAL_BUCKETS_MS",
    "RESPONSE_BUCKETS_MS",
    "SIZE_BUCKETS",
    "bucket_labels",
    "histogram",
    "size_histogram",
    "interleave",
    "mechanistic_combo",
    "rate_inflation",
    "DEFAULT_SEED",
    "generate_all",
    "generate_trace",
    "ALL_TRACES",
    "TABLE_I",
    "TABLE_II",
    "COMBO_APPS",
    "COMBO_COMPONENTS",
    "FIG8_HPS_VS_4PS",
    "FIG9_HPS_VS_8PS",
    "INDIVIDUAL_APPS",
    "SizeStatsRow",
    "TABLE_III",
    "TABLE_IV",
    "TimingStatsRow",
    "table_iii",
    "table_iv",
    "DEVICE_BYTES",
    "AppProfile",
    "all_profiles",
    "combo_profiles",
    "individual_profiles",
    "profile",
    "SizeModel",
    "calibrate_sizes",
    "from_histogram",
]
