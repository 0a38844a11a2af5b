"""Physically-based fog simulation for LiDAR point clouds.

Transforms clear-weather scans into foggy counterparts by modeling the
received signal power under attenuation and backscatter, with precomputed
response tables for high-throughput batch processing.
"""

from .foggify import (
    DEFAULT_ALPHA_SCHEDULE,
    CloudStats,
    FoggifyOutcome,
    PointCloud,
    Provenance,
    alpha_to_mor,
    fog_from_alpha,
    fog_from_mor,
    foggify_cloud,
    mor_to_alpha,
    mor_to_beta,
    sample_alpha,
)
from .optics import (
    DEFAULT_BETA_0,
    SPEED_OF_LIGHT,
    FogParams,
    PulseEnergy,
    SensorModel,
    clear_response,
    crossover,
    hard_peak_intensity,
    soft_integrand,
    soft_response_integral,
    transmission,
    transmit_pulse,
)
from .pointcloud_io import (
    CloudFormat,
    MalformedFileError,
    intersect_returns,
    read_cloud,
    write_cloud,
)
from .tables import (
    SoftResponseTable,
    build_table,
    naive_soft_max,
    query_soft_max,
)

__version__ = "0.1.0"

__all__ = [
    "CloudFormat",
    "CloudStats",
    "DEFAULT_ALPHA_SCHEDULE",
    "DEFAULT_BETA_0",
    "FogParams",
    "FoggifyOutcome",
    "MalformedFileError",
    "PointCloud",
    "Provenance",
    "PulseEnergy",
    "SPEED_OF_LIGHT",
    "SensorModel",
    "SoftResponseTable",
    "alpha_to_mor",
    "build_table",
    "clear_response",
    "crossover",
    "fog_from_alpha",
    "fog_from_mor",
    "foggify_cloud",
    "hard_peak_intensity",
    "intersect_returns",
    "mor_to_alpha",
    "mor_to_beta",
    "naive_soft_max",
    "query_soft_max",
    "read_cloud",
    "sample_alpha",
    "soft_integrand",
    "soft_response_integral",
    "transmission",
    "transmit_pulse",
    "write_cloud",
]
