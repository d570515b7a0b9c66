"""Shared utilities: units and statistics."""

from .stats import Summary, best_of, mean_ci, t_critical_95
from .units import (
    GB,
    KB,
    MB,
    MINUTE,
    MSEC,
    TB,
    USEC,
    fmt_bandwidth,
    fmt_bytes,
    fmt_time,
)

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "USEC",
    "MSEC",
    "MINUTE",
    "fmt_bytes",
    "fmt_bandwidth",
    "fmt_time",
    "Summary",
    "best_of",
    "mean_ci",
    "t_critical_95",
]
