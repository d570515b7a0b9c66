"""Filesystem substrate: real-byte virtual disk + timing models.

:mod:`.vfs` holds the bytes, :mod:`.models` charges the time of each
``write`` / ``read`` / metadata round trip, and :mod:`.tiers` is the
burst-buffer storage tier that may front a model.  What one transfer
carries — a writer's gathered stage, a reader's sieved run — is the
SHDF layer's decision (:mod:`repro.shdf.file`).
"""

from .models import (
    FileSystemModel,
    FSMetrics,
    GPFSModel,
    LocalFSModel,
    NFSModel,
)
from .tiers import (
    BurstBufferTier,
    DrainFailedError,
    DrainJournal,
    TierConfig,
    TierDisk,
    TierStats,
)
from .vfs import (
    DiskFullError,
    FileExists,
    FileNotFound,
    TransientIOError,
    VirtualDisk,
    VirtualFile,
    WriteFaultError,
)

__all__ = [
    "VirtualDisk",
    "VirtualFile",
    "FileNotFound",
    "FileExists",
    "WriteFaultError",
    "TransientIOError",
    "DiskFullError",
    "FileSystemModel",
    "FSMetrics",
    "NFSModel",
    "GPFSModel",
    "LocalFSModel",
    "TierConfig",
    "TierStats",
    "DrainJournal",
    "DrainFailedError",
    "TierDisk",
    "BurstBufferTier",
]
