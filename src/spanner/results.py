"""Result container shared by the spanner construction drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from .graph import Spanner
from .sim import RoundLedger


@dataclass
class SpannerRun:
    """A constructed spanner plus the run's round accounting and the
    structural trace used by the audits (center counts per level,
    superclusterings, iteration records, ...)."""

    spanner: Spanner
    ledger: RoundLedger
    trace: Dict[str, Any] = field(default_factory=dict)
