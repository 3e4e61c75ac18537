"""Result container shared by the spanner construction drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from .graph import Spanner
from .sim import RoundLedger


@dataclass
class SpannerRun:
    """A constructed spanner plus the run's round accounting and the
    structural trace the audits read, only facts the spanner and ledger do
    not hold: ``naive_spanner`` records ``levels`` (level -> centers) and
    ``si_records`` (election records); ``cons_zero_superclustering``
    records ``levels`` (pre-clustering level -> centers) and
    ``superclusterings``, a list of (clustering, superclustering) records
    whose level is ``superclustering.level``, here the one level-0
    record; ``improved_spanner`` records ``zero`` (the zero level's
    ``levels``), ``superclusterings`` (the zero level's record, then one
    per level), ``si_records``, ``bipartite_instances`` and ``tail``
    (naive's trace of its last levels), and below 64 vertices returns
    naive's run; ``sparser_bipartite_spanner`` records ``approx``
    (phase-1 degree estimates); ``small_id_3_spanner`` records
    ``num_parts`` and ``low_bits``.  The others record nothing."""

    spanner: Spanner
    ledger: RoundLedger
    trace: Dict[str, Any] = field(default_factory=dict)
