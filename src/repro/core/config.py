"""Configuration for the end-to-end ThreatRaptor pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class ThreatRaptorConfig:
    """Settings controlling the end-to-end pipeline.

    Attributes:
        apply_reduction: Run Causality Preserved Reduction before storage.
        reduction_merge_window_ns: CPR merge window in nanoseconds
            (``None`` = unlimited).
        resolve_nominal_coreference: Enable definite-noun-phrase coreference in
            the NLP pipeline (pronoun-only when False).
        synthesis_wildcard_filters: Wrap synthesized entity filters in ``%``
            wildcards.
        synthesis_use_path_patterns: Synthesize variable-length path patterns
            instead of single event patterns.
        synthesis_path_max_length: Maximum path length for synthesized path
            patterns.
        execution_backend: ``"auto"`` (event patterns on the relational
            store, path patterns on the graph store) or ``"graph"``
            (every pattern on the graph store).
        optimize_execution: Use pruning-score scheduling with constraint
            propagation.
        analysis_mode: Static-analysis admission gate — ``"enforce"`` (error
            diagnostics reject a query before it runs or registers, the
            default), ``"warn"`` (analyze and report, never reject) or
            ``"off"`` (skip analysis entirely).
        storage: ``"memory"`` (in-memory relational store) or ``"segments"``
            (durable on-disk segmented store; see
            :mod:`repro.storage.segment`).
        data_dir: Data directory for ``storage="segments"``.  ``None`` with
            segmented storage uses a store-owned temporary directory.
        segment_rows: Memtable seal threshold for the segmented store.
    """

    apply_reduction: bool = True
    reduction_merge_window_ns: int | None = 10_000_000_000
    resolve_nominal_coreference: bool = False
    synthesis_wildcard_filters: bool = True
    synthesis_use_path_patterns: bool = False
    synthesis_path_max_length: int = 4
    execution_backend: str = "auto"
    optimize_execution: bool = True
    analysis_mode: str = "enforce"
    storage: str = "memory"
    data_dir: str | None = None
    segment_rows: int = 4096

    def validate(self) -> "ThreatRaptorConfig":
        """Validate the configuration, returning ``self`` for chaining.

        Raises:
            ConfigurationError: when a setting is out of range.
        """
        if self.execution_backend not in ("auto", "graph"):
            raise ConfigurationError(
                f"execution_backend must be 'auto' or 'graph', "
                f"got {self.execution_backend!r}"
            )
        if self.analysis_mode not in ("enforce", "warn", "off"):
            raise ConfigurationError(
                f"analysis_mode must be 'enforce', 'warn' or 'off', "
                f"got {self.analysis_mode!r}"
            )
        if self.storage not in ("memory", "segments"):
            raise ConfigurationError(
                f"storage must be 'memory' or 'segments', got {self.storage!r}"
            )
        if self.data_dir is not None and self.storage != "segments":
            raise ConfigurationError(
                "data_dir is only meaningful with storage='segments'"
            )
        if self.segment_rows < 1:
            raise ConfigurationError(
                f"segment_rows must be at least 1, got {self.segment_rows}"
            )
        if self.synthesis_path_max_length < 1:
            raise ConfigurationError("synthesis_path_max_length must be at least 1")
        if (
            self.reduction_merge_window_ns is not None
            and self.reduction_merge_window_ns < 0
        ):
            raise ConfigurationError("reduction_merge_window_ns must be non-negative")
        return self
