"""ConfigurableAnalysis: XML-driven back-end selection and dispatch.

The paper's runs configure 9 data-binning operator instances (one per
coordinate system) through SENSEI's XML feature and let SENSEI
orchestrate them sequentially.  :class:`ConfigurableAnalysis`
reproduces that: it parses the XML, instantiates each enabled back-end
from the registry, applies the common execution/placement attributes
via the base-class control API, and fans each ``execute`` out to the
children in document order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.binning.axes import AxisSpec
from repro.binning.operator import BinRequest
from repro.binning.reduce import ReductionOp
from repro.config_codec import convert, finite
from repro.errors import ConfigError
from repro.mpi.comm import Communicator
from repro.sensei.analysis_adaptor import AnalysisAdaptor
from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.backends.histogram import HistogramAnalysis
from repro.sensei.backends.writer import PosthocIO
from repro.sensei.data_adaptor import DataAdaptor
from repro.sensei.placement import DevicePlacement, PlacementMode
from repro.sensei.xml_config import AnalysisConfig, parse_document

__all__ = ["ConfigurableAnalysis", "register_backend"]


def _build_data_binning(cfg: AnalysisConfig) -> AnalysisAdaptor:
    mesh = cfg.require("mesh")
    axis_names = cfg.get_list("axes")
    if not axis_names:
        raise ConfigError("data_binning requires axes=\"col[,col...]\"")
    bins = cfg.get_list("bins")
    if len(bins) == 1:
        bins = bins * len(axis_names)
    if len(bins) != len(axis_names):
        raise ConfigError(
            f"data_binning: {len(axis_names)} axes but {len(bins)} bin counts"
        )
    lows = cfg.get_list("low") or [None] * len(axis_names)
    highs = cfg.get_list("high") or [None] * len(axis_names)
    if len(lows) != len(axis_names) or len(highs) != len(axis_names):
        raise ConfigError("data_binning: low/high must match the axis count")
    where = "analysis type='data_binning'"
    axes = [
        AxisSpec(
            name,
            convert(where, "bins", nb, int),
            None if lo is None else convert(where, "low", lo, finite),
            None if hi is None else convert(where, "high", hi, finite),
        )
        for name, nb, lo, hi in zip(axis_names, bins, lows, highs)
    ]
    requests = []
    for spec in cfg.get_list("variables"):
        if ":" not in spec:
            raise ConfigError(
                f"data_binning: variables entries are 'name:op', got {spec!r}"
            )
        var, op = spec.rsplit(":", 1)
        requests.append(BinRequest(ReductionOp.parse(op), var.strip()))
    analysis = BinningAnalysis(mesh, axes, requests, name=cfg.get("name", ""))
    strategy = cfg.get("strategy")
    if strategy is not None:
        from repro.binning.strategies import BinningStrategy

        analysis.binner.device_strategy = BinningStrategy.parse(strategy)
    return analysis


def _build_histogram(cfg: AnalysisConfig) -> AnalysisAdaptor:
    bins = cfg.get_int("bins", 10)
    return HistogramAnalysis(
        cfg.require("mesh"),
        cfg.require("array"),
        bins=bins,
        low=cfg.get_float("low"),
        high=cfg.get_float("high"),
        name=cfg.get("name", ""),
    )


def _build_statistics(cfg: AnalysisConfig) -> AnalysisAdaptor:
    from repro.sensei.backends.stats import StatisticsAnalysis

    columns = cfg.get_list("columns") or None
    return StatisticsAnalysis(
        cfg.require("mesh"), columns=columns, name=cfg.get("name", "")
    )


def _build_posthoc_io(cfg: AnalysisConfig) -> AnalysisAdaptor:
    return PosthocIO(
        cfg.require("mesh"),
        cfg.require("output_dir"),
        frequency=cfg.get_int("frequency", 1),
        fmt=cfg.get("format", "vtk"),
        name=cfg.get("name", ""),
    )


_REGISTRY: dict[str, Callable[[AnalysisConfig], AnalysisAdaptor]] = {
    "data_binning": _build_data_binning,
    "histogram": _build_histogram,
    "statistics": _build_statistics,
    "posthoc_io": _build_posthoc_io,
}


def register_backend(
    type_name: str, factory: Callable[[AnalysisConfig], AnalysisAdaptor]
) -> None:
    """Register a custom back-end type for XML configuration."""
    _REGISTRY[str(type_name)] = factory


def _apply_common_controls(analysis: AnalysisAdaptor, cfg: AnalysisConfig) -> None:
    """Apply the paper's execution/placement attributes to a back-end."""
    execution = cfg.get("execution")
    if execution is not None:
        analysis.set_execution_method(execution)
    frequency = cfg.get_int("frequency")
    if frequency is not None:
        analysis.set_frequency(frequency)
    placement = cfg.get("placement")
    n_use = cfg.get_int("n_use", cfg.get_int("devices_per_node"))
    stride = cfg.get_int("stride", 1)
    offset = cfg.get_int("offset", 0)
    if placement is not None:
        mode = PlacementMode.parse(placement)
        if mode is PlacementMode.HOST:
            analysis.set_placement(DevicePlacement.host())
        elif mode is PlacementMode.MANUAL:
            device = cfg.get_int("device")
            if device is None:
                raise ConfigError("manual placement requires device=\"N\"")
            analysis.set_device_id(device)
        else:
            analysis.set_auto_placement(n_use, stride, offset)
    elif any(k in cfg.attrs for k in ("n_use", "devices_per_node", "stride", "offset")):
        analysis.set_auto_placement(n_use, stride, offset)


class ConfigurableAnalysis(AnalysisAdaptor):
    """An analysis adaptor assembled from a run-time XML configuration."""

    def __init__(self, xml: str | None = None, path: str | Path | None = None):
        super().__init__("configurable")
        if (xml is None) == (path is None):
            raise ConfigError("provide exactly one of xml= or path=")
        if xml is None:
            try:
                xml = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
        document = parse_document(xml)
        #: Parsed ``<transport>`` element, or None — an in transit
        #: driver reads this to configure the data plane.
        self.transport = document.transport
        #: Parsed ``<control>`` element, or None — a harness builds a
        #: :class:`repro.control.ControlPlane` from this and attaches
        #: it to the bridge(s) driving the run.
        self.control = document.control
        self.children: list[AnalysisAdaptor] = []
        for cfg in document.analyses:
            if not cfg.enabled:
                continue
            factory = _REGISTRY.get(cfg.type)
            if factory is None:
                raise ConfigError(
                    f"unknown analysis type {cfg.type!r}; registered: "
                    f"{sorted(_REGISTRY)}"
                )
            analysis = factory(cfg)
            _apply_common_controls(analysis, cfg)
            self.children.append(analysis)

    # ConfigurableAnalysis delegates whole-sale; the acquire/process
    # split of a leaf back-end does not apply.  The control API fans
    # out to the children so a control-plane actuator aimed at this
    # adaptor retunes every back-end it orchestrates.
    def set_execution_method(self, method) -> None:
        super().set_execution_method(method)
        for child in self.children:
            child.set_execution_method(method)

    def set_placement(self, placement) -> None:
        super().set_placement(placement)
        for child in self.children:
            child.set_placement(placement)

    def initialize(self, comm: Communicator | None = None) -> None:
        if self._initialized:
            return
        self._comm = comm if comm is not None else self._comm
        for child in self.children:
            child.initialize(comm)
        self._initialized = True

    def execute(self, data: DataAdaptor) -> bool:
        if not self._initialized:
            self.initialize(data.get_comm())
        ok = True
        for child in self.children:
            ok = bool(child.execute(data)) and ok
        return ok

    def finalize(self) -> None:
        if self._finalized:
            return
        for child in self.children:
            child.finalize()
        self._finalized = True

    @property
    def total_actual_time(self) -> float:
        return sum(child.total_actual_time for child in self.children)

    @property
    def total_apparent_time(self) -> float:
        return sum(child.total_apparent_time for child in self.children)

    @property
    def insitu_busy_time(self) -> float:
        return sum(child.insitu_busy_time for child in self.children)

    def acquire(self, data: DataAdaptor, deep: bool):  # pragma: no cover
        raise NotImplementedError("ConfigurableAnalysis delegates to children")

    def process(self, payload, comm, device_id):  # pragma: no cover
        raise NotImplementedError("ConfigurableAnalysis delegates to children")
