"""Run configuration: truncation schedule, tolerances, grids, output options.

Identical configs give bit-identical outputs; every tolerance is pinned
here rather than scattered through call sites.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .errors import SpecParseError, json_typed


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lambda grid; a degenerate imaginary axis (n_im=1) is allowed."""

    re0: float
    re1: float
    n_re: int
    im0: float = 0.0
    im1: float = 0.0
    n_im: int = 1

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.re0, self.re1, self.im0, self.im1)):
            raise SpecParseError("grid bounds must be finite")
        if self.n_re < 2:
            raise SpecParseError("grid needs at least 2 points on the real axis")
        if self.n_im < 1 or (self.n_im == 1 and self.im0 != self.im1):
            raise SpecParseError("imaginary axis needs n_im >= 2 unless im0 == im1")

    def re_points(self) -> np.ndarray:
        return np.linspace(self.re0, self.re1, self.n_re)

    def im_points(self) -> np.ndarray:
        if self.n_im == 1:
            return np.array([self.im0])
        return np.linspace(self.im0, self.im1, self.n_im)

    def points(self) -> Iterator[complex]:
        """Row-major iteration: real axis outer, imaginary axis inner."""
        for re in self.re_points():
            for im in self.im_points():
                yield complex(re, im)

    @property
    def size(self) -> int:
        return self.n_re * self.n_im

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        """Parse ``re0:re1:nRe[,im0:im1:nIm]``."""
        parts = text.split(",")
        if len(parts) not in (1, 2):
            raise SpecParseError(f"bad grid spec {text!r}")
        try:
            re0, re1, n_re = parts[0].split(":")
            if len(parts) == 2:
                im0, im1, n_im = parts[1].split(":")
            else:
                im0, im1, n_im = "0", "0", "1"
            return cls(float(re0), float(re1), int(n_re), float(im0), float(im1), int(n_im))
        except ValueError as exc:
            raise SpecParseError(f"bad grid spec {text!r}: {exc}") from exc

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunConfig:
    n0: int = 256                 # first truncation in doubling schedules
    n_max: int = 4096             # hard truncation ceiling
    rel_tol: float = 1e-3         # stabilization tolerance across doublings
    growth_threshold: float = 1.5  # divergence flag across three doublings
    solve_tol: float = 1e-10
    series_tol: float = 1e-10
    id_tol: float = 1e-11
    eq_tol: float = 1e-10
    ge_tol: float = 1e-6
    defect_eps: float = 1e-8      # singular values below eps*sigma_max count as defect
    regular_eps: float = 1e-8     # relative floor below which c_lambda counts as zero
    symbol_probe: int = 1 << 17   # index range probed for closed-form sups
    section_margin: int = 8       # extra rows/cols in rectangular sections
    dense_cap: int = 1024         # largest size for dense SVD fallbacks
    scan_n0: int = 256
    scan_n_max: int = 2048
    product_cutoff: int = 1024
    quad_nodes: int = 128
    eig_tol: float = 1e-12
    equiv_probes: int = 64
    duality_check: bool = True

    def __post_init__(self) -> None:
        for name in ("rel_tol", "solve_tol", "series_tol", "id_tol", "eq_tol",
                     "ge_tol", "defect_eps", "regular_eps", "eig_tol"):
            if getattr(self, name) <= 0:
                raise SpecParseError(f"tolerance {name} must be positive")
        for name in ("n0", "scan_n0", "symbol_probe", "equiv_probes"):
            if getattr(self, name) < 1:
                raise SpecParseError(f"size {name} must be positive")
        if self.n0 > self.n_max or self.scan_n0 > self.scan_n_max:
            raise SpecParseError("n0 must not exceed n_max")
        if self.dense_cap < self.scan_n0:
            # dense scans stop at dense_cap and would walk no truncation
            raise SpecParseError("dense_cap must not be below scan_n0")
        if self.growth_threshold <= 1:
            raise SpecParseError("growth_threshold must exceed 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(json_typed(data, dict, "config")) - set(cls.__dataclass_fields__)
        if unknown:
            raise SpecParseError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():  # each key takes the JSON type of its default
            json_typed(value, type(cls.__dataclass_fields__[name].default), f"config {name}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


DEFAULT_CONFIG = RunConfig()
