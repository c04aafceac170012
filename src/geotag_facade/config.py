"""Run configuration shared by the pipeline driver and the CLI."""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .errors import ConfigError


def rays_per_turn(step_deg: float) -> int:
    """Rays in a full sweep at ``step_deg``; 0 when the step does not
    tile 360 degrees exactly."""
    count = 360.0 / step_deg
    n = round(count)
    return n if n >= 1 and abs(count - n) <= 1e-9 else 0


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one annotation run, echoed into every output artifact.

    Defaults match the operating point used throughout: a 50 m field of
    view, 1 degree sweep step, 0.3 horizontal-IoU floor, and adaptive
    score thresholding.
    """

    radius_m: float = 50.0
    step_deg: float = 1.0
    iou_x_min: float = 0.3
    threshold_mode: str = "adaptive"  # "adaptive" | "fixed"
    fixed_threshold: float = 0.5
    batch_size: int = 64
    seed: int = 17
    flip_heading: bool = False
    clip_lo: float = 0.05
    clip_hi: float = 0.9

    def __post_init__(self):
        # every artifact echoes the config, and its readers refuse
        # NaN and Infinity
        if not (self.radius_m > 0 and math.isfinite(self.radius_m)):
            raise ConfigError(
                f"radius_m must be a positive finite number, got "
                f"{self.radius_m}")
        if not self.step_deg > 0:
            raise ConfigError(f"step_deg must be positive, got {self.step_deg}")
        if not rays_per_turn(self.step_deg):
            raise ConfigError(f"step_deg {self.step_deg} does not divide 360")
        if not 0.0 <= self.iou_x_min < 1.0:
            # the horizontal IoU must exceed the floor, so 1 never matches
            raise ConfigError(
                f"iou_x_min must be in [0, 1), got {self.iou_x_min}")
        if self.threshold_mode not in ("adaptive", "fixed"):
            raise ConfigError(
                f"unknown threshold_mode {self.threshold_mode!r}")
        if not math.isfinite(self.fixed_threshold):
            # scores lie in [0, 1], so -1 and 1.5 keep or drop every box
            raise ConfigError(f"fixed_threshold must be a finite number, "
                              f"got {self.fixed_threshold}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.clip_lo <= self.clip_hi <= 1.0):
            raise ConfigError("need 0 <= clip_lo <= clip_hi <= 1")

    def to_dict(self) -> dict:
        return asdict(self)
