"""Tile a feature tensor into one 2D frame for the inner codec, and back.

Channels go row-major in index order onto a near-square tile grid
(grid_cols = ceil(sqrt(C))). Unused tiles are filled with the tensor mean so
pad boundaries do not create artificial edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tensor import FeatureTensor


@dataclass(frozen=True)
class PackingLayout:
    """Everything needed to invert a packed frame."""

    grid_rows: int
    grid_cols: int
    tile_h: int
    tile_w: int
    channel_count: int

    def __post_init__(self):
        if min(self.grid_rows, self.grid_cols, self.tile_h, self.tile_w) < 1:
            raise DomainError("layout dimensions must be >= 1")
        if not 1 <= self.channel_count <= self.grid_rows * self.grid_cols:
            raise DomainError(
                f"{self.channel_count} channels cannot fit a "
                f"{self.grid_rows}x{self.grid_cols} tile grid"
            )

    @property
    def frame_height(self) -> int:
        return self.grid_rows * self.tile_h

    @property
    def frame_width(self) -> int:
        return self.grid_cols * self.tile_w


def pack(t: FeatureTensor) -> tuple[np.ndarray, PackingLayout]:
    """Arrange channels into a single float32 frame."""
    c = t.channels
    grid_cols = math.isqrt(c)
    if grid_cols * grid_cols < c:
        grid_cols += 1
    grid_rows = -(-c // grid_cols)
    layout = PackingLayout(grid_rows, grid_cols, t.height, t.width, c)
    mean = np.float32(t.data.astype(np.float64, copy=False).mean())
    frame = np.full((layout.frame_height, layout.frame_width), mean, dtype=np.float32)
    for i in range(c):
        r, col = divmod(i, grid_cols)
        frame[r * t.height : (r + 1) * t.height, col * t.width : (col + 1) * t.width] = t.data[i]
    return frame, layout


def unpack(frame: np.ndarray, layout: PackingLayout) -> FeatureTensor:
    """Invert pack; pad tiles are discarded."""
    frame = np.asarray(frame)
    if frame.ndim != 2 or frame.shape != (layout.frame_height, layout.frame_width):
        raise DomainError(
            f"frame shape {frame.shape} does not match layout "
            f"({layout.frame_height}, {layout.frame_width})"
        )
    th, tw = layout.tile_h, layout.tile_w
    out = np.empty((layout.channel_count, th, tw), dtype=np.float32)
    for i in range(layout.channel_count):
        r, col = divmod(i, layout.grid_cols)
        out[i] = frame[r * th : (r + 1) * th, col * tw : (col + 1) * tw]
    return FeatureTensor(out)
