"""Tile a feature tensor into one 2D frame for the inner codec, and back.

Channels go row-major in index order onto a near-square tile grid
(grid_cols = ceil(sqrt(C))). Unused tiles are filled with the tensor mean so
pad boundaries do not create artificial edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, integer_in
from .tensor import FeatureTensor, _float64_sum


@dataclass(frozen=True)
class PackingLayout:
    """Everything needed to invert a packed frame; the tile grid follows
    from the channel count."""

    channel_count: int
    tile_h: int
    tile_w: int

    def __post_init__(self):
        for what in ("channel_count", "tile_h", "tile_w"):
            integer_in(getattr(self, what), what, 1)

    @property
    def grid_cols(self) -> int:
        cols = math.isqrt(self.channel_count)
        return cols if cols * cols == self.channel_count else cols + 1

    @property
    def grid_rows(self) -> int:
        return -(-self.channel_count // self.grid_cols)

    @property
    def frame_height(self) -> int:
        return self.grid_rows * self.tile_h

    @property
    def frame_width(self) -> int:
        return self.grid_cols * self.tile_w


def _tiles(frame: np.ndarray, layout: PackingLayout) -> np.ndarray:
    """The (grid_rows, grid_cols, tile_h, tile_w) view of frame's tiles."""
    return frame.reshape(layout.grid_rows, layout.tile_h, layout.grid_cols, layout.tile_w).swapaxes(1, 2)


def pack(t: FeatureTensor) -> tuple[np.ndarray, PackingLayout]:
    """Arrange channels into a single float32 frame."""
    layout = PackingLayout(t.channels, t.height, t.width)
    frame = np.empty((layout.frame_height, layout.frame_width), dtype=np.float32)
    tiles = _tiles(frame, layout)
    # Pad tiles exist only in the last grid row, after its rest channels.
    full, rest = divmod(t.channels, layout.grid_cols)
    tiles[:full] = t.data[: full * layout.grid_cols].reshape(tiles[:full].shape)
    if rest:
        tiles[full, :rest] = t.data[full * layout.grid_cols :]
        tiles[full, rest:] = np.float32(_float64_sum(t.data, None) / t.data.size)
    return frame, layout


def unpack(frame: np.ndarray, layout: PackingLayout) -> np.ndarray:
    """Invert pack: the C x tile_h x tile_w array of frame's channel tiles, in
    frame's dtype and sharing no memory with it. The whole tile grid is copied
    in one write and the pad tiles, which come last, are dropped. frame may be
    a strided view, such as a crop of a block-aligned frame."""
    frame = np.asarray(frame)
    expected = (layout.frame_height, layout.frame_width)
    if frame.shape != expected:
        raise DomainError(f"frame shape {frame.shape} does not match layout {expected}")
    tiles = _tiles(frame, layout)
    out = np.empty((layout.grid_rows * layout.grid_cols, layout.tile_h, layout.tile_w), dtype=frame.dtype)
    out.reshape(tiles.shape)[...] = tiles
    return out[: layout.channel_count]
