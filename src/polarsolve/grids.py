"""Discretized state space over [0, 1] with an exactly representable midpoint.

The majority rule is discontinuous at 1/2, so every solver grid must hit
1/2 exactly, and mirror-symmetry checks need 1 - points[i] to equal
points[n-1-i] bit for bit. Plain linspace guarantees neither; here each
point is quantized to a multiple of 2^-52, which makes the midpoint, the
mirror identity, and all pairwise displacements exact in IEEE doubles
while keeping the spacing uniform to well under 1e-15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SCALE = 2**52


@dataclass(frozen=True)
class Grid:
    points: np.ndarray
    n: int
    step: float

    @property
    def mid(self) -> int:
        """Index of the exact 1/2 point."""
        return (self.n - 1) // 2


def mirror_closed(grid: Grid) -> bool:
    """Whether 1 - points[i] equals points[n-1-i] bit for bit at every i, as build_grid makes it."""
    return bool(np.array_equal(1.0 - grid.points, grid.points[::-1]))


def build_grid(n: int) -> Grid:
    """Uniform n-point grid on [0, 1]; n must be odd and at least 3."""
    if int(n) != n:
        raise ValueError(f"grid size must be an integer, got {n!r}")
    n = int(n)
    if n < 3:
        raise ValueError(f"grid size must be at least 3, got {n}")
    if n % 2 == 0:
        raise ValueError(f"grid size must be odd so 1/2 is a point, got {n}")
    m = (n - 1) // 2
    # Exact integer rounding of i/(n-1) to multiples of 2^-52, then the
    # upper half mirrored so 1 - points[i] == points[n-1-i] exactly.
    left = np.array(
        [(2 * i * _SCALE + (n - 1)) // (2 * (n - 1)) for i in range(m + 1)],
        dtype=float,
    )
    points = np.empty(n)
    points[: m + 1] = left * 2.0**-52
    points[m + 1 :] = (float(_SCALE) - left[:m][::-1]) * 2.0**-52
    points.setflags(write=False)
    return Grid(points=points, n=n, step=1.0 / (n - 1))

