"""Linear motion model and time-axis partitioning.

Objects report a position and velocity at an update time and are assumed
to move linearly until their next update.  The time axis is cut into a
grid of label timestamps; every update is indexed as of the nearest later
label, and the label's cyclic partition number becomes the high-order
component of the index key.  :meth:`pebtree.store.MovingObjectIndex.key_for`
computes both, with the position at the label, in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class MovingObject:
    """A user's last reported motion state.

    Position ``(x, y)`` and velocity ``(vx, vy)`` hold as of the update
    time ``t_u``; the object is assumed to move linearly afterwards.
    """

    uid: int
    x: float
    y: float
    vx: float
    vy: float
    t_u: float


@dataclass(frozen=True)
class TimePartitionConfig:
    """Partitioning of the time axis into label timestamps.

    ``delta_t_mu`` is the maximum update interval: every object must
    re-report within that long.  The label grid step is
    ``delta_t_mu / n`` and there are ``n + 1`` distinct partitions, which
    is exactly enough for all labels that can hold live entries at once.
    A label is a whole number of steps, and its partition comes from that
    count, so a step that is not integral in floating point works too.
    """

    delta_t_mu: float = 120.0
    n: int = 2

    def __post_init__(self) -> None:
        # a NaN fails every comparison, so this refuses it with the infinities
        if not 0 < self.delta_t_mu < math.inf:
            raise ValueError(f"delta_t_mu is {self.delta_t_mu!r}, not a positive finite number")
        if self.n < 1:
            raise ValueError("n must be a positive integer")

    @property
    def grid_step(self) -> float:
        return self.delta_t_mu / self.n

    @property
    def num_partitions(self) -> int:
        return self.n + 1

