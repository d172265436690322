"""Lane-aware tap reading shared by every kernel run helper.

On a lane ring (``backend="batch"``, see :mod:`repro.core.lanes`) a
tap collects one sample stream per lane, so ``tap.samples`` holds *lists
of lanes*, not samples, and a kernel helper reading it directly would
break there alone.  :func:`tap_lane0` is the one idiom every recipe uses
instead — a scalar tap's samples, or lane 0 of a lane tap (a scalar host
stream broadcasts, so every lane computes the golden answer and lane 0
is the canonical one).
"""

from __future__ import annotations

from typing import List


def tap_lane0(tap) -> List[int]:
    """Raw sample stream of a tap, whatever engine recorded it.

    ``OutputTap`` stores scalar words; ``BatchOutputTap`` stores one
    word per lane and exposes ``lane()`` views — this helper collapses
    both to the scalar (lane 0) stream the golden references model.
    """
    if hasattr(tap, "lane"):
        return list(tap.lane(0))
    return list(tap.samples)
