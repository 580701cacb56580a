"""Synthetic test images shared by several test modules.

They live here rather than in conftest.py because `from conftest import`
resolves to whichever conftest module pytest loaded last, and the suite
collects perfbench/tests, which has its own conftest, alongside tests/.
"""

import numpy as np


def make_rgb(width, height, rng, constant=None):
    """Random (or constant) RGB frame in [0, 1]."""
    from hhmon import frameio

    if constant is not None:
        return frameio.Frame(np.full((height, width, 3), constant, dtype=np.float32))
    return frameio.Frame(rng.random((height, width, 3)).astype(np.float32))


def smooth_texture(rng, h=64, w=64, passes=4):
    """Band-limited random texture in [0, 1]; periodic, so np.roll shifts are exact."""
    img = rng.random((h, w))
    for _ in range(passes):
        img = sum(np.roll(np.roll(img, dy, 0), dx, 1)
                  for dy in (-1, 0, 1) for dx in (-1, 0, 1)) / 9.0
    img -= img.min()
    img /= img.max()
    return img.astype(np.float32)
