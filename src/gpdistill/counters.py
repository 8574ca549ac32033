"""One in-package record of how often the costly steps ran.

COUNTS holds four counts, each incremented where its work happens:
- "eighs": eigendecompositions, in kernels.spectral_decompose;
- "curvature_factors": Choleskies of B = I + W^(1/2) K W^(1/2), in
  laplace.CurvatureFactor;
- "inverses": the L^-1 that forms a curvature factor's .half;
- "newton_iterations": Newton iterations summed over cells, in
  laplace.laplace_modes (one per cell per pass).

`counted()` reads the record as its increase over a block, so a test can check
a claim such as "one decomposition per run" without patching any module.
"""

from __future__ import annotations

from contextlib import contextmanager

KINDS = ("eighs", "curvature_factors", "inverses", "newton_iterations")
COUNTS = dict.fromkeys(KINDS, 0)


@contextmanager
def counted():
    """Yield a dict that holds, once the block ends, each count's increase over the block."""
    start = dict(COUNTS)
    deltas: dict[str, int] = {}
    try:
        yield deltas
    finally:
        deltas.update({kind: COUNTS[kind] - start[kind] for kind in KINDS})
