"""The segmentation DP on degenerate input."""

import numpy as np

from tokmerge.temporal import RedundancyMask, optimal_segmentation


def test_python_kernel_handles_degenerate_inputs():
    mask = RedundancyMask.from_bool(np.zeros((0, 5), dtype=bool), n_tokens=5)
    plan = optimal_segmentation(mask)
    assert plan.dp[2] == 0 and plan.prev[2] == 1
