"""Anchor-free tracking-by-detection toolkit.

Everything needed to exercise a center-heatmap tracker without a trained
backbone: ground-truth target encoding, reference losses with analytic
gradients, heatmap decoding, an online re-ID/Kalman/Hungarian tracker,
CLEAR/IDF1 evaluation, and a deterministic sequence simulator.
"""

__version__ = "0.1.0"

from .geometry import BBox, GridSpec
from .metrics import MetricsReport, evaluate_tracking
from .sim import SimConfig, generate
from .tensors import read_tensor
from .tracker import OnlineTracker, TrackerConfig, track_sequence

__all__ = [
    "BBox",
    "GridSpec",
    "read_tensor",
    "MetricsReport",
    "evaluate_tracking",
    "SimConfig",
    "generate",
    "OnlineTracker",
    "TrackerConfig",
    "track_sequence",
    "__version__",
]
