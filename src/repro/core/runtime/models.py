"""Input-dependent execution-time and energy prediction models.

Section 4.2: "We will specifically develop input-dependent models of
execution time and energy to select the best device to execute a
function.  The models will attempt to capture the correlation between
input/output size, input/output data shape ..., and data access pattern
in memory (model inputs) and execution time and power consumption (model
outputs) ... We intend to use an array of regression, SVM and PCA
techniques for this purpose."

Implemented here with numpy: ridge-regularized linear regression on
engineered input features, a PCA+ridge pipeline for correlated feature
sets, and a kNN fallback for small-sample regimes.  (SVM regression is
substituted by ridge -- for the monotone size->time relations these
workloads exhibit, both fit the same function class; DESIGN.md records
the substitution.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.runtime.history import ExecutionHistory

if TYPE_CHECKING:
    import numpy as np


def kernel_features(items: int, input_bytes: int = 0, output_bytes: int = 0) -> np.ndarray:
    """The engineered feature vector: size, data volumes, and the
    log/linear-log terms that capture cache-regime transitions."""
    import numpy as np

    if items < 1:
        raise ValueError("items must be positive")
    n = float(items)
    total_bytes = float(input_bytes + output_bytes)
    return np.array([n, n * math.log(n + 1.0), total_bytes, math.log(n + 1.0)])


class LinearModel:
    """Ridge-regularized least squares: y ~ w . phi(x) + b."""

    def __init__(self, alpha: float = 1e-6) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self._w: Optional[np.ndarray] = None

    @property
    def trained(self) -> bool:
        return self._w is not None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearModel":
        import numpy as np

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes {x.shape}, {y.shape}")
        if x.shape[0] < 2:
            raise ValueError("need at least two samples")
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        a = xb.T @ xb + self.alpha * np.eye(xb.shape[1])
        self._w = np.linalg.solve(a, xb.T @ y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        if self._w is None:
            raise RuntimeError("fit() before predict()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        return xb @ self._w

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(x)[0])


class PcaRegressor:
    """Standardize -> PCA(k) -> ridge.  Robust to correlated features."""

    def __init__(self, components: int = 2, alpha: float = 1e-6) -> None:
        if components < 1:
            raise ValueError("need at least one component")
        self.components = components
        self.alpha = alpha
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None
        self._basis: Optional[np.ndarray] = None
        self._ridge = LinearModel(alpha)

    @property
    def trained(self) -> bool:
        return self._basis is not None and self._ridge.trained

    def fit(self, x: np.ndarray, y: np.ndarray) -> "PcaRegressor":
        import numpy as np

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] < 2:
            raise ValueError(f"bad shapes {x.shape}, {y.shape}")
        self._mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        z = (x - self._mean) / self._scale
        k = min(self.components, x.shape[1], x.shape[0])
        _, _, vt = np.linalg.svd(z, full_matrices=False)
        self._basis = vt[:k].T
        self._ridge.fit(z @ self._basis, y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        if not self.trained:
            raise RuntimeError("fit() before predict()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = (x - self._mean) / self._scale
        return self._ridge.predict(z @ self._basis)

    def predict_one(self, x: np.ndarray) -> float:
        return float(self.predict(x)[0])


class KnnPredictor:
    """Distance-weighted k-nearest-neighbour regression (small-sample
    fallback while the parametric models are still cold)."""

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    @property
    def trained(self) -> bool:
        return self._x is not None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KnnPredictor":
        import numpy as np

        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] < 1:
            raise ValueError(f"bad shapes {x.shape}, {y.shape}")
        self._x, self._y = x, y
        return self

    def predict_one(self, x: np.ndarray) -> float:
        import numpy as np

        if self._x is None:
            raise RuntimeError("fit() before predict()")
        x = np.asarray(x, dtype=float)
        d = np.linalg.norm(self._x - x, axis=1)
        k = min(self.k, len(d))
        nearest = np.argsort(d)[:k]
        weights = 1.0 / (d[nearest] + 1e-9)
        return float((self._y[nearest] * weights).sum() / weights.sum())


class _LogModel:
    """Fits log(y): right for the multiplicative noise of real timings
    (cache effects, contention scale with the value, not add to it)."""

    def __init__(self, base) -> None:
        self._base = base

    def fit(self, x: np.ndarray, y: np.ndarray) -> "_LogModel":
        import numpy as np

        self._base.fit(x, np.log(np.maximum(y, 1e-9)))
        return self

    def predict_one(self, x: np.ndarray) -> float:
        import numpy as np

        return float(np.exp(self._base.predict_one(x)))


@dataclass
class _FunctionModels:
    latency: Dict[str, object]   # device -> model
    energy: Dict[str, object]
    samples: Dict[str, int]


class DeviceSelector:
    """Trains per-(function, device) models from the Execution History and
    answers the runtime's question: *where should this call run?*

    Below ``min_samples`` per device the selector abstains (returns
    ``None``) so the scheduler falls back to its analytic estimates --
    the 'training part' of the paper's three-phase plan.
    """

    def __init__(
        self, min_samples: int = 5, use_pca: bool = False, log_target: bool = True
    ) -> None:
        if min_samples < 2:
            raise ValueError("min_samples must be >= 2")
        self.min_samples = min_samples
        self.use_pca = use_pca
        self.log_target = log_target
        self._models: Dict[str, _FunctionModels] = {}

    def _make_model(self):
        base = PcaRegressor(components=2) if self.use_pca else LinearModel()
        return _LogModel(base) if self.log_target else base

    # ------------------------------------------------------------------
    def train(self, history: ExecutionHistory) -> int:
        """(Re)fit every (function, device) model; returns models trained."""
        import numpy as np

        trained = 0
        self._models.clear()
        for function in history.functions():
            fm = _FunctionModels(latency={}, energy={}, samples={})
            for device in ("sw", "hw"):
                recs = history.records(function, device)
                fm.samples[device] = len(recs)
                if len(recs) < self.min_samples:
                    continue
                x = np.array([kernel_features(r.items) for r in recs])
                lat = np.array([r.latency_ns for r in recs])
                en = np.array([r.energy_pj for r in recs])
                fm.latency[device] = self._make_model().fit(x, lat)
                fm.energy[device] = self._make_model().fit(x, en)
                trained += 2
            self._models[function] = fm
        return trained

    def predict_latency(self, function: str, device: str, items: int) -> Optional[float]:
        fm = self._models.get(function)
        if fm is None or device not in fm.latency:
            return None
        value = fm.latency[device].predict_one(kernel_features(items))
        return max(0.0, value)

    def predict_energy(self, function: str, device: str, items: int) -> Optional[float]:
        fm = self._models.get(function)
        if fm is None or device not in fm.energy:
            return None
        return max(0.0, fm.energy[device].predict_one(kernel_features(items)))

    def choose_device(
        self, function: str, items: int, energy_weight: float = 0.0
    ) -> Optional[str]:
        """'sw' or 'hw' by predicted cost; ``None`` when under-trained.

        ``energy_weight`` in [0, 1] blends normalized energy into the
        score (0 = pure latency, 1 = pure energy).
        """
        if not 0.0 <= energy_weight <= 1.0:
            raise ValueError("energy_weight must be in [0, 1]")
        scores = {}
        for device in ("sw", "hw"):
            lat = self.predict_latency(function, device, items)
            if lat is None:
                continue
            score = lat
            if energy_weight > 0:
                en = self.predict_energy(function, device, items)
                if en is not None:
                    score = (1 - energy_weight) * lat + energy_weight * en
            scores[device] = score
        if len(scores) < 2:
            return None
        return min(scores, key=scores.get)

    def sample_counts(self, function: str) -> Dict[str, int]:
        fm = self._models.get(function)
        return dict(fm.samples) if fm else {"sw": 0, "hw": 0}
