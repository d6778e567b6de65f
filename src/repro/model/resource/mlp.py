"""A small numpy multi-layer perceptron for resource prediction, and the
estimator it backs.

The paper's component-level model is a 3-layer MLP (Section V-D).  Ours has
two hidden layers + linear output, trained with Adam on standardized
features and log-scaled LUT/FF targets (resource costs span four orders of
magnitude).  BRAM/DSP are small counts and train on raw scale.

:class:`MlEstimator` is the paper's flow: per-family MLPs trained on the
synthetic OOC-synthesis dataset predict PE/switch/port costs, while
components with few parameters (engines, core, L2, NoC) use exhaustive
(analytic) tables, exactly as Section III-A describes.  Only this module
and :mod:`.dataset` import numpy, and ``repro.model.resource`` imports
neither: the pipeline never loads numpy; the report loads it for Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...adg import (
    ADG,
    AdgNode,
    InputPortHW,
    OutputPortHW,
    ProcessingElement,
    Switch,
)
from .analytic import node_resources
from .dataset import (
    ComponentDataset,
    generate_all,
    in_port_features,
    out_port_features,
    pe_features,
    switch_features,
)
from .device import Resources
from .predictor import AnalyticEstimator, _key


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass
class MlpConfig:
    hidden: Tuple[int, int] = (48, 48)
    learning_rate: float = 1e-3
    epochs: int = 60
    batch_size: int = 256
    seed: int = 0


class ResourceMlp:
    """MLP mapping component features -> (lut, ff, bram, dsp)."""

    def __init__(self, n_features: int, config: Optional[MlpConfig] = None):
        self.config = config or MlpConfig()
        rng = np.random.default_rng(self.config.seed)
        h1, h2 = self.config.hidden
        scale = lambda fan_in: np.sqrt(2.0 / fan_in)
        self.w1 = rng.normal(0, scale(n_features), (n_features, h1))
        self.b1 = np.zeros(h1)
        self.w2 = rng.normal(0, scale(h1), (h1, h2))
        self.b2 = np.zeros(h2)
        self.w3 = rng.normal(0, scale(h2), (h2, 4))
        self.b3 = np.zeros(4)
        # Feature / target standardization (fit at train time).
        self.x_mean = np.zeros(n_features)
        self.x_std = np.ones(n_features)
        self.y_mean = np.zeros(4)
        self.y_std = np.ones(4)
        self._adam_state: Optional[List] = None

    # ------------------------------------------------------------------
    def _encode_targets(self, labels: np.ndarray) -> np.ndarray:
        # Resource costs span four orders of magnitude; log-scale them all.
        return np.log1p(labels)

    def _decode_targets(self, y: np.ndarray) -> np.ndarray:
        return np.maximum(np.expm1(y), 0.0)

    def _forward(self, x: np.ndarray):
        z1 = x @ self.w1 + self.b1
        a1 = _relu(z1)
        z2 = a1 @ self.w2 + self.b2
        a2 = _relu(z2)
        out = a2 @ self.w3 + self.b3
        return z1, a1, z2, a2, out

    # ------------------------------------------------------------------
    def fit(self, data: ComponentDataset) -> float:
        """Train on ``data``; returns the final epoch's mean loss."""
        cfg = self.config
        x = data.features
        y = self._encode_targets(data.labels)
        self.x_mean = x.mean(axis=0)
        self.x_std = np.where(x.std(axis=0) > 1e-9, x.std(axis=0), 1.0)
        self.y_mean = y.mean(axis=0)
        self.y_std = np.where(y.std(axis=0) > 1e-9, y.std(axis=0), 1.0)
        xn = (x - self.x_mean) / self.x_std
        yn = (y - self.y_mean) / self.y_std

        params = [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        rng = np.random.default_rng(cfg.seed + 1)
        n = len(xn)
        final_loss = float("inf")
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                xb, yb = xn[idx], yn[idx]
                z1, a1, z2, a2, out = self._forward(xb)
                err = out - yb
                losses.append(float(np.mean(err**2)))
                bsz = len(xb)
                d_out = 2.0 * err / (bsz * 4)
                g_w3 = a2.T @ d_out
                g_b3 = d_out.sum(axis=0)
                d_a2 = d_out @ self.w3.T
                d_z2 = d_a2 * (z2 > 0)
                g_w2 = a1.T @ d_z2
                g_b2 = d_z2.sum(axis=0)
                d_a1 = d_z2 @ self.w2.T
                d_z1 = d_a1 * (z1 > 0)
                g_w1 = xb.T @ d_z1
                g_b1 = d_z1.sum(axis=0)
                grads = [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3]
                step += 1
                for p, g, mi, vi in zip(params, grads, m, v):
                    mi *= beta1
                    mi += (1 - beta1) * g
                    vi *= beta2
                    vi += (1 - beta2) * g * g
                    m_hat = mi / (1 - beta1**step)
                    v_hat = vi / (1 - beta2**step)
                    p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            final_loss = float(np.mean(losses))
        return final_loss

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict (n, 4) resource labels for an (n, d) feature matrix."""
        features = np.atleast_2d(features)
        xn = (features - self.x_mean) / self.x_std
        out = self._forward(xn)[-1]
        return self._decode_targets(out * self.y_std + self.y_mean)

    # ------------------------------------------------------------------
    def evaluate(self, data: ComponentDataset) -> dict:
        """Mean absolute percentage error per resource class on ``data``."""
        pred = self.predict(data.features)
        truth = data.labels
        out = {}
        for idx, name in enumerate(("lut", "ff", "bram", "dsp")):
            mask = truth[:, idx] > 1.0
            if not mask.any():
                out[name] = 0.0
                continue
            ape = np.abs(pred[mask, idx] - truth[mask, idx]) / truth[mask, idx]
            out[name] = float(np.mean(ape))
        return out


class MlEstimator(AnalyticEstimator):
    """ML-backed estimator for high-dimensional components.

    PE/switch/port costs come from per-family MLPs (trained once at
    construction); other components fall through to the analytic tables.
    """

    name = "ml"

    def __init__(
        self,
        dataset_scale: float = 0.02,
        config: Optional[MlpConfig] = None,
        seed: int = 0,
    ):
        super().__init__()
        datasets = generate_all(scale=dataset_scale, seed=seed)
        self.models: Dict[str, ResourceMlp] = {}
        self.training_error: Dict[str, dict] = {}
        for family, data in datasets.items():
            train, test, _val = data.split()
            mlp = ResourceMlp(data.features.shape[1], config)
            mlp.fit(train)
            self.models[family] = mlp
            self.training_error[family] = mlp.evaluate(test)

    def node(self, adg: ADG, node: AdgNode) -> Resources:
        feats, family = self._featurize(*_key(adg, node))
        if family is None:
            return node_resources(adg, node)
        return Resources(*map(float, self.models[family].predict(feats)[0]))

    def _featurize(self, node: AdgNode, n_in: int, n_out: int):
        if isinstance(node, ProcessingElement):
            return pe_features(node), "pe"
        if isinstance(node, Switch):
            return switch_features(node, n_in, n_out), "switch"
        if isinstance(node, InputPortHW):
            return in_port_features(node, max(1, n_in)), "in_port"
        if isinstance(node, OutputPortHW):
            return out_port_features(node, max(1, n_out)), "out_port"
        return None, None
