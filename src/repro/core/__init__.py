"""Pivot: privacy-preserving vertical federated tree training/prediction.

The paper's primary contribution (§4-§7, §9): basic and enhanced training
protocols, distributed prediction, RF/GBDT extensions, vertical logistic
regression, differential privacy, leakage attacks, and the malicious-model
hardening.

The implementation classes (:class:`TreeTrainer`, :class:`ForestTrainer`,
:class:`GBDTTrainer`, :class:`LogisticTrainer`,
:class:`MaliciousTreeTrainer`, ``run_predict_batch*``) run over a
:class:`repro.federation.Federation` — the one object holding a run's
keys, engine, bus, clients and accounting — and are driven by the
federation's estimators (:mod:`repro.federation.estimators`).
"""

from repro.core.config import DPConfig, PivotConfig
from repro.core.ensemble import ForestTrainer, GBDTTrainer
from repro.core.leakage import (
    AttackResult,
    feature_inference_attack,
    label_inference_attack,
)
from repro.core.logistic import LogisticTrainer
from repro.core.malicious import CheatingClient, MaliciousTreeTrainer
from repro.core.prediction import (
    enhanced_prediction_shares,
    run_predict_batch,
    run_predict_batch_slices,
)
from repro.core.trainer import TreeTrainer

__all__ = [
    "AttackResult",
    "CheatingClient",
    "DPConfig",
    "ForestTrainer",
    "GBDTTrainer",
    "LogisticTrainer",
    "MaliciousTreeTrainer",
    "PivotConfig",
    "TreeTrainer",
    "enhanced_prediction_shares",
    "feature_inference_attack",
    "label_inference_attack",
    "run_predict_batch",
    "run_predict_batch_slices",
]
