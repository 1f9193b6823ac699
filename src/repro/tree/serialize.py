"""Serialization of released tree models (§3.3: the output of F_DTT).

The basic protocol's output is a plaintext model every client stores; this
module gives it a stable JSON representation so a released model can be
persisted, exchanged, and later fed to the prediction protocols.

Enhanced-protocol models are *not* serialisable here by design: their
thresholds and leaf labels exist only as live secret shares bound to a
protocol context's MPC engine (the whole point of §5.2); attempting to
dump one raises.
"""

from __future__ import annotations

import json

from repro.tree.model import DecisionTreeModel, TreeNode

__all__ = ["model_to_dict", "model_from_dict", "dump_model", "load_model"]

_FORMAT_VERSION = 1


def _node_to_dict(node: TreeNode) -> dict:
    if node.hidden:
        raise ValueError(
            "model carries hidden (secret-shared) payloads; enhanced "
            "models cannot be serialised in plaintext"
        )
    if node.is_leaf:
        return {
            "leaf": True,
            "depth": node.depth,
            "prediction": node.prediction,
            "n_samples": node.n_samples,
        }
    return {
        "leaf": False,
        "depth": node.depth,
        "owner": node.owner,
        "feature": node.feature,
        "global_feature": node.global_feature,
        "threshold": node.threshold,
        "n_samples": node.n_samples,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(data: dict) -> TreeNode:
    if data["leaf"]:
        return TreeNode(
            is_leaf=True,
            depth=data["depth"],
            prediction=data["prediction"],
            n_samples=data.get("n_samples"),
        )
    return TreeNode(
        is_leaf=False,
        depth=data["depth"],
        owner=data.get("owner", -1),
        feature=data["feature"],
        global_feature=data.get("global_feature"),
        threshold=data["threshold"],
        n_samples=data.get("n_samples"),
        left=_node_from_dict(data["left"]),
        right=_node_from_dict(data["right"]),
    )


def model_to_dict(model: DecisionTreeModel) -> dict:
    return {
        "format": _FORMAT_VERSION,
        "task": model.task,
        "n_classes": model.n_classes,
        "root": _node_to_dict(model.root),
    }


def model_from_dict(data: dict) -> DecisionTreeModel:
    if data.get("format") != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format {data.get('format')!r}")
    return DecisionTreeModel(
        _node_from_dict(data["root"]), data["task"], data["n_classes"]
    )


def dump_model(model: DecisionTreeModel, path: str) -> None:
    """Write a released (plaintext) model to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2)


def load_model(path: str) -> DecisionTreeModel:
    """Load a model previously written by :func:`dump_model`."""
    with open(path, encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
