import numpy as np
import pytest

from repro.data import make_classification, make_regression
from repro.tree import DecisionTree, TreeParams
from repro.tree.serialize import (
    dump_model,
    load_model,
    model_from_dict,
    model_to_dict,
)


@pytest.fixture(scope="module")
def model():
    X, y = make_classification(80, 5, n_classes=3, seed=44)
    return DecisionTree("classification", TreeParams(max_depth=3)).fit(X, y)


def test_dict_roundtrip(model):
    restored = model_from_dict(model_to_dict(model))
    assert restored.structure_signature() == model.structure_signature()
    assert restored.task == model.task
    assert restored.n_classes == model.n_classes


def test_file_roundtrip(tmp_path, model):
    path = tmp_path / "model.json"
    dump_model(model, str(path))
    restored = load_model(str(path))
    X, _ = make_classification(20, 5, n_classes=3, seed=45)
    assert np.array_equal(restored.predict(X), model.predict(X))


def test_regression_roundtrip(tmp_path):
    X, y = make_regression(60, 4, seed=46)
    model = DecisionTree("regression", TreeParams(max_depth=2)).fit(X, y)
    path = tmp_path / "reg.json"
    dump_model(model, str(path))
    restored = load_model(str(path))
    assert np.allclose(restored.predict(X[:10]), model.predict(X[:10]))


def test_federated_model_roundtrip(tmp_path):
    """Pivot basic-protocol models (owner + local + global feature ids)
    survive serialization and still predict through global columns."""
    from repro.core import PivotConfig, TreeTrainer
    from repro.data import vertical_partition
    from repro.federation import Federation

    X, y = make_classification(24, 4, n_classes=2, seed=47)
    vp = vertical_partition(X, y, 3, task="classification")
    ctx = Federation.from_partition(
        vp, PivotConfig(keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=8)
    )
    model = TreeTrainer(ctx).fit()
    path = tmp_path / "pivot.json"
    dump_model(model, str(path))
    restored = load_model(str(path))
    assert np.array_equal(restored.predict(X[:8]), model.predict(X[:8]))
    assert [n.owner for n in restored.internal_nodes()] == [
        n.owner for n in model.internal_nodes()
    ]


def test_enhanced_model_rejected(tmp_path):
    from repro.core import PivotConfig, TreeTrainer
    from repro.data import vertical_partition
    from repro.federation import Federation

    X, y = make_classification(20, 4, n_classes=2, seed=48)
    vp = vertical_partition(X, y, 3, task="classification")
    ctx = Federation.from_partition(
        vp,
        PivotConfig(
            keysize=512,
            tree=TreeParams(max_depth=1, max_splits=2),
            protocol="enhanced",
            seed=9,
        ),
    )
    model = TreeTrainer(ctx).fit()
    with pytest.raises(ValueError):
        model_to_dict(model)


def test_unsupported_format_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"format": 99})
