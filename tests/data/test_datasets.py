import numpy as np

from repro.data import (
    PAPER_DATASETS,
    load_appliances_energy,
    load_bank_marketing,
    load_credit_card,
)


def test_registry_covers_table3():
    assert set(PAPER_DATASETS) == {
        "bank_marketing",
        "credit_card",
        "appliances_energy",
    }


def test_credit_card_shape_and_balance():
    ds = load_credit_card(5000)
    assert ds.features.shape == (5000, 23)
    assert ds.task == "classification"
    assert 0.15 < ds.labels.mean() < 0.33  # the real dataset is ~22% positive


def test_bank_marketing_shape_and_balance():
    ds = load_bank_marketing()
    assert ds.features.shape == (4521, 16)
    assert 0.06 < ds.labels.mean() < 0.18  # real data ~11.5% positive


def test_appliances_energy_shape():
    ds = load_appliances_energy(3000)
    assert ds.features.shape[0] == 3000
    assert ds.task == "regression"
    assert ds.labels.min() >= 0


def test_feature_names_match_columns():
    for loader in PAPER_DATASETS.values():
        ds = loader(200)
        assert len(ds.feature_names) == ds.n_features


def test_reproducible():
    a, b = load_bank_marketing(300), load_bank_marketing(300)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_subsample():
    ds = load_credit_card(1000)
    small = ds.subsample(100, seed=1)
    assert small.n_samples == 100
    assert ds.subsample(5000) is ds  # no-op when larger than dataset


def test_train_test_split():
    ds = load_bank_marketing(500)
    train, test = ds.train_test_split(0.2, seed=0)
    assert train.n_samples == 400 and test.n_samples == 100
    merged = np.vstack([train.features, test.features])
    assert merged.shape[0] == 500


def test_labels_have_learnable_signal():
    """A depth-3 tree must beat the majority class on credit card data."""
    from repro.tree import DecisionTree, TreeParams
    from repro.tree.metrics import accuracy

    ds = load_credit_card(3000)
    train, test = ds.train_test_split(0.3, seed=2)
    model = DecisionTree("classification", TreeParams(max_depth=3)).fit(
        train.features, train.labels
    )
    majority = max(test.labels.mean(), 1 - test.labels.mean())
    assert accuracy(model.predict(test.features), test.labels) >= majority - 0.02
