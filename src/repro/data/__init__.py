"""Dataset substrates: synthetic generators, simulated paper datasets, and
vertical partitioning (paper §8.1)."""

from repro.data.datasets import (
    PAPER_DATASETS,
    Dataset,
    load_appliances_energy,
    load_bank_marketing,
    load_credit_card,
)
from repro.data.partition import VerticalPartition, vertical_partition
from repro.data.synthetic import make_classification, make_regression

__all__ = [
    "Dataset",
    "PAPER_DATASETS",
    "VerticalPartition",
    "load_appliances_energy",
    "load_bank_marketing",
    "load_credit_card",
    "make_classification",
    "make_regression",
    "vertical_partition",
]
