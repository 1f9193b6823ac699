"""Simulated stand-ins for the paper's three real datasets (§8.1).

The paper evaluates accuracy on three UCI datasets:

* **credit card** default-of-credit-card-clients, 30000 × 25 (classification),
* **bank marketing**, 4521 × 17 (classification),
* **appliances energy** prediction, 19735 × 29 (regression).

No network access is available in this environment, so each loader
*simulates* its dataset: same shape, same feature-type mix, comparable
class balance, and a latent-factor label process that gives tree models a
realistic amount of signal.  The reproduction claim for
Table 3 is about the *gap* between Pivot and the non-private baselines on
identical data, which the simulation preserves: both sides consume exactly
the same arrays.
"""

from __future__ import annotations

# pivotlint: disable-file=PL001 -- Dataset is the centralized pre-federation
# container (loader output): the party boundary does not exist until
# VerticalPartition splits its columns, so there is no owner scope to hold.

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "load_credit_card",
    "load_bank_marketing",
    "load_appliances_energy",
    "PAPER_DATASETS",
]


@dataclass(frozen=True)
class Dataset:
    """A named supervised-learning dataset."""

    name: str
    features: np.ndarray
    labels: np.ndarray
    task: str  # "classification" | "regression"
    feature_names: tuple[str, ...]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subsample(self, n_samples: int, seed: int | None = None) -> "Dataset":
        """A random subset (used to keep secure-protocol benches tractable)."""
        if n_samples >= self.n_samples:
            return self
        rng = np.random.default_rng(seed)
        index = rng.choice(self.n_samples, size=n_samples, replace=False)
        return Dataset(
            self.name,
            self.features[index],
            self.labels[index],
            self.task,
            self.feature_names,
        )

    def train_test_split(
        self, test_fraction: float = 0.2, seed: int | None = None
    ) -> tuple["Dataset", "Dataset"]:
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.n_samples)
        n_test = int(self.n_samples * test_fraction)
        test_idx, train_idx = order[:n_test], order[n_test:]
        make = lambda idx, tag: Dataset(  # noqa: E731 - local helper
            f"{self.name}-{tag}",
            self.features[idx],
            self.labels[idx],
            self.task,
            self.feature_names,
        )
        return make(train_idx, "train"), make(test_idx, "test")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def load_credit_card(n_samples: int = 30000, seed: int = 7) -> Dataset:
    """Simulated credit-card default data (UCI 30000 × 23 features + label).

    Latent "financial stress" drives repayment-status features, bill/payment
    amounts, and the default label (~22% positive, as in the real data).
    """
    rng = np.random.default_rng(seed)
    stress = rng.normal(size=n_samples)  # latent risk factor

    limit_bal = np.exp(rng.normal(11.5, 0.8, n_samples) - 0.3 * stress)
    sex = rng.integers(1, 3, n_samples).astype(float)
    education = rng.integers(1, 5, n_samples).astype(float)
    marriage = rng.integers(1, 4, n_samples).astype(float)
    age = rng.normal(35, 9, n_samples).clip(21, 75)

    pay_status = []
    for month in range(6):
        drift = 0.9 * stress + rng.normal(scale=0.6, size=n_samples)
        pay_status.append(np.round(drift).clip(-2, 8))
    bill_amt = [
        limit_bal * _sigmoid(0.5 * stress + rng.normal(scale=0.7, size=n_samples))
        for _ in range(6)
    ]
    pay_amt = [
        bill / (1.5 + np.exp(0.8 * stress + rng.normal(scale=0.5, size=n_samples)))
        for bill in bill_amt
    ]

    logit = (
        -1.35
        + 1.1 * stress
        + 0.35 * pay_status[0]
        + 0.2 * pay_status[1]
        - 0.3 * np.log1p(limit_bal) / 10
        + 0.15 * (education - 2)
    )
    labels = (rng.uniform(size=n_samples) < _sigmoid(logit)).astype(np.int64)

    columns = (
        [limit_bal, sex, education, marriage, age]
        + pay_status
        + bill_amt
        + pay_amt
    )
    names = (
        ["limit_bal", "sex", "education", "marriage", "age"]
        + [f"pay_{i}" for i in range(6)]
        + [f"bill_amt{i + 1}" for i in range(6)]
        + [f"pay_amt{i + 1}" for i in range(6)]
    )
    features = np.column_stack(columns)
    return Dataset("credit_card", features, labels, "classification", tuple(names))


def load_bank_marketing(n_samples: int = 4521, seed: int = 11) -> Dataset:
    """Simulated bank-marketing data (UCI 4521 × 16 features + label).

    Mixed numeric/ordinal features; term-deposit subscription label with the
    real data's ~11.5% positive rate, driven mainly by call duration and
    previous-campaign outcome (the dominant signals in the real dataset).
    """
    rng = np.random.default_rng(seed)
    age = rng.normal(41, 11, n_samples).clip(18, 95)
    job = rng.integers(0, 12, n_samples).astype(float)
    marital = rng.integers(0, 3, n_samples).astype(float)
    education = rng.integers(0, 4, n_samples).astype(float)
    default = (rng.uniform(size=n_samples) < 0.018).astype(float)
    balance = rng.normal(1400, 3000, n_samples)
    housing = (rng.uniform(size=n_samples) < 0.56).astype(float)
    loan = (rng.uniform(size=n_samples) < 0.16).astype(float)
    contact = rng.integers(0, 3, n_samples).astype(float)
    day = rng.integers(1, 32, n_samples).astype(float)
    month = rng.integers(1, 13, n_samples).astype(float)
    duration = np.exp(rng.normal(5.2, 0.9, n_samples))  # seconds, log-normal
    campaign = rng.geometric(0.35, n_samples).clip(1, 50).astype(float)
    pdays = np.where(rng.uniform(size=n_samples) < 0.75, -1.0, rng.integers(1, 400, n_samples))
    previous = np.where(pdays < 0, 0.0, rng.geometric(0.4, n_samples)).astype(float)
    poutcome = np.where(previous > 0, rng.integers(1, 4, n_samples), 0.0).astype(float)

    logit = (
        -2.75
        + 1.1 * (np.log(duration) - 5.2)
        + 0.9 * (poutcome == 3)
        + 0.3 * (balance > 1500)
        - 0.25 * loan
        - 0.2 * housing
        + 0.15 * (contact == 0)
    )
    labels = (rng.uniform(size=n_samples) < _sigmoid(logit)).astype(np.int64)

    features = np.column_stack(
        [
            age, job, marital, education, default, balance, housing, loan,
            contact, day, month, duration, campaign, pdays, previous, poutcome,
        ]
    )
    names = (
        "age", "job", "marital", "education", "default", "balance", "housing",
        "loan", "contact", "day", "month", "duration", "campaign", "pdays",
        "previous", "poutcome",
    )
    return Dataset("bank_marketing", features, labels, "classification", names)


def load_appliances_energy(n_samples: int = 19735, seed: int = 13) -> Dataset:
    """Simulated appliances-energy data (UCI 19735 × 28 features, regression).

    Indoor temperature/humidity sensor pairs plus weather covariates drive
    an appliance energy-use target with diurnal structure, mimicking the
    real dataset's sensor layout (T1..T9, RH_1..RH_9, weather).
    """
    rng = np.random.default_rng(seed)
    hour = rng.uniform(0, 24, n_samples)
    occupancy = _sigmoid(np.sin((hour - 8) / 24 * 2 * np.pi) * 2 + rng.normal(scale=0.5, size=n_samples))
    outdoor_t = 6 + 8 * np.sin((hour - 14) / 24 * 2 * np.pi) + rng.normal(scale=2.5, size=n_samples)

    temps, hums = [], []
    for room in range(9):
        base = 20 + 0.3 * room
        temps.append(base + 0.35 * outdoor_t / 6 + 1.5 * occupancy + rng.normal(scale=0.8, size=n_samples))
        hums.append(40 + 5 * occupancy - 0.4 * outdoor_t + rng.normal(scale=3.0, size=n_samples))

    press = rng.normal(755, 5, n_samples)
    wind = rng.gamma(2.0, 2.0, n_samples)
    visibility = rng.normal(38, 11, n_samples).clip(1, 66)
    tdewpoint = outdoor_t - rng.gamma(2.0, 1.5, n_samples)
    rv1 = rng.uniform(0, 50, n_samples)
    rv2 = rv1.copy()  # the real dataset duplicates this random column
    lights = (rng.uniform(size=n_samples) < 0.23) * rng.integers(10, 70, n_samples)

    target = (
        60
        + 180 * occupancy
        + 12 * (temps[1] - 20)
        - 1.8 * (np.stack(hums).mean(axis=0) - 40)
        + 0.8 * lights
        + rng.normal(scale=25, size=n_samples)
    ).clip(10, 1080)

    columns = [lights.astype(float)]
    names = ["lights"]
    for i in range(9):
        columns += [temps[i], hums[i]]
        names += [f"T{i + 1}", f"RH_{i + 1}"]
    columns += [outdoor_t, press, wind, visibility, tdewpoint, rv1, rv2, hour]
    names += ["T_out", "press", "windspeed", "visibility", "tdewpoint", "rv1", "rv2", "hour"]

    features = np.column_stack(columns)
    return Dataset(
        "appliances_energy", features, target.astype(np.float64), "regression",
        tuple(names),
    )


#: name -> loader, in the order Table 3 reports them.
PAPER_DATASETS = {
    "bank_marketing": load_bank_marketing,
    "credit_card": load_credit_card,
    "appliances_energy": load_appliances_energy,
}
