"""Feature matrices carried between extraction, fusion, and the classifiers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FeatureMatrix:
    """Dense M x D matrix with one label per row."""

    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]
