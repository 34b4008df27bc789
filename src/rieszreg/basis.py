"""Feature dictionaries (sieve bases) over named columns.

A Basis is an ordered list of monomial features: products of integer powers
of columns, with the intercept always first. The same bases back both the
Riesz sieves and the nuisance regressions, which is what makes the empirical
orthogonality identities between them exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .data import Dataset, as_columns
from .errors import SchemaError


@dataclass(frozen=True)
class Feature:
    """Product of column powers; the empty product is the intercept."""

    columns: tuple[str, ...]
    powers: tuple[int, ...]

    def __post_init__(self):
        order = np.argsort(self.columns)
        object.__setattr__(self, "columns", tuple(self.columns[i] for i in order))
        object.__setattr__(self, "powers", tuple(self.powers[i] for i in order))

    @property
    def label(self) -> str:
        if not self.columns:
            return "1"
        return "*".join(
            c if p == 1 else f"{c}^{p}" for c, p in zip(self.columns, self.powers)
        )

    def evaluate(self, cols: Mapping[str, np.ndarray], n: int) -> np.ndarray:
        out = np.ones(n)
        for name, power in zip(self.columns, self.powers):
            col = cols[name]
            out = out * (col if power == 1 else col ** power)
        return out


INTERCEPT = Feature((), ())


@dataclass(frozen=True)
class Basis:
    features: tuple[Feature, ...]

    def __post_init__(self):
        if INTERCEPT not in self.features:
            raise SchemaError("a basis must contain the intercept feature")
        if len(set(self.features)) != len(self.features):
            raise SchemaError("basis contains duplicate features")

    @property
    def dim(self) -> int:
        return len(self.features)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f.label for f in self.features)

    def design(self, data) -> np.ndarray:
        """Evaluate all features; returns an (n, dim) float64 matrix."""
        cols, n = as_columns(data)
        out = np.empty((n, self.dim))
        for j, feat in enumerate(self.features):
            out[:, j] = feat.evaluate(cols, n)
        return out


def intercept_basis() -> Basis:
    return Basis((INTERCEPT,))


def saturated_basis(columns: Iterable[str], dataset: Dataset) -> Basis:
    """Tensor-product basis over binary columns: intercept, mains, and all
    cross-products, spanning every function on the joint support."""
    columns = tuple(columns)
    for name in columns:
        if dataset.column_def(name).support != "binary":
            raise SchemaError(
                f"saturated basis requires binary columns; {name!r} is not binary")
    features = [INTERCEPT]
    for mask in range(1, 2 ** len(columns)):
        chosen = tuple(c for i, c in enumerate(columns) if mask >> i & 1)
        features.append(Feature(chosen, (1,) * len(chosen)))
    return Basis(tuple(dict.fromkeys(features)))


def default_basis(columns: Iterable[str], dataset: Dataset, degree: int = 2) -> Basis:
    """House basis: intercept, raw columns, pairwise interactions and
    polynomial powers (up to ``degree``, real columns only) of non-treatment
    columns, each also crossed with the treatment indicator when one is in
    scope. Treatment must enter the basis for difference-style maps to act
    nontrivially on its span."""
    columns = tuple(columns)
    if degree < 1:
        raise SchemaError("basis degree must be >= 1")
    treatment = [c for c in columns if dataset.column_def(c).role == "treatment"]
    treat = treatment[0] if treatment else None
    others = [c for c in columns if c != treat]

    base: list[Feature] = [Feature((c,), (1,)) for c in others]
    for i in range(len(others)):
        for j in range(i + 1, len(others)):
            base.append(Feature((others[i], others[j]), (1, 1)))
    for c in others:
        if not dataset.column_def(c).is_discrete:
            for p in range(2, degree + 1):
                base.append(Feature((c,), (p,)))

    features: list[Feature] = [INTERCEPT]
    if treat is not None:
        features.append(Feature((treat,), (1,)))
    features.extend(base)
    if treat is not None:
        for feat in base:
            features.append(Feature(feat.columns + (treat,), feat.powers + (1,)))
    return Basis(tuple(dict.fromkeys(features)))


def make_basis(kind: str, columns: Iterable[str], dataset: Dataset, degree: int = 2) -> Basis:
    """Resolve a basis policy name: "default", "saturated", or "intercept"."""
    columns = tuple(columns)
    if kind == "intercept" or not columns:
        return intercept_basis()
    if kind == "saturated":
        return saturated_basis(columns, dataset)
    if kind == "default":
        return default_basis(columns, dataset, degree)
    raise SchemaError(f"unknown basis policy {kind!r}")
