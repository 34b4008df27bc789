"""Feature dictionaries (sieve bases) over named columns.

A Basis is an ordered list of monomial features: products of integer powers
of columns, with the intercept always first. The same bases back both the
Riesz sieves and the nuisance regressions, which is what makes the empirical
orthogonality identities between them exact. ``FoldDesigns``, one per
estimate, evaluates each design once, serves the fitters its fold blocks and
memoizes their fits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .data import CHUNK, Dataset, as_columns
from .errors import SchemaError
from .estimands import term_columns


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

    def design(self, data, out=None) -> np.ndarray:
        """Evaluate all features; returns an (n, dim) float64 matrix, which
        is ``out`` when given."""
        cols, n = as_columns(data)
        out = np.empty((n, self.dim)) if out is None else out
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


class FoldDesigns:
    """One estimate's workspace: the rows of ``data`` in ``order``, sorted by
    fold, each fold's rows one contiguous block; a plain dataset is one block.

    Fitters read the blocks in ``train`` (see ``fold``) and take per-row
    arrays spanning all rows. Sieve statistics are sums over rows, so each
    block's Gram and cross blocks are formed once, and a fold's training
    statistics are the sum of its training blocks. A design without
    assignments is held once evaluated, and one with assignments once passed
    to ``hold`` (see ``hold_shared``); any other is evaluated by each pass in
    pieces of at most ``CHUNK`` rows. ``fits`` memoizes the fits made on
    these rows, keyed by every setting a fit reads.
    """

    def __init__(self, data, order=None, bounds=None):
        self.order = order
        self.data = data if order is None else data.subset(order)
        self.cols, self.n = as_columns(self.data)
        self.schema = self.data if isinstance(self.data, Dataset) else None
        self.bounds = (0, self.n) if bounds is None else tuple(int(b) for b in bounds)
        self.folds = len(self.bounds) - 1
        self.train, self.n_train = tuple(range(self.folds)), self.n
        self._held, self._grams, self._cross, self.fits = {}, {}, {}, {}

    def block(self, u: int) -> slice:
        return slice(self.bounds[u], self.bounds[u + 1])

    def fold(self, v: int) -> "FoldDesigns":
        """A view, sharing every cache, whose fitters read fold v's training
        blocks: all others, or block v itself when it is the only one."""
        view = copy.copy(self)
        view.train = tuple(u for u in range(self.folds) if u != v) or (v,)
        view.n_train = sum(self.bounds[u + 1] - self.bounds[u] for u in view.train)
        return view

    def training_set(self):
        """The training rows as a dataset, in their original row order."""
        rows = np.concatenate([np.arange(self.bounds[u], self.bounds[u + 1])
                               for u in self.train])
        if self.order is None:
            return self.data if len(rows) == self.n else self.data.subset(rows)
        return self.data.subset(rows[np.argsort(self.order[rows])])

    def pieces(self, blocks):
        """(block, rows) pieces of at most CHUNK rows within each block."""
        for u in blocks:
            for start in range(self.bounds[u], self.bounds[u + 1], CHUNK):
                yield u, slice(start, min(start + CHUNK, self.bounds[u + 1]))

    def hold_shared(self, specs, policies, degree: int) -> None:
        """Hold, in one allocation, each stage's observed design and each map
        design that the stage maps of ``specs`` read more than once (for a
        contrast, those of the maps both arms share), under each basis
        policy. Any other map design is read by one pass and streamed."""
        observed, mapped = [], []
        for spec in specs:
            for stage in reversed(spec.stages):  # innermost first, as the fits run
                for policy in sorted(set(policies)):
                    basis = make_basis(policy, stage.given, self.data, degree)
                    observed.append((basis, ()))
                    mapped += [(basis, term.assignments) for term in stage.fmap.terms]
        self.hold(observed + [key for key in mapped if mapped.count(key) > 1])

    def hold(self, keys) -> None:
        """Evaluate the (basis, assignments) designs not yet held end to end
        in one allocation, so that they are allocated and freed as a whole."""
        keys = [key for key in dict.fromkeys(keys) if key not in self._held]
        memory, start = np.empty(self.n * sum(basis.dim for basis, _ in keys)), 0
        for basis, assignments in keys:
            cols = dict(self.cols)
            cols.update((name, np.full(self.n, value)) for name, value in assignments)
            out = memory[start:start + self.n * basis.dim].reshape(self.n, basis.dim)
            self._held[basis, assignments] = basis.design(cols, out=out)
            start += out.size

    def design(self, basis: Basis, assignments=()) -> np.ndarray:
        """The held design of ``basis`` on every row, assignments applied."""
        if (basis, assignments) not in self._held:
            self.hold([(basis, assignments)])
        return self._held[basis, assignments]

    def gram(self, basis: Basis) -> np.ndarray:
        """Mean of feature products over the training rows."""
        if basis not in self._grams:
            blocks = [self.design(basis)[self.block(u)] for u in range(self.folds)]
            self._grams[basis] = [block.T @ block for block in blocks]
        return sum(self._grams[basis][u] for u in self.train) / self.n_train

    # an overflow leaves the blocks non-finite, which solve_normal_equations refuses
    @np.errstate(over="ignore", invalid="ignore")
    def cross(self, basis: Basis, fmap, weight) -> list:
        """Per block u, the sum over the map's terms of coef * M_u^T W_u, M
        being the term's design of ``basis``. ``weight`` is a basis, whose
        held design is W (every block is read and the blocks are kept), or
        per-row values W (the training blocks are read)."""
        held = isinstance(weight, Basis)
        if held and (basis, fmap, weight) in self._cross:
            return self._cross[basis, fmap, weight]
        weights = self.design(weight) if held else weight[:, None]
        cross = [0.0] * self.folds
        for u, rows, terms in self._map_pieces(basis, fmap, held):
            for coef, design in terms:
                cross[u] += coef * (design.T @ weights[rows])
        if held:
            self._cross[basis, fmap, weight] = cross
        return cross

    @np.errstate(over="ignore", invalid="ignore")
    def map_values(self, basis: Basis, fmap, coefs: np.ndarray, link, weight: Basis):
        """Map values t = sum over terms of coef * link(M @ coefs), with one
        column of ``coefs`` per fold, in one pass for every fold. Returns
        (held_out, targets): t's column u on each block u, and per block u
        the target block W_u^T t_u, W being the held design of ``weight``.
        The pass also keeps ``cross(basis, fmap, weight)``, so that a
        streamed M is evaluated once."""
        weights = self.design(weight)
        held_out, targets, cross = np.empty(self.n), [0.0] * self.folds, [0.0] * self.folds
        for u, rows, terms in self._map_pieces(basis, fmap, True):
            mapped = 0.0
            for coef, design in terms:
                index = design @ coefs
                if link is not None:
                    link(index, out=index)
                index *= coef
                mapped = mapped + index
                cross[u] += coef * (design.T @ weights[rows])
            held_out[rows] = mapped[:, u]
            targets[u] += weights[rows].T @ mapped
        self._cross[basis, fmap, weight] = cross
        return held_out, targets

    def _map_pieces(self, basis: Basis, fmap, every_block: bool):
        """(block, rows, terms) per piece of every block, or of the training
        blocks; terms yields (coef, M) per map term, M being the term's
        design on the piece: a slice of the held design, or the piece
        evaluated into one buffer, which the next term reuses."""
        held = [self.design(basis) if not term.assignments
                else self._held.get((basis, term.assignments)) for term in fmap.terms]
        buffer = np.empty((min(CHUNK, self.n), basis.dim))

        def terms(rows):
            cols = {name: col[rows] for name, col in self.cols.items()}
            overrides = term_columns(fmap, cols, rows.stop - rows.start, self.schema)
            for design, (coef, overridden) in zip(held, overrides):
                yield coef, (design[rows] if design is not None
                             else basis.design(overridden, out=buffer[:rows.stop - rows.start]))

        for u, rows in self.pieces(range(self.folds) if every_block else self.train):
            yield u, rows, terms(rows)


def as_designs(data) -> FoldDesigns:
    """A FoldDesigns as is; a Dataset or column mapping as one block."""
    return data if isinstance(data, FoldDesigns) else FoldDesigns(data)
