"""Influence-function assembly and cross-fit one-step estimation.

For a K-stage estimand with fitted stage weights a_k and regressions Q_k,
the per-row influence contributions are

    D_k = a_k * (m_{k+1}(x; Q_{k+1}) - Q_k(x))      for k = 2..K
    D_1 = a_1 * (m_2(x; Q_2) - theta)               (m_{K+1}(x; .) := y)

and their sum is the influence function. The one-step estimate solves
mean(influence) = 0 in theta, which is linear in theta. The parser allows
the outermost map only one coefficient-1 term, so theta is a subgroup mean.
The outermost weight is then the constant 1 for marginal outer stages; for
subgroup outer stages the fitted weight is rescaled to unit in-fold mean
(its population mean is exactly 1, and a scalar frequency needs no
cross-fitting), which makes solving coincide with the classic
plug-in-plus-correction form, so both bookkeeping identities hold by
construction:

    theta_hat - plug_in = mean(eif_values)          (eif_values at plug_in)
    mean(influence at theta_hat) = 0

Within one estimate each fold fits a stage once, and every contrast arm
whose stage chain agrees reuses that fit. Fits are keyed by the settings and
content they depend on, never by the arm value: the regression Q_k by stage k's
conditioning set and subgroup, the stage-(k+1) map and the key of Q_{k+1};
the weight a_k by stage k and the key of a_{k-1}. In ``nde`` both arms share
the outcome regression and the stage-2 weight. Network weights, the slow
fits, are made first, one fold per item of ``data.forked_map``.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import asdict, dataclass, field
from statistics import NormalDist

import numpy as np

from . import __version__
from .basis import BASIS_POLICIES, FoldDesigns, make_basis
from .data import Dataset, forked_map
from .errors import (DegenerateFoldError, NonFiniteEifError, RieszregError, SchemaError,
                     is_integer, is_real, require)
from .estimands import EstimandSpec, apply_map, validate_binding
from .mlp import MlpConfig
from .nuisance import OUTCOME_FAMILIES, fit_folds
from .riesz import METHODS, SieveRieszFit, fit_sequential
from .simulate import substream


@dataclass(frozen=True)
class EstimatorSettings:
    """Knobs for one estimation run; defaults follow the house choices."""

    riesz_method: str = "sieve"       # one of riesz.METHODS
    riesz_basis: str = "default"      # one of basis.BASIS_POLICIES
    nuisance_basis: str = "default"
    degree: int = 2
    ridge: float | None = None        # None = scale-aware default, 0.0 = exact
    outcome_family: str | None = None  # None = logistic iff the outcome is binary
    clip: float | None = None         # optional |weight| bound, with a clip count
    min_rows_per_fold: int = 50
    level: float = 0.95
    mlp: MlpConfig | None = None      # last, as reports list the network settings last

    def __post_init__(self):
        for name, names in (("riesz_method", METHODS), ("riesz_basis", BASIS_POLICIES),
                            ("nuisance_basis", BASIS_POLICIES),
                            ("outcome_family", (None, *OUTCOME_FAMILIES))):
            require(getattr(self, name) in names, f"{name} must be one of {names}",
                    getattr(self, name))
        require(self.ridge is None or is_real(self.ridge) and 0 <= self.ridge < np.inf,
                "ridge must be None or finite and >= 0", self.ridge)
        require(self.clip is None or is_real(self.clip) and 0 < self.clip < np.inf,
                "clip must be None or finite and positive", self.clip)
        require(is_real(self.level) and 0 < self.level < 1, "level must lie in (0, 1)", self.level)
        for name in ("min_rows_per_fold", "degree"):
            value = getattr(self, name)
            require(is_integer(value) and value >= 1, f"{name} must be an integer >= 1", value)


@dataclass
class EifTerm:
    """Per-row stage-k influence contribution."""

    k: int
    values: np.ndarray


@dataclass
class ConfidenceInterval:
    lo: float
    hi: float
    level: float


@dataclass
class ContrastBlock:
    """Second arm of a contrast plus the differenced estimate."""

    other: "EstimateReport"
    difference: float
    std_error: float
    ci: ConfidenceInterval
    eif_values: np.ndarray


@dataclass
class EstimateReport:
    """One estimate with its influence values. ``to_dict`` is the JSON report:
    the fields of this class and of the blocks it holds, in declaration order,
    so the field order is the key order and a new key is a new field."""

    name: str
    theta_hat: float
    plug_in: float
    std_error: float
    ci: ConfidenceInterval
    n: int
    folds: int
    seed: int
    eif_values: np.ndarray
    per_fold: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    contrast: ContrastBlock | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def headline(self) -> float:
        """The reported number: the contrast difference when present."""
        return self.contrast.difference if self.contrast is not None else self.theta_hat

    @property
    def headline_ci(self) -> ConfidenceInterval:
        return self.contrast.ci if self.contrast is not None else self.ci

    def to_dict(self) -> dict:
        """A copy of the report as plain JSON values."""
        return asdict(self, dict_factory=_json_fields)


def _json_fields(pairs) -> dict:
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in pairs}


# ---------------------------------------------------------------------------
# Influence-function assembly
# ---------------------------------------------------------------------------

def assemble_eif(spec: EstimandSpec, alphas, nuisances, data: Dataset,
                 theta: float) -> list[EifTerm]:
    """Per-stage influence contributions at a given theta, outermost first.

    ``alphas`` and ``nuisances`` are the per-stage fitted weights and
    regressions (any callables over columns), ordered outermost first.
    """
    parts = _stage_values(spec, alphas, nuisances, data)
    terms = [EifTerm(1, parts.alpha1 * (parts.next_mapped - theta))]
    terms.extend(EifTerm(k, values) for k, values in parts.tail)
    for term in terms:
        _require_finite(term.values, term.k)
    return terms


@dataclass
class _StageValues:
    tail: list                 # [(k, D_k)] for k = 2..K
    alpha1: np.ndarray         # outermost weight per row
    next_mapped: np.ndarray    # m_2(x; Q_2), or y when K = 1
    plug_values: np.ndarray    # m_1(x; Q_1)
    clipped: int


def _stage_values(spec: EstimandSpec, alphas, nuisances, data: Dataset) -> _StageValues:
    """Stage values of fits given as callables, evaluated on ``data``."""
    depth = spec.depth
    if len(alphas) != depth or len(nuisances) != depth:
        raise SchemaError(
            f"stage-count mismatch: spec has {depth} stages, got {len(alphas)} "
            f"weights and {len(nuisances)} regressions")
    cols = data.columns
    # mapped[k] = m_{k+1}(x; Q_{k+1}) for k = 0..K, with y at the boundary
    mapped = [apply_map(spec.stage(k + 1).fmap, nuisances[k], data) for k in range(depth)]
    return _parts([np.asarray(fit(cols), dtype=np.float64) for fit in alphas],
                  [np.asarray(fit(cols), dtype=np.float64) for fit in nuisances[1:]],
                  mapped + [data.column(data.outcome.name)])


def _parts(alphas, regressions, mapped, clip: float | None = None) -> _StageValues:
    """D_k = a_k * (m_{k+1}(x; Q_{k+1}) - Q_k(x)) for k = 2..K from per-row
    weights a_1..a_K, regressions Q_2..Q_K and maps mapped[0..K]."""
    clipped = 0
    if clip is not None:
        clipped = sum(int(np.count_nonzero(np.abs(values) > clip)) for values in alphas)
        alphas = [np.clip(values, -clip, clip) for values in alphas]
    tail = []
    for k, q_k in enumerate(regressions, start=2):
        # non-finite products are caught by the guard below, not warned about
        with np.errstate(invalid="ignore", over="ignore"):
            values = alphas[k - 1] * (mapped[k] - q_k)
        _require_finite(values, k)
        tail.append((k, values))
    return _StageValues(tail, alphas[0], mapped[1], mapped[0], clipped)


def _require_finite(values: np.ndarray, k: int) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise NonFiniteEifError(
            f"influence term D_{k} is non-finite at row {row} "
            f"(value {values[row]!r}); check positivity and fitted weights")


# ---------------------------------------------------------------------------
# Cross-fit one-step estimation
# ---------------------------------------------------------------------------

def one_step_estimate(spec: EstimandSpec, data: Dataset,
                      settings: EstimatorSettings | None = None,
                      folds: int = 5, seed: int = 0) -> EstimateReport:
    """Cross-fit one-step estimate with influence-function inference.

    With folds >= 2, all weights and regressions are fit on out-of-fold rows
    and evaluated in-fold; folds=1 fits and evaluates in-sample (diagnostic
    mode). Contrast specs estimate both arms on the same fold assignment and
    report the difference with its own influence-based standard error.

    One ``FoldDesigns`` sorts the rows by fold, so each fold is one block:
    only each stage's observed design is evaluated, once per estimate; fits
    read summed fold blocks and are memoized in ``designs.fits`` for both
    arms, and held-out values are slices of the held designs.
    """
    settings = settings if settings is not None else EstimatorSettings()
    require(is_integer(folds) and folds >= 1, "folds must be an integer >= 1", folds)
    require(is_integer(seed) and seed >= 0, "seed must be an integer >= 0", seed)
    validate_binding(spec, data)
    order, bounds = _fold_order(spec, data, folds, seed, settings.min_rows_per_fold)
    designs = FoldDesigns(data, order, bounds)
    arms = ([(spec.instantiate(value), f"{spec.name}[a'={value:g}]")
             for value in spec.contrast] if spec.is_contrast else [(spec, spec.name)])
    policies = [settings.nuisance_basis]
    if settings.riesz_method == "sieve":
        policies.append(settings.riesz_basis)
    designs.hold(make_basis(policy, stage.given, data, settings.degree)
                 for stage in reversed(spec.stages) for policy in policies)
    if settings.riesz_method == "mlp" and designs.folds > 1:
        _fit_networks([arm for arm, _ in arms], designs, settings)
    report, *others = [_estimate_concrete(arm, designs, settings, seed, name)
                       for arm, name in arms]
    if others:
        eif_diff = report.eif_values - others[0].eif_values
        difference = report.theta_hat - others[0].theta_hat
        se = float(np.std(eif_diff, ddof=1) / np.sqrt(data.n))
        report.name = spec.name
        report.contrast = ContrastBlock(others[0], difference, se,
                                        _interval(difference, se, settings.level),
                                        eif_diff)
    report.provenance = {
        "spec_sha256": spec.sha256(),
        "data_sha256": data.sha256(),
        "seed": seed,
        "folds": folds,
        "settings": asdict(settings),
        "package_version": __version__,
    }
    return report


def _estimate_concrete(spec: EstimandSpec, designs: FoldDesigns,
                       settings: EstimatorSettings, seed: int, name: str) -> EstimateReport:
    n, folds = designs.n, designs.folds
    nuisances, mapped = fit_folds(
        spec, designs, basis_policy=settings.nuisance_basis, degree=settings.degree,
        ridge=settings.ridge, outcome_family=settings.outcome_family)
    plug_in = float(np.mean(mapped[0]))
    eif_values = np.empty(n)
    per_fold = []
    clipped = 0

    for v in range(folds):
        rows = designs.block(v)
        alphas = fit_sequential(
            spec, designs.fold(v), method=settings.riesz_method,
            basis_policy=settings.riesz_basis, degree=settings.degree, ridge=settings.ridge,
            mlp_config=settings.mlp)

        weights = [_held_out(fit, designs, rows) for fit in alphas]
        regressions = [_held_out(stage[v], designs, rows) for stage in nuisances[1:]]
        parts = _parts(weights, regressions, [m[rows] for m in mapped], settings.clip)
        clipped += parts.clipped

        raw_mean = float(np.mean(parts.alpha1))
        if abs(raw_mean) < 1e-12:
            raise RieszregError(
                f"outermost weight averages to ~0 in fold {v}; cannot solve for the estimate")
        tail_sum = sum(values for _, values in parts.tail) if parts.tail else 0.0
        alpha1 = parts.alpha1 / raw_mean
        eif_values[designs.order[rows]] = tail_sum + alpha1 * (parts.next_mapped - plug_in)
        per_fold.append({
            "fold": v,
            "n_eval": rows.stop - rows.start,
            "n_train": designs.fold(v).n_train,
            "plug_in": float(np.mean(parts.plug_values)),
            "alpha1_mean_raw": raw_mean,
            "riesz_fitted_loss": [a.fitted_loss for a in alphas],
        })

    _require_finite(eif_values, 1)
    theta_hat = plug_in + float(np.mean(eif_values))
    se = float(np.std(eif_values, ddof=1) / np.sqrt(n))
    return EstimateReport(
        name=name, theta_hat=theta_hat, plug_in=plug_in, eif_values=eif_values,
        std_error=se, ci=_interval(theta_hat, se, settings.level), n=n, folds=folds,
        seed=seed, per_fold=per_fold, diagnostics={"clipped_weights": clipped})


def _fit_networks(specs, designs: FoldDesigns, settings: EstimatorSettings) -> None:
    """Fit every fold's network chains for every arm into ``designs.fits``."""
    def fold_fits(v: int) -> list:
        before = set(designs.fits)
        for spec in specs:
            fit_sequential(spec, designs.fold(v), method="mlp", basis_policy=settings.riesz_basis,
                           degree=settings.degree, ridge=settings.ridge, mlp_config=settings.mlp)
        return [(key, fit) for key, fit in designs.fits.items() if key not in before]

    with closing(forked_map(fold_fits, range(designs.folds))) as made:
        designs.fits.update(pair for pairs in made for pair in pairs)


def _held_out(fit, designs: FoldDesigns, rows: slice) -> np.ndarray:
    """A fit's values on one fold block: a slice of the held design times
    the coefficients for a sieve fit, a call on the block's columns else."""
    if isinstance(fit, SieveRieszFit):
        return fit.on_design(designs.design(fit.basis)[rows])
    return np.asarray(fit({name: col[rows] for name, col in designs.cols.items()}),
                      dtype=np.float64)


def _interval(center: float, se: float, level: float) -> ConfidenceInterval:
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    return ConfidenceInterval(center - z * se, center + z * se, level)


def _fold_order(spec: EstimandSpec, data: Dataset, folds: int, seed: int,
                min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows sorted by fold, in their original order within each fold,
    and the offsets of the fold blocks in that order."""
    n = data.n
    if n // folds < min_rows:
        raise DegenerateFoldError(
            f"{folds} folds over {n} rows leaves fewer than {min_rows} rows per fold; "
            f"reduce folds or min_rows_per_fold")
    # substream 1 is reserved for fold assignment so splits stay independent
    # of data drawn under the same seed (sampling uses substream 0)
    fold_ids = np.empty(n, dtype=np.int64)
    fold_ids[substream(seed, 1).permutation(n)] = np.arange(n) % folds
    _check_fold_levels(spec, data, fold_ids, folds)
    order = np.argsort(fold_ids, kind="stable")
    return order, np.searchsorted(fold_ids[order], np.arange(folds + 1))


def _check_fold_levels(spec: EstimandSpec, data: Dataset, fold_ids: np.ndarray,
                       folds: int) -> None:
    """Every training set must contain every declared level of each discrete
    column that a map assigns; otherwise saturated fits are singular and
    point evaluations ill-defined."""
    assigned = set()
    for st in spec.stages:
        assigned |= st.fmap.assigned_vars()
    discrete = [data.column_def(name) for name in sorted(assigned)
                if data.column_def(name).is_discrete]
    for v in range(folds):
        train_mask = (fold_ids != v) if folds > 1 else (fold_ids == v)
        for col in discrete:
            present = np.unique(data.column(col.name)[train_mask])
            missing = [lv for lv in col.levels if lv not in present]
            if missing:
                raise DegenerateFoldError(
                    f"training data for fold {v} is missing level(s) {missing} of "
                    f"column {col.name!r}")


# ---------------------------------------------------------------------------
# Orthogonality diagnostics
# ---------------------------------------------------------------------------

@dataclass
class OrthogonalityRow:
    k: int
    mean: float
    shared_basis: bool
    within_tol: bool


def verify_orthogonality(spec: EstimandSpec, data: Dataset, alphas, nuisances,
                         tol: float = 1e-10) -> list[OrthogonalityRow]:
    """Report mean D_k for every k > 1.

    When the stage-k weight and regression share an unpenalized basis, the
    least-squares residual is empirically orthogonal to the weight's span,
    so the mean must vanish to numerical precision; rows record whether the
    shared-basis condition holds and whether the mean is within tolerance.
    Diagnostics only: never raises on a violation.
    """
    parts = _stage_values(spec, alphas, nuisances, data)
    rows = []
    for k, values in parts.tail:
        fits = alphas[k - 1], nuisances[k - 1]
        shared = (all(isinstance(fit, SieveRieszFit) for fit in fits)
                  and fits[0].basis == fits[1].basis
                  and {(fit.family, fit.ridge) for fit in fits} == {("least_squares", 0.0)})
        mean = float(np.mean(values))
        rows.append(OrthogonalityRow(k, mean, shared, abs(mean) <= tol))
    return rows
