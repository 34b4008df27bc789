"""Estimand specifications: nested regressions paired with linear maps.

An estimand is written as K stages, outermost first in memory (index 0 is
stage k=1). The innermost stage (k=K) regresses the outcome on its
conditioning set; every stage k<K regresses the mapped prediction of stage
k+1. Each stage carries a linear map: a signed combination of point
evaluations of the regression, e.g. the treatment-difference map
f -> f(A=1, w) - f(A=0, w). Because maps are fixed linear combinations of
point evaluations, linearity in the regression argument holds structurally.

The document format is JSON: top-level keys ``name``, optional ``contrast``,
and ``stages`` listed innermost-first (k = K..1); each stage has ``regress``
("Y" or "prev"), ``given``, optional ``where``, and ``map`` (a list of
``{"coef": c, "set": {column: value}}`` terms). Serialization is canonical:
keys in that order, values normalized to floats, so documents round-trip
bit-exactly. The assignment value `"a'"` marks a contrast parameter slot,
filled in by ``EstimandSpec.instantiate``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, as_columns
from .errors import SchemaError, SpecSyntaxError, SpecValidationError

CONTRAST_TOKEN = "a'"

BUILTIN_NAMES = ("mean_treated", "ate", "att_control_mean", "nde")


@dataclass(frozen=True)
class MapTerm:
    """One signed point evaluation: coef * f(row with assignments applied)."""

    coef: float
    assignments: tuple[tuple[str, float | str], ...]

    def assigned(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.assignments)


@dataclass(frozen=True)
class FunctionalMap:
    """A fixed linear combination of point evaluations of a function.

    ``free_vars`` are the row variables the mapped value still depends on:
    the stage's conditioning variables not fixed by the term assignments.
    """

    terms: tuple[MapTerm, ...]
    free_vars: tuple[str, ...]

    @staticmethod
    def build(terms, given) -> "FunctionalMap":
        terms = tuple(terms)
        free: list[str] = []
        for term in terms:
            fixed = set(term.assigned())
            for name in given:
                if name not in fixed and name not in free:
                    free.append(name)
        return FunctionalMap(terms, tuple(free))

    def assigned_vars(self) -> set[str]:
        return {name for term in self.terms for name in term.assigned()}


@dataclass(frozen=True)
class Stage:
    """One conditional regression plus the linear map applied to it."""

    regress: str  # "Y" (innermost stage only) or "prev"
    given: tuple[str, ...]
    where: tuple[tuple[str, float], ...]  # subgroup restriction, may be empty
    fmap: FunctionalMap


@dataclass(frozen=True)
class EstimandSpec:
    """Ordered stages, outermost first; ``stage(k)`` uses 1-based paper order."""

    name: str
    stages: tuple[Stage, ...]
    contrast: tuple[float, float] | None = None

    @property
    def depth(self) -> int:
        return len(self.stages)

    def stage(self, k: int) -> Stage:
        if not 1 <= k <= self.depth:
            raise IndexError(f"stage index {k} outside 1..{self.depth}")
        return self.stages[k - 1]

    @property
    def is_contrast(self) -> bool:
        return self.contrast is not None

    def instantiate(self, value: float) -> "EstimandSpec":
        """Replace every contrast parameter slot with a concrete value."""
        value = float(value)
        stages = []
        for st in self.stages:
            terms = tuple(
                MapTerm(t.coef, tuple(
                    (n, value if v == CONTRAST_TOKEN else v) for n, v in t.assignments
                ))
                for t in st.fmap.terms
            )
            stages.append(replace(st, fmap=FunctionalMap(terms, st.fmap.free_vars)))
        return EstimandSpec(self.name, tuple(stages), contrast=None)

    def sha256(self) -> str:
        return hashlib.sha256(format_spec(self).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Parsing / canonical serialization
# ---------------------------------------------------------------------------

def parse_spec(text: str) -> EstimandSpec:
    """Parse and validate an estimand document.

    Raises SpecSyntaxError (with line/column) for malformed JSON and
    SpecValidationError naming the violated invariant otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    return spec_from_document(doc)


def spec_from_document(doc) -> EstimandSpec:
    if not isinstance(doc, dict):
        raise SpecValidationError("document root must be an object")
    _check_keys("document", doc, required=("name", "stages"), optional=("contrast",))
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise SpecValidationError("'name' must be a nonempty string")

    contrast = None
    if "contrast" in doc:
        pair = doc["contrast"]
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
            raise SpecValidationError("'contrast' must be a pair of numbers")
        contrast = (float(pair[0]), float(pair[1]))

    raw_stages = doc["stages"]
    if not isinstance(raw_stages, list) or not raw_stages:
        raise SpecValidationError("'stages' must be a nonempty array")

    # Document lists stages innermost-first (k = K..1); memory is outermost-first.
    stages = [_parse_stage(s, idx, contrast is not None) for idx, s in enumerate(raw_stages)]
    stages.reverse()
    spec = EstimandSpec(name, tuple(stages), contrast)
    _validate_structure(spec)
    return spec


def _parse_stage(raw, doc_index: int, contrast_allowed: bool) -> Stage:
    where_tag = f"stages[{doc_index}]"
    if not isinstance(raw, dict):
        raise SpecValidationError(f"{where_tag} must be an object")
    _check_keys(where_tag, raw, required=("regress", "given", "map"), optional=("where",))

    regress = raw["regress"]
    if regress not in ("Y", "prev"):
        raise SpecValidationError(f"{where_tag}.regress must be \"Y\" or \"prev\"")
    expected = "Y" if doc_index == 0 else "prev"
    if regress != expected:
        raise SpecValidationError(
            f"{where_tag}.regress must be \"{expected}\": only the innermost stage regresses the outcome")

    given = raw["given"]
    if (not isinstance(given, list)
            or not all(isinstance(g, str) and g for g in given)
            or len(set(given)) != len(given)):
        raise SpecValidationError(f"{where_tag}.given must be an array of distinct column names")
    given = tuple(given)

    where = ()
    if "where" in raw:
        where_obj = raw["where"]
        if not isinstance(where_obj, dict) or not where_obj:
            raise SpecValidationError(f"{where_tag}.where must be a nonempty object")
        for key, val in where_obj.items():
            if key not in given:
                raise SpecValidationError(
                    f"{where_tag}.where variable {key!r} is not in the conditioning set")
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise SpecValidationError(f"{where_tag}.where[{key!r}] must be a number")
        where = tuple((k, float(v)) for k, v in where_obj.items())

    raw_map = raw["map"]
    if not isinstance(raw_map, list) or not raw_map:
        raise SpecValidationError(f"{where_tag}.map must be a nonempty array of terms")
    terms = []
    for j, raw_term in enumerate(raw_map):
        tag = f"{where_tag}.map[{j}]"
        if not isinstance(raw_term, dict):
            raise SpecValidationError(f"{tag} must be an object")
        _check_keys(tag, raw_term, required=("coef", "set"), optional=())
        coef = raw_term["coef"]
        if (not isinstance(coef, (int, float)) or isinstance(coef, bool)
                or not 0 < abs(coef) <= np.finfo(np.float64).max):
            raise SpecValidationError(f"{tag}.coef must be a nonzero finite number")
        assignments = []
        raw_set = raw_term["set"]
        if not isinstance(raw_set, dict):
            raise SpecValidationError(f"{tag}.set must be an object")
        for key, val in raw_set.items():
            if key not in given:
                raise SpecValidationError(
                    f"{tag} assigns {key!r}, which is not in the stage's conditioning set")
            if val == CONTRAST_TOKEN:
                if not contrast_allowed:
                    raise SpecValidationError(
                        f"{tag} uses the contrast parameter {CONTRAST_TOKEN!r} but no contrast is declared")
                assignments.append((key, CONTRAST_TOKEN))
            elif isinstance(val, (int, float)) and not isinstance(val, bool):
                assignments.append((key, float(val)))
            else:
                raise SpecValidationError(f"{tag}.set[{key!r}] must be a number or {CONTRAST_TOKEN!r}")
        terms.append(MapTerm(float(coef), tuple(assignments)))

    return Stage(regress, given, where, FunctionalMap.build(terms, given))


def _check_keys(tag, obj, required, optional):
    for key in required:
        if key not in obj:
            raise SpecValidationError(f"{tag} is missing required key {key!r}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise SpecValidationError(f"{tag} has unknown key(s) {sorted(unknown)}")


def _validate_structure(spec: EstimandSpec) -> None:
    inner = spec.stage(spec.depth)
    assigned_anywhere = set()
    for st in spec.stages:
        assigned_anywhere |= st.fmap.assigned_vars()
    missing = assigned_anywhere - set(inner.given)
    if missing:
        raise SpecValidationError(
            f"variable(s) {sorted(missing)} are assigned by a map but absent from the "
            f"innermost conditioning set, so point evaluations are not well defined")

    outer = spec.stage(1)
    if [term.coef for term in outer.fmap.terms] != [1.0]:
        raise SpecValidationError(
            f"the outermost stage, stages[{spec.depth - 1}], must map by exactly one term with "
            f"coefficient 1, as the estimand is a mean over a subgroup; move the coefficients "
            f"into stage 2's map (the next stage in), or declare a 'contrast' for a difference")
    loose = [g for g in outer.given if g not in outer.fmap.terms[0].assigned()]
    if loose:
        raise SpecValidationError(
            f"outermost stage conditions on {loose} without assigning them; the outer "
            f"expectation must be marginal or subgroup-marginal")

    if spec.contrast is not None:
        uses_token = any(
            value == CONTRAST_TOKEN
            for st in spec.stages for t in st.fmap.terms for _, value in t.assignments
        )
        if not uses_token:
            raise SpecValidationError(
                f"a contrast is declared but no assignment uses the parameter {CONTRAST_TOKEN!r}")


def spec_to_document(spec: EstimandSpec) -> dict:
    stages = []
    for st in reversed(spec.stages):  # write innermost-first
        entry: dict = {"regress": st.regress, "given": list(st.given)}
        if st.where:
            entry["where"] = {k: v for k, v in st.where}
        entry["map"] = [
            {"coef": t.coef, "set": {k: v for k, v in t.assignments}}
            for t in st.fmap.terms
        ]
        stages.append(entry)
    doc: dict = {"name": spec.name}
    if spec.contrast is not None:
        doc["contrast"] = list(spec.contrast)
    doc["stages"] = stages
    return doc


def format_spec(spec: EstimandSpec) -> str:
    """Canonical document text; format(parse(format(s))) == format(s)."""
    return json.dumps(spec_to_document(spec), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Built-in estimands
# ---------------------------------------------------------------------------

def builtin_spec(name: str) -> EstimandSpec:
    """Return one of the four built-in estimands by identifier.

    mean_treated      E[Y | A=1]
    ate               E{ E[Y|A=1,W] - E[Y|A=0,W] }
    att_control_mean  E{ E[Y|A=0,W] | A=1 }
    nde               E[ E{E[Y|A=a',M,W] | A=0,W} ], contrast a'=1 vs a'=0
    """
    if name == "mean_treated":
        doc = {
            "name": "mean_treated",
            "stages": [
                {"regress": "Y", "given": ["A"],
                 "map": [{"coef": 1.0, "set": {"A": 1.0}}]},
            ],
        }
    elif name == "ate":
        doc = {
            "name": "ate",
            "stages": [
                {"regress": "Y", "given": ["A", "W"],
                 "map": [{"coef": 1.0, "set": {"A": 1.0}},
                         {"coef": -1.0, "set": {"A": 0.0}}]},
                {"regress": "prev", "given": [],
                 "map": [{"coef": 1.0, "set": {}}]},
            ],
        }
    elif name == "att_control_mean":
        doc = {
            "name": "att_control_mean",
            "stages": [
                {"regress": "Y", "given": ["A", "W"],
                 "map": [{"coef": 1.0, "set": {"A": 0.0}}]},
                {"regress": "prev", "given": ["A"], "where": {"A": 1.0},
                 "map": [{"coef": 1.0, "set": {"A": 1.0}}]},
            ],
        }
    elif name == "nde":
        doc = {
            "name": "nde",
            "contrast": [1.0, 0.0],
            "stages": [
                {"regress": "Y", "given": ["A", "M", "W"],
                 "map": [{"coef": 1.0, "set": {"A": CONTRAST_TOKEN}}]},
                {"regress": "prev", "given": ["A", "W"],
                 "map": [{"coef": 1.0, "set": {"A": 0.0}}]},
                {"regress": "prev", "given": [],
                 "map": [{"coef": 1.0, "set": {}}]},
            ],
        }
    else:
        raise SpecValidationError(
            f"unknown built-in estimand {name!r}; expected one of {', '.join(BUILTIN_NAMES)}")
    return spec_from_document(doc)


# ---------------------------------------------------------------------------
# Binding to a dataset schema
# ---------------------------------------------------------------------------

def validate_binding(spec: EstimandSpec, dataset: Dataset) -> None:
    """Check that a spec is evaluable against a dataset schema.

    Verifies column existence, that the outcome column stays out of
    conditioning sets, and that every constant assignment lies in the
    assigned column's declared support.
    """
    outcome = dataset.outcome  # also enforces exactly-one-outcome
    for k, st in enumerate(spec.stages, start=1):
        for name in st.given:
            col = dataset.column_def(name)  # raises SchemaError if absent
            if col.name == outcome.name:
                raise SchemaError(
                    f"stage {k} conditions on the outcome column {name!r}")
        for name, value in (*st.where, *(pair for t in st.fmap.terms for pair in t.assignments)):
            col = dataset.column_def(name)  # raises SchemaError if absent
            if value != CONTRAST_TOKEN and not col.admits(value):
                raise SchemaError(f"stage {k} assigns {name} = {value}, outside the declared "
                                  f"support of column {name!r}")


# ---------------------------------------------------------------------------
# Map application
# ---------------------------------------------------------------------------

def apply_map(fmap: FunctionalMap, fn, data):
    """Evaluate the map term-by-term: sum of coef * fn(columns with the
    term's assignments applied).

    ``fn`` is any callable taking a mapping of column name -> ndarray and
    returning an ndarray of per-row values (fitted regressions and
    representers follow this protocol). ``data`` is a Dataset, a mapping of
    arrays, or a mapping of scalars (a single row, in which case a float is
    returned). When a Dataset is given, constant assignments are checked
    against the declared column supports.
    """
    cols, n = as_columns(data)
    schema = data if isinstance(data, Dataset) else None
    scalar = schema is None and all(np.ndim(v) == 0 for v in data.values())
    out = np.zeros(n)
    for coef, overridden in term_columns(fmap, cols, n, schema):
        out += coef * np.asarray(fn(overridden), dtype=np.float64)
    return float(out[0]) if scalar else out


def check_assignments(fmap: FunctionalMap, schema: Dataset | None = None) -> None:
    """Refuse a contrast parameter slot and, given a schema, a constant
    outside the assigned column's declared support."""
    for term in fmap.terms:
        for name, value in term.assignments:
            if value == CONTRAST_TOKEN:
                raise SpecValidationError(
                    "map still contains the contrast parameter; instantiate the spec first")
            if schema is not None and not schema.column_def(name).admits(value):
                raise SchemaError(
                    f"assignment {name} = {value} lies outside the declared support of {name!r}")


def term_columns(fmap: FunctionalMap, cols, n: int, schema: Dataset | None = None):
    """Yield (coef, columns-with-assignments-applied) for each map term."""
    check_assignments(fmap, schema)
    for term in fmap.terms:
        overridden = dict(cols)
        overridden.update((name, np.full(n, value)) for name, value in term.assignments)
        yield term.coef, overridden
