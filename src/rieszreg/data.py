"""Columnar datasets with typed schemas.

A Dataset is a small column-major table: one float64 array per column plus a
schema describing each column's role (covariate, treatment, mediator, outcome)
and support (binary, categorical with levels, real). CSV export writes a
sidecar JSON document holding the schema so files round-trip losslessly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError

ROLES = ("covariate", "treatment", "mediator", "outcome")
SUPPORTS = ("binary", "categorical", "real")


def as_columns(data) -> tuple[dict, int]:
    """Coerce a Dataset or a mapping of equal-length arrays (or of scalars, one
    row) to (name -> 1-D float64 array, row count)."""
    if isinstance(data, Dataset):
        return data.columns, data.n
    cols = {key: np.atleast_1d(np.asarray(value, dtype=np.float64))
            for key, value in data.items()}
    for key, arr in cols.items():
        if arr.ndim != 1:
            raise SchemaError(f"column {key!r} is not one-dimensional")
    lengths = {arr.shape[0] for arr in cols.values()}
    if len(lengths) != 1:
        raise SchemaError("columns have unequal lengths" if cols else "empty column mapping")
    return cols, lengths.pop()


# Rows (CSV) or array items (JSON) formatted and written per chunk, so a
# writer never holds a whole file's text.
CHUNK = 65536
# Stands for a spliced array in the encoded skeleton of a JSON file.
_SLOT = "\x00rieszreg:array\x00"


def write_json(path, payload) -> None:
    """The one JSON file layout: UTF-8, two-space indent, LF, final newline;
    byte-identical to ``json.dump(payload, fh, indent=2)`` plus a newline.

    ``json.dump`` with an indent runs the pure-Python encoder on every item.
    Here only the skeleton does: each nonempty array of numbers is swapped
    for a slot, and its items are encoded by the C encoder chunk by chunk
    and written where the slot stood."""
    arrays = []
    slot = json.dumps(_SLOT)
    parts = json.dumps(_hollow(payload, arrays, 0), indent=2).split(slot)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(parts[0])
        for (values, depth), text in zip(arrays, parts[1:]):
            if values is None:  # the payload's own copy of the slot string
                fh.write(slot)
            else:
                indent = "\n" + "  " * (depth + 1)
                fh.write("[" + indent)
                for start in range(0, len(values), CHUNK):
                    if start:
                        fh.write("," + indent)
                    fh.write(json.dumps(values[start:start + CHUNK])[1:-1]
                             .replace(", ", "," + indent))
                fh.write("\n" + "  " * depth + "]")
            fh.write(text)
        fh.write("\n")


def _hollow(value, arrays: list, depth: int):
    """``value`` with each nonempty list or tuple of numbers replaced by the
    slot and appended to ``arrays`` with its nesting depth, in the order the
    encoder writes them. A key or string equal to the slot is appended as
    None, so that every slot in the skeleton has its entry."""
    if isinstance(value, dict):
        hollow = {}
        for key, item in value.items():
            if key == _SLOT:
                arrays.append((None, depth))
            hollow[key] = _hollow(item, arrays, depth + 1)
        return hollow
    if isinstance(value, (list, tuple)):
        if value and all(isinstance(item, (int, float)) for item in value):
            arrays.append((value, depth))
            return _SLOT
        return [_hollow(item, arrays, depth + 1) for item in value]
    if isinstance(value, str) and value == _SLOT:
        arrays.append((None, depth))
    return value


def constant_one(cols) -> np.ndarray:
    """The weight 1 on every row, e.g. of a marginal outer stage."""
    return np.ones(as_columns(cols)[1])


@dataclass(frozen=True)
class Column:
    """Schema entry for one column."""

    name: str
    role: str
    support: str = "real"
    levels: tuple = ()

    def __post_init__(self):
        if self.role not in ROLES:
            raise SchemaError(f"unknown role {self.role!r} for column {self.name!r}")
        if self.support not in SUPPORTS:
            raise SchemaError(f"unknown support {self.support!r} for column {self.name!r}")
        if self.support == "binary":
            object.__setattr__(self, "levels", (0.0, 1.0))
        elif self.support == "categorical":
            if len(self.levels) < 2:
                raise SchemaError(f"categorical column {self.name!r} needs >= 2 levels")
            object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))

    @property
    def is_discrete(self) -> bool:
        return self.support in ("binary", "categorical")

    def admits(self, value) -> bool:
        """Whether a constant lies in this column's declared support."""
        if self.is_discrete:
            return float(value) in self.levels
        return np.isfinite(value)

    def to_dict(self) -> dict:
        d = {"name": self.name, "role": self.role, "support": self.support}
        if self.support == "categorical":
            d["levels"] = list(self.levels)
        return d

    @staticmethod
    def from_dict(d: dict) -> "Column":
        return Column(d["name"], d["role"], d.get("support", "real"),
                      tuple(d.get("levels", ())))


@dataclass
class Dataset:
    """Immutable-by-convention columnar table of observations."""

    schema: tuple[Column, ...]
    columns: dict[str, np.ndarray]
    seed: int | None = None
    n: int = field(init=False)

    def __post_init__(self):
        self.schema = tuple(self.schema)
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if set(names) != set(self.columns):
            raise SchemaError("schema columns and data columns disagree")
        self.columns, self.n = as_columns(self.columns)
        if self.n < 1:
            raise SchemaError("dataset must contain at least one row")
        for col in self.schema:
            values = self.columns[col.name]
            if not np.all(np.isfinite(values)):
                raise SchemaError(f"column {col.name!r} contains non-finite values")
            if col.is_discrete and not np.isin(values, col.levels).all():
                raise SchemaError(f"column {col.name!r} has values outside its declared support")

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"dataset has no column {name!r}") from None

    def column_def(self, name: str) -> Column:
        for col in self.schema:
            if col.name == name:
                return col
        raise SchemaError(f"dataset has no column {name!r}")

    @property
    def outcome(self) -> Column:
        outcomes = [c for c in self.schema if c.role == "outcome"]
        if len(outcomes) != 1:
            raise SchemaError(f"expected exactly one outcome column, found {len(outcomes)}")
        return outcomes[0]

    def subset(self, mask_or_index: np.ndarray) -> "Dataset":
        cols = {k: v[mask_or_index] for k, v in self.columns.items()}
        return Dataset(self.schema, cols, seed=self.seed)

    # -- CSV + schema sidecar -------------------------------------------------

    def to_csv(self, path, schema_path=None) -> None:
        """Write rows as CSV (comma, '.' decimal, header, LF, UTF-8) plus a
        JSON schema sidecar (default: path with a .schema.json suffix)."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(c.name for c in self.schema) + "\n")
            for start in range(0, self.n, CHUNK):
                cells = [_cells(col, self.columns[col.name][start:start + CHUNK])
                         for col in self.schema]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        write_json(self._sidecar(path, schema_path), self.schema_dict())

    def schema_dict(self) -> dict:
        return {
            "columns": [c.to_dict() for c in self.schema],
            "n": self.n,
            "seed": self.seed,
        }

    @staticmethod
    def _sidecar(path, schema_path):
        return schema_path if schema_path is not None else f"{path}.schema.json"

    @staticmethod
    def from_csv(path, schema_path=None) -> "Dataset":
        sidecar = Dataset._sidecar(path, schema_path)
        with open(sidecar, encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
                schema = tuple(Column.from_dict(d) for d in meta["columns"])
            except (ValueError, KeyError, TypeError) as exc:  # JSON errors are ValueErrors
                raise SchemaError(f"schema sidecar {sidecar} is malformed "
                                  f"({type(exc).__name__}: {exc})") from None
        expected = [c.name for c in schema]
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header != expected:
                raise SchemaError(f"CSV header {header} does not match schema columns {expected}")
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    raw = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
            except ValueError:
                raise _bad_cell(path, header) from None
        if raw.shape[0] == 0:
            raise SchemaError(f"CSV {path} has a header but no data rows")
        cols = {name: raw[:, j].copy() for j, name in enumerate(header)}
        return Dataset(schema, cols, seed=meta.get("seed"))

    def sha256(self) -> str:
        """Content hash over schema and column bytes, for provenance blocks."""
        import hashlib

        h = hashlib.sha256()
        h.update(json.dumps(self.schema_dict(), sort_keys=True).encode())
        for col in self.schema:
            h.update(np.ascontiguousarray(self.columns[col.name]).tobytes())
        return h.hexdigest()


def _cells(col: Column, values: np.ndarray):
    """CSV text of one column's values, the shortest round-tripping float for
    a real column. A discrete cell is written as the text of its level: an
    integer when every level of the column is integral, else a float."""
    if col.is_discrete:
        integral = all(level.is_integer() for level in col.levels)
        text = {level: str(int(level)) if integral else repr(level) for level in col.levels}
        return map(text.__getitem__, values.tolist())
    return map(float.__repr__, values.tolist())


def _bad_cell(path, names) -> SchemaError:
    """Locate the first CSV row that is ragged or holds a non-number; lines
    are counted from 1 with the header as line 1."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1 or not line.strip():
                continue
            cells = line.rstrip("\r\n").split(",")
            if len(cells) != len(names):
                return SchemaError(f"CSV line {line_no} has {len(cells)} cells, "
                                   f"expected {len(names)}")
            for name, cell in zip(names, cells):
                try:
                    float(cell)
                except ValueError:
                    return SchemaError(
                        f"CSV line {line_no}, column {name!r}: {cell!r} is not a number")
    return SchemaError(f"CSV {path} has rows that cannot be read as numbers")
