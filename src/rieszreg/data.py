"""Columnar datasets with typed schemas.

A Dataset is a small column-major table: one float64 array per column plus a
schema describing each column's role (covariate, treatment, mediator, outcome)
and support (binary, categorical with levels, real). CSV export writes a
sidecar JSON document holding the schema so files round-trip losslessly.
``forked_map`` shares independent items with forked children: the writers'
number text, and an estimate's network folds; ``fork_workers`` is its gate.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import sys
import warnings
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial

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


# Rows (CSV) or array items (JSON) formatted and written per part of at most
# CHUNK, so a writer never holds a whole file's text.
CHUNK = 65536


def fork_workers(parts: int) -> int:
    """Processes for ``parts`` independent parts: one per part up to the usable
    cores; 1 without ``os.fork`` or ``os.sched_getaffinity``, or in a
    multiprocessing child (e.g. a benchmark replicate), whose parent uses them."""
    pool = sys.modules.get("multiprocessing")  # loaded in every multiprocessing child
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or (
            pool and pool.parent_process()):
        return 1
    return max(1, min(parts, len(os.sched_getaffinity(0))))


def forked_map(fn, items):
    """Yield ``fn(item)`` for each of the sequence ``items``, in order. With w =
    ``fork_workers(len(items))`` > 1, forked child j computes items j, j + w, ... and
    pipes each result, or its error, pickled; the parent computes the rest, one ahead
    while a child works. A failed fork leaves its items to the parent; a missing
    result raises ``ChildProcessError``. Closing the generator reaps the children."""
    def outcomes(share, wrap=lambda outcome: outcome):
        for item in share:
            try:
                yield wrap((True, fn(item)))
            except Exception as exc:  # fn's error, or wrap's (a result pickle refuses)
                yield wrap((False, exc))

    workers, children, ahead = fork_workers(len(items)), {}, None
    try:
        for j in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the parent computes the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:  # each result pickled whole, then sent
                        for message in outcomes(items[j::workers], pickle.dumps):
                            pipe.write(message)
                            pipe.flush()  # else the parent waits on a result's tail
                finally:  # on an error too: a result not sent makes the parent raise
                    os._exit(0)
            os.close(write)
            children[j] = pid, open(read, "rb"), select.poll()  # poll: select caps fds at 1024
            children[j][2].register(read, select.POLLIN)
        own = outcomes([item for i, item in enumerate(items) if i % workers not in children])
        for i in range(len(items)):
            if i % workers not in children:
                (ok, result), ahead = ahead or next(own), None
            else:
                _, pipe, arriving = children[i % workers]
                if ahead is None and not arriving.poll(0):
                    ahead = next(own, None)  # the parent's next result, while the child works
                try:
                    ok, result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise ChildProcessError(f"forked child ended before sending item {i}") from None
            if not ok:
                raise result
            yield result
    finally:
        for pid, pipe, _ in children.values():
            pipe.close()  # ends a child still sending
            os.waitpid(pid, 0)


def _parts(n: int) -> list[slice]:
    """``n`` items cut into equal parts of at most CHUNK items."""
    parts = max(1, -(-n // CHUNK))
    return [slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


def write_json(path, payload) -> None:
    """The one JSON file layout: UTF-8, two-space indent, LF, final newline;
    byte-identical to ``json.dump(payload, fh, indent=2)`` plus a newline.

    ``json.dump`` with an indent runs the pure-Python encoder on every item.
    Here nonempty containers are laid out item by item, scalars and empty
    containers are ``json.dumps`` text, and a nonempty list of plain ints and
    floats is encoded by the C encoder, its ", " separators turned into
    indented line breaks, in equal parts of at most CHUNK items that
    ``forked_map`` shares out."""
    pieces = [*_json_pieces(payload, "\n"), "\n"]
    texts = forked_map(lambda part: part(), [piece for piece in pieces if callable(piece)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh, closing(texts):
        fh.writelines(next(texts) if callable(piece) else piece for piece in pieces)


def _json_pieces(value, margin: str):
    """The text of ``value`` in the indent=2 layout, as strings and parts;
    ``margin`` is a newline plus the indent of the line its closing bracket
    goes on."""
    inner = margin + "  "
    if not isinstance(value, (dict, list, tuple)) or not value:
        yield json.dumps(value)
    elif isinstance(value, dict):  # each key as the encoder writes it, which coerces
        for i, (key, item) in enumerate(value.items()):  # int, float, bool and None keys
            yield ("," if i else "{") + inner + json.dumps({key: 0})[1:-4] + ": "
            yield from _json_pieces(item, inner)
        yield margin + "}"
    elif set(map(type, value)) <= {int, float}:  # a number array: the C encoder per part
        yield from (partial(_numbers, value, part, inner) for part in _parts(len(value)))
        yield margin + "]"
    else:
        for i, item in enumerate(value):
            yield ("," if i else "[") + inner
            yield from _json_pieces(item, inner)
        yield margin + "]"


def _numbers(value: list, part: slice, inner: str) -> str:
    """A part of a number array, each item on its own line."""
    text = json.dumps(value[part])[1:-1]
    return ("," if part.start else "[") + inner + text.replace(", ", "," + inner)


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
            levels = tuple(float(v) for v in self.levels)
            if len(levels) < 2 or len(set(levels)) < len(levels):
                raise SchemaError(f"categorical column {self.name!r} needs >= 2 distinct levels")
            object.__setattr__(self, "levels", levels)

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
        JSON schema sidecar (default: path with a .schema.json suffix). The
        rows are formatted in equal parts of at most CHUNK rows, which
        ``forked_map`` shares out; the bytes are the same."""
        rows = forked_map(self._rows, _parts(self.n))
        with open(path, "w", encoding="utf-8", newline="\n") as fh, closing(rows):
            fh.write(",".join(c.name for c in self.schema) + "\n")
            fh.writelines(rows)
        write_json(self._sidecar(path, schema_path), self.schema_dict())

    def _rows(self, rows: slice) -> str:
        cells = [_cells(col, self.columns[col.name][rows]) for col in self.schema]
        return "\n".join(map(",".join, zip(*cells))) + "\n"

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
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
                if header != expected:
                    raise SchemaError(f"CSV header {header} does not match schema {expected}")
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    raw = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)  # "#" is data
        except UnicodeDecodeError as exc:
            raise SchemaError(f"CSV {path} is not UTF-8 text ({exc})") from None
        except ValueError:
            raise _bad_cell(path, header) from None
        if raw.shape[0] == 0:
            raise SchemaError(f"CSV {path} has a header but no data rows")
        if meta.get("n", raw.shape[0]) != raw.shape[0]:
            raise SchemaError(f"CSV {path} has {raw.shape[0]} data rows, but its schema "
                              f"sidecar {sidecar} records n = {meta['n']}")
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
    """Locate the first CSV row that is ragged or holds a non-number, as the
    reader's ``np.loadtxt`` parses cells (Python's ``float`` also takes
    ``0_0``); lines are counted from 1 with the header as line 1."""
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
                    with warnings.catch_warnings():  # an empty cell reads as no data
                        warnings.simplefilter("ignore")
                        np.loadtxt([cell], delimiter=",", comments=None).item()
                except ValueError:
                    return SchemaError(
                        f"CSV line {line_no}, column {name!r}: {cell!r} is not a number")
    return SchemaError(f"CSV {path} has rows that cannot be read as numbers")
