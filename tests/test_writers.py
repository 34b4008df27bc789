"""The writers' second process: ``write_json`` and ``Dataset.to_csv`` write
the same bytes whether a forked child formats every other part or not, a
failing child makes the write raise, and no child outlives a write."""

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rieszreg import data as data_module
from rieszreg.data import Column, Dataset, fork_workers, write_json

CHUNK = 8  # items or rows per part, so that small payloads span many parts
LENGTHS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)


def _payload() -> dict:
    rng = np.random.default_rng(5)
    mixed = [i if i % 3 else float(x) for i, x in enumerate(rng.normal(size=3 * CHUNK + 7))]
    return {**{f"length {k}": rng.normal(size=k).tolist() for k in LENGTHS},
            "mixed": mixed, "specials": [-0.0, 1e-05, 1e+16, 0, -3] * (CHUNK // 2 + 1),
            "nested": [rng.normal(size=2 * CHUNK + 1).tolist(),
                       {"inner": list(range(CHUNK + 1)), "empty": []}, [True, None, 0.5]],
            "scalar": 1.5, "text": "é"}


def _dataset() -> Dataset:
    rng = np.random.default_rng(6)
    n = 3 * CHUNK + 7
    schema = (Column("A", "treatment", "binary"),
              Column("G", "covariate", "categorical", (-2.0, 5.0, 7.0)),
              Column("H", "covariate", "categorical", (0.25, 1.5)),
              Column("Y", "outcome", "real"))
    return Dataset(schema, {"A": rng.integers(0, 2, n), "G": rng.choice((-2.0, 5.0, 7.0), n),
                            "H": rng.choice((0.25, 1.5), n), "Y": rng.normal(size=n) * 1e8})


WRITERS = {"json": lambda path: write_json(path, _payload()),
           "csv": lambda path: _dataset().to_csv(path)}


@pytest.fixture
def forked(monkeypatch):
    """Small parts and a switch: ``forked(True)`` lets a write fork its second
    process on any core count, ``forked(False)`` keeps it serial. Returns the
    list of the pids the writes forked."""
    monkeypatch.setattr(data_module, "CHUNK", CHUNK)
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)

    def switch(on: bool) -> list:
        workers = 2 if on else 1
        monkeypatch.setattr(data_module, "fork_workers",
                            lambda parts: max(1, min(parts, workers)))
        return pids

    return switch


def _assert_reaped(pids):
    assert multiprocessing.active_children() == []
    for pid in pids:  # reaped already, so not a child any more
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("on", [False, True], ids=["serial", "forked"])
def test_write_json_equals_indented_dump(tmp_path, forked, on):
    pids = forked(on)
    write_json(tmp_path / "r.json", _payload())
    assert (tmp_path / "r.json").read_bytes() == (
        json.dumps(_payload(), indent=2) + "\n").encode()
    assert len(pids) == on
    _assert_reaped(pids)


def test_to_csv_is_the_same_on_both_paths(tmp_path, forked):
    files = []
    for on in (False, True):
        pids = forked(on)
        path = tmp_path / f"{on}.csv"
        _dataset().to_csv(path)
        files.append((path.read_bytes(), (tmp_path / f"{on}.csv.schema.json").read_bytes()))
        back = Dataset.from_csv(path)
        assert back.schema == _dataset().schema
        for name, column in _dataset().columns.items():
            assert np.array_equal(back.column(name), column)
    assert files[0] == files[1]
    assert len(pids) == 2  # the rows, and the sidecar's two lists of levels
    _assert_reaped(pids)


@pytest.mark.parametrize("writer", list(WRITERS))
@pytest.mark.parametrize("side", ["child", "parent"])
def test_a_failing_part_makes_the_write_raise(tmp_path, forked, monkeypatch, writer, side):
    pids, parent = forked(True), os.getpid()
    name, owner = ("_numbers", data_module) if writer == "json" else ("_rows", Dataset)
    formatter = getattr(owner, name)

    def failing(*args):  # the parent fails only once its child is running
        if os.getpid() != parent if side == "child" else pids:
            raise RuntimeError("formatter failed")
        return formatter(*args)

    monkeypatch.setattr(owner, name, failing)
    error = ChildProcessError if side == "child" else RuntimeError
    with pytest.raises(error):
        WRITERS[writer](tmp_path / "out")
    assert len(pids) == 1
    _assert_reaped(pids)


def test_a_failed_fork_leaves_the_write_serial(tmp_path, forked, monkeypatch):
    forked(False)
    for name, write in WRITERS.items():
        write(tmp_path / f"{name}.serial")

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    forked(True)
    monkeypatch.setattr(os, "fork", no_fork)
    for name, write in WRITERS.items():
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == (tmp_path / f"{name}.serial").read_bytes()


def _forks_during_write(path: str) -> int:
    """The forks a write of many parts makes in a process-pool worker."""
    data_module.CHUNK = CHUNK  # this worker's own module
    forks = []
    os.register_at_fork(before=lambda: forks.append(1))
    write_json(path, _payload())
    return len(forks)


def test_write_in_a_pool_worker_forks_nothing(tmp_path):
    path = tmp_path / "r.json"
    with ProcessPoolExecutor(1) as pool:
        assert pool.submit(_forks_during_write, str(path)).result(timeout=120) == 0
    assert path.read_bytes() == (json.dumps(_payload(), indent=2) + "\n").encode()


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_gate_is_serial_without_fork_or_affinity(monkeypatch, missing):
    monkeypatch.delattr(os, missing)
    assert fork_workers(5) == 1


def test_gate_is_serial_for_one_part():
    assert fork_workers(0) == fork_workers(1) == 1
    assert fork_workers(5) == min(5, len(os.sched_getaffinity(0)))
