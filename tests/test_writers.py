"""The forked map and the writers on it: ``forked_map`` yields what ``map``
does, errors included; ``write_json`` and ``Dataset.to_csv`` write the same
bytes whether a forked child formats every other part or not, a failing
child makes the write raise, and no child outlives a write."""

import json
import os
import pickle
import resource
import time

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st

from rieszreg import data as data_module
from rieszreg.data import Column, Dataset, fork_workers, forked_map, write_json

from conftest import count_forks

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
    pids = count_forks(monkeypatch)

    def switch(on: bool) -> list:
        workers = 2 if on else 1
        monkeypatch.setattr(data_module, "fork_workers",
                            lambda parts: max(1, min(parts, workers)))
        return pids

    return switch


def _assert_reaped(pids):
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
@pytest.mark.parametrize("side", ["child", "parent", "dead child"])
def test_a_failing_part_makes_the_write_raise(tmp_path, forked, monkeypatch, writer, side):
    pids, parent = forked(True), os.getpid()
    name, owner = ("_numbers", data_module) if writer == "json" else ("_rows", Dataset)
    formatter = getattr(owner, name)

    def failing(*args):  # the parent fails only once its child is running
        if side == "parent" and pids:
            raise RuntimeError("formatter failed")
        if side != "parent" and os.getpid() != parent:
            if side == "dead child":
                os._exit(9)
            raise RuntimeError("formatter failed")
        return formatter(*args)

    monkeypatch.setattr(owner, name, failing)
    error = ChildProcessError if side == "dead child" else RuntimeError
    with pytest.raises(error, match="ended before sending item" if side == "dead child"
                       else "formatter failed"):
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


def _outcome(results) -> tuple:
    """(the list of ``results``, or the type and message of its first error)."""
    try:
        return list(results), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@hypothesis_settings(max_examples=60, deadline=None, derandomize=True)
@given(count=st.integers(0, 12), workers=st.integers(1, 4),
       raising=st.lists(st.integers(0, 11), max_size=2, unique=True))
def test_forked_map_equals_map(count, workers, raising):
    def fn(i):  # whether an error is raised in the parent or a child is i % workers
        if i in raising:
            raise (KeyError if i % 2 else ValueError)(f"item {i}")
        return {"item": i, "third": i / 3, "text": "é" * i}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "fork_workers", lambda parts: max(1, min(parts, workers)))
        pids = count_forks(patch)
        assert _outcome(forked_map(fn, range(count))) == _outcome(map(fn, range(count)))
    assert len(pids) == max(0, min(count, workers) - 1)
    _assert_reaped(pids)


def test_the_parent_works_ahead_yet_raises_in_item_order(forked):
    pids, parent, made = forked(True), os.getpid(), []

    def fn(i):
        if os.getpid() != parent:  # items 1 and 3
            time.sleep(0.2)  # so the parent reaches item 1 before it is sent
            raise KeyError(f"item {i}")
        made.append(i)
        if i == 2:
            raise ValueError("item 2")
        return i

    with pytest.raises(KeyError, match="item 1"):
        list(forked_map(fn, range(4)))
    assert made == [0, 2]  # item 2 was made while the child worked on item 1
    _assert_reaped(pids)


def test_an_unpicklable_result_is_sent_as_its_error(forked):
    pids = forked(True)
    results = forked_map(lambda i: (lambda: i) if i == 1 else i, [0, 1, 2, 3])
    assert next(results) == 0
    with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
        next(results)
    assert len(pids) == 1
    _assert_reaped(pids)


def test_a_pipe_past_descriptor_1024_is_read(tmp_path, forked):
    # select() refuses descriptors from FD_SETSIZE (1024) on, so the map polls
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("the descriptor limit is below 1200")
    pids, held = forked(True), [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
    try:
        write_json(tmp_path / "r.json", _payload())
    finally:
        for fd in held:
            os.close(fd)
    assert (tmp_path / "r.json").read_bytes() == (json.dumps(_payload(), indent=2) + "\n").encode()
    assert len(pids) == 1
    _assert_reaped(pids)


def test_a_write_in_a_map_forks_nothing(tmp_path, forked):
    """Maps never nest: a write of many parts run as a forked map's item, in the
    child or in the parent while the child runs, formats every part in process;
    once the outer map ends, a write forks again."""
    pids, parent = forked(True), os.getpid()

    def write(item: int) -> tuple:
        before = len(pids)
        write_json(tmp_path / f"{item}.json", _payload())
        return len(pids) - before, os.getpid()  # counted once the write is done

    done = list(forked_map(write, [0, 1]))
    assert len(pids) == 1 and done == [(0, parent), (0, pids[0])]
    assert write(2) == (1, parent)
    for item in range(3):
        assert (tmp_path / f"{item}.json").read_bytes() == (
            json.dumps(_payload(), indent=2) + "\n").encode()
    _assert_reaped(pids)


@pytest.mark.parametrize("processes,forks", [(None, 3), (1, 0), (2, 1), (9, 3)])
def test_processes_caps_the_forks(monkeypatch, processes, forks):
    monkeypatch.setattr(data_module, "fork_workers", lambda parts: min(parts, 4))
    pids = count_forks(monkeypatch)
    assert list(forked_map(lambda i: i * i, range(6), processes)) == [i * i for i in range(6)]
    assert len(pids) == forks
    _assert_reaped(pids)


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_gate_is_serial_without_fork_or_affinity(monkeypatch, missing):
    monkeypatch.delattr(os, missing)
    assert fork_workers(5) == 1


def test_gate_is_serial_for_one_part():
    assert fork_workers(0) == fork_workers(1) == 1
    assert fork_workers(5) == min(5, len(os.sched_getaffinity(0)))


def test_gate_grants_one_process_while_a_map_forks(forked):
    # so a forked benchmark replicate trains its network folds as one group
    pids = forked(True)
    assert list(forked_map(lambda item: fork_workers(5), [0, 1])) == [1, 1]
    assert len(pids) == 1
    assert fork_workers(5) == min(5, len(os.sched_getaffinity(0)))
    _assert_reaped(pids)
