"""The seeded chunk driver: which stream each chunk draws from, and that no
command starts a thread, whatever --parallel asks for."""

import os
import threading

import numpy as np
import pytest

from spinlight.chunks import chunk_map
from spinlight.cli import main
from spinlight.experiment import CYCLE_CHUNK


def draw(rng, start, count):
    return start, count, rng.standard_normal(count)


@pytest.mark.parametrize("n_items", [1, 3, 4, 7, 9])
def test_chunk_i_draws_from_the_child_keyed_i(n_items):
    root = np.random.SeedSequence(5, spawn_key=(1,))
    got = list(chunk_map(draw, n_items, 3, root))
    starts = range(0, n_items, 3)
    assert len(got) == len(starts)
    for i, (start, (got_start, count, values)) in enumerate(zip(starts, got)):
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(1, i)))
        assert (got_start, count) == (start, min(3, n_items - start))
        assert values.tobytes() == rng.standard_normal(count).tobytes()
    # a longer run only appends chunks: the first ones do not depend on n_items
    longer = list(chunk_map(draw, n_items + 7, 3, root))
    for (_, count, values), (_, _, more) in zip(got[:-1], longer):
        assert count == 3 and values.tobytes() == more.tobytes()


@pytest.mark.parametrize("argv", [
    ("run", "--kappa2", "1", "--beta", "0.65", "--cycles", str(3 * CYCLE_CHUNK), "--out"),
    ("sweep", "--cycles", "1000", "--out"),
    ("timedomain", "--seed", "17", "--out"),  # a seed whose gates pass
    ("protocol", "--protocol", "swap", "--kappa2", "4", "--cycles", "100", "--out"),
    ("calibrate", "--out")], ids=lambda argv: argv[0])
def test_no_command_starts_a_thread(monkeypatch, capsys, tmp_path, argv):
    def outcome(workers):
        path = tmp_path / f"p{workers}.csv"
        code = main([*argv, str(path), "--parallel", workers])
        out, err = capsys.readouterr()
        return code, out.replace(str(path), "PATH"), err, path.exists() and path.read_bytes()

    serial = outcome("1")

    def refuse(thread):
        raise AssertionError(f"a thread was started: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert outcome("4") == serial
    assert serial[0] == 0
