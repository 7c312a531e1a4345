"""Fuzzing of the two framed-file loaders, `load_store` and `load_bundle`.

Truncations, single-byte flips and header edits (integers up to 1e9, values
of the wrong type, keys dropped or added) are applied to a tiny store and a
tiny bundle. Every truncation is refused. Any case either loads or raises
the loader's own format error (a flip inside a float block, or a new
`seed`, still makes a valid file). On every refused case the load's traced
peak stays under PEAK_PER_BYTE times the file's size plus PEAK_FLOOR, and
`drdt3 train` (store) or `drdt3 eval` (bundle) exits 1 with one `error:`
line and no traceback.

The loads and the CLI run in one child process under a 2 GB address-space
limit, so a loader that asks for what a corrupt header says fails the test
instead of exhausting the machine.
"""

import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdt3.bundle import fresh_bundle, save_bundle
from drdt3.config import parse_config_text
from drdt3.envs import generate_dataset
from drdt3.store_io import save_store

ADDRESS_SPACE = 2 * 10 ** 9
# A refused load's traced peak stays under PEAK_PER_BYTE times the file's
# size plus PEAK_FLOOR, the cost of any load (6 KiB for an empty file). A
# bundle whose config passes the size guard builds its model before the
# manifest and the block are checked. Over truncations and edits of each
# size field of the config to 0..199 (four noise variants, both envs, d=8
# and d=32), (peak - PEAK_FLOOR) / size was at most 5.1.
PEAK_PER_BYTE = 8
PEAK_FLOOR = 16 * 1024
TINY_CFG = """\
embed_dim = 8
n_heads = 1
cond_hidden = 8
time_embed_dim = 4
mlp_expansion = 2
max_episode_len = 32
batch_size = 8
epochs = 1
updates_per_epoch = 5
eval_episodes = 1
"""
ERRORS = {"store": "StoreFormatError", "bundle": "BundleFormatError"}

_CHILD = """
import contextlib, io, json, resource, sys, tracemalloc, traceback
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from drdt3.bundle import load_bundle
from drdt3.cli import main
from drdt3.store_io import load_store
loaders = {"store": load_store, "bundle": load_bundle}
for request in sys.stdin:
    kind, path, argv = json.loads(request)
    tracemalloc.start()
    try:
        loaders[kind](path)
        error = None
    except Exception as e:
        error = type(e).__name__
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rc, out = None, io.StringIO()
    if error is not None:
        with contextlib.redirect_stderr(out), contextlib.redirect_stdout(out):
            try:
                rc = main(argv)
            except Exception:
                traceback.print_exc()
    print(json.dumps([error, peak, rc, out.getvalue()]), flush=True)
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    store = generate_dataset("stitchchain", "stitch", 2, seed=0)
    save_store(store, root / "tiny.bin")
    save_bundle(fresh_bundle(parse_config_text(TINY_CFG), store),
                root / "tiny.drdt3")
    (root / "tiny.cfg").write_text(TINY_CFG)
    return root


@pytest.fixture(scope="module")
def child():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(ADDRESS_SPACE)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    yield proc
    proc.stdin.close()
    proc.wait(timeout=60)


def _run(child, files, kind, data):
    """Write `data` as a `kind` file and have the child load it, then, if
    the load was refused, run the CLI on it: (error name or None, traced
    peak of the load, exit code or None, CLI output)."""
    path = files / f"case.{kind}"
    path.write_bytes(data)
    argv = (["train", "--config", str(files / "tiny.cfg"), "--data",
             str(path), "--out", str(files / "run")] if kind == "store" else
            ["eval", "--bundle", str(path), "--episodes", "1"])
    child.stdin.write(json.dumps([kind, str(path), argv]) + "\n")
    child.stdin.flush()
    ready, _, _ = select.select([child.stdout], [], [], 120)
    line = child.stdout.readline() if ready else ""
    if not line:
        child.kill()
        pytest.fail(f"the child stopped: {child.stderr.read()}")
    return json.loads(line)


def _check(child, files, kind, data):
    error, peak, rc, out = _run(child, files, kind, data)
    assert error in (None, ERRORS[kind]), (error, out)
    if error is not None:
        assert peak < PEAK_PER_BYTE * len(data) + PEAK_FLOOR, (peak, out)
        assert rc == 1, out
        assert out.startswith("error:") and out.count("\n") == 1, out
    return error


def _original(files, kind):
    return (files / ("tiny.bin" if kind == "store" else "tiny.drdt3")
            ).read_bytes()


KINDS = pytest.mark.parametrize("kind", ["store", "bundle"])
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


@KINDS
@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncation_refused(child, files, kind, cut):
    data = _original(files, kind)
    assert _check(child, files, kind, data[:int(cut * len(data))])


@KINDS
@FUZZ
@given(where=st.floats(0.0, 1.0, exclude_max=True),
       header_only=st.booleans(), flip=st.integers(1, 255))
def test_byte_flip(child, files, kind, where, header_only, flip):
    data = _original(files, kind)
    span = data.index(b"}\n") + 2 if header_only else len(data)
    at = int(where * span)
    _check(child, files, kind,
           data[:at] + bytes([data[at] ^ flip]) + data[at + 1:])


_OTHER_VALUES = st.sampled_from([None, True, 1.5, -2, "x", [], {}, [1.0]])


def _header_edit(header):
    """Strategy: (path of keys, new value), where the path names an entry
    of the header or of a bundle's config, and a new value of None under a
    path ending in "-" drops the key."""
    paths = [(k,) for k in header] + [("config", k)
                                      for k in header.get("config", ())]
    ints = [p for p in paths if type(_at(header, p)) is int]
    return st.one_of(
        st.tuples(st.sampled_from(ints), st.integers(-10 ** 9, 10 ** 9)),
        st.tuples(st.sampled_from(paths), _OTHER_VALUES),
        st.tuples(st.sampled_from(paths).map(lambda p: p + ("-",)),
                  st.none()),
        st.tuples(st.sampled_from([("extra",)] + [
            ("config", "extra") for _ in header.get("config", ())][:1]),
            st.integers(0, 9)))


def _at(header, path):
    for key in path:
        header = header[key]
    return header


@KINDS
def test_header_edit(child, files, kind):
    magic, header, rest = _original(files, kind).split(b"\n", 2)
    fields = json.loads(header)

    @FUZZ
    @given(edit=_header_edit(fields))
    def case(edit):
        path, value = edit
        edited = json.loads(header)
        *parents, key = path[:-1] if path[-1] == "-" else path
        owner = _at(edited, parents)
        if path[-1] == "-":
            del owner[key]
        else:
            owner[key] = value
        text = json.dumps(edited, sort_keys=True, separators=(",", ":"))
        _check(child, files, kind,
               magic + b"\n" + text.encode() + b"\n" + rest)

    case()


@pytest.mark.parametrize("old, new", [
    (b'"embed_dim":8', b'"embed_dim":20000'),
    (b'"embed_dim":8', b'"embed_dim":1000'),
    (b'"max_episode_len":32', b'"max_episode_len":1000000000'),
    (b'"cond_hidden":8', b'"cond_hidden":1000000000'),
])
def test_config_larger_than_the_file_refused(child, files, old, new):
    """A config that builds more floats than the bundle's block holds is
    refused before any weight is drawn: 20000 asked for 2.98 GiB."""
    data = _original(files, "bundle")
    assert old in data
    error, peak, rc, out = _run(child, files, "bundle",
                                data.replace(old, new, 1))
    assert (error, rc) == ("BundleFormatError", 1), out
    assert "parameter block holds" in out
    assert peak < 4 * len(data)
