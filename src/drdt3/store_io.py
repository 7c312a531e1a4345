"""Trajectory store persistence, and the one reader of the file frame that
stores and policy bundles share.

The frame: a text magic line, one canonical JSON header line, then a body
of little-endian float64 blocks. A store's body is, per trajectory, a
`traj <T>` line followed by its states/actions/rewards as row-major blocks.
Returns-to-go are derived, never stored. A JSON-lines text export is
provided for interop and debugging.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import types

import numpy as np

from .envs import ENVS, Trajectory, TrajectoryStore

MAGIC = b"drdt3/1\n"
MAX_HEADER_BYTES = 1 << 16
MAX_RECORD_BYTES = 64

# A store header's keys and their types, as `has_type` reads them.
_SCHEMA = {"env_id": str, "d_s": int, "d_a": int, "n_traj": int,
           "state_mean": list[float], "state_std": list[float],
           "max_abs_return": float}


class StoreFormatError(ValueError):
    """Raised for version mismatch, truncation, or inconsistent dimensions."""


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def atomic_write(path):
    """Binary file handle for writing `path` whole or not at all: the bytes
    go to a temp file in the same directory, which replaces `path` only
    once the block has finished; if it raises, `path` is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_store(store, path):
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        header = {
            "env_id": store.env_id,
            "d_s": store.d_s,
            "d_a": store.d_a,
            "n_traj": store.count,
            "state_mean": list(store.state_mean),
            "state_std": list(store.state_std),
            "max_abs_return": store.max_abs_return,
        }
        fh.write(_canonical_json(header).encode() + b"\n")
        for t in store.trajectories:
            fh.write(b"traj %d\n" % t.length)
            fh.write(np.ascontiguousarray(t.states, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(t.actions, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(t.rewards, dtype="<f8").tobytes())


def has_type(value, typ):
    """Whether `value` is of the declared type `typ`: bool and int do not
    stand in for each other, an int stands in for a float, and `list[t]` is
    a list whose every item is a `t`."""
    if isinstance(typ, types.GenericAlias):
        return isinstance(value, list) and all(
            has_type(v, typ.__args__[0]) for v in value)
    if typ is float:
        typ = (int, float)
    return isinstance(value, typ) and (typ is bool) == isinstance(value, bool)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


class Frame:
    """Reader of one framed file, open as `fh`. Construction checks the
    magic and parses the header against `schema` (key -> type, as
    `has_type` takes it); the body is then read record by record. Each read
    is refused before it is made if it asks for more bytes than the file
    has left, so a corrupt length cannot ask for an allocation that the
    file could never fill. Every failure raises `error`, the caller's
    format error."""

    def __init__(self, fh, magic, schema, error):
        self._fh, self._error = fh, error
        self._size = os.fstat(fh.fileno()).st_size
        got = fh.read(len(magic))
        if got != magic:
            raise error(f"bad magic {got!r}; expected {magic!r} "
                        "(version mismatch?)")
        line = self.line("header", MAX_HEADER_BYTES)
        try:
            # JSON also spells NaN and +-Infinity, and 1e999 parses to inf.
            header = json.loads(line.decode("utf-8"), parse_float=_finite,
                                parse_constant=_finite)
        except (ValueError, RecursionError) as e:
            raise error(f"unparseable header ({type(e).__name__}: {e})") \
                from None
        if not isinstance(header, dict):
            raise error("header is not a JSON object")
        for problem, keys in (("lacks", schema.keys() - header.keys()),
                              ("has unknown keys",
                               header.keys() - schema.keys())):
            if keys:
                raise error(f"header {problem} {', '.join(sorted(keys))}")
        for key, typ in schema.items():
            if not has_type(header[key], typ):
                name = typ.__name__ if isinstance(typ, type) else typ
                raise error(f"header {key} is not a {name}: {header[key]!r}")
        self.header = header

    @property
    def left(self):
        """Bytes of the file not read yet."""
        return self._size - self._fh.tell()

    def line(self, what, limit=MAX_RECORD_BYTES):
        """The next line, its newline included, of at most `limit` bytes."""
        line = self._fh.readline(min(limit, self.left))
        if not line.endswith(b"\n"):
            raise self._error(f"{what} is longer than {limit} bytes"
                              if len(line) == limit else
                              f"truncated file while reading {what}")
        return line

    def floats(self, n, what):
        """The next `n` float64 values, as a read-only array."""
        buf = self._fh.read(8 * n) if 0 <= 8 * n <= self.left else b""
        if len(buf) != 8 * n:
            raise self._error(f"truncated file while reading {what}")
        return np.frombuffer(buf, dtype="<f8")


@contextlib.contextmanager
def read_frame(path, magic, schema, error):
    """The `Frame` of the file at `path`, for the `with` block to read the
    body from; bytes still unread when that block ends raise `error`."""
    with open(path, "rb") as fh:
        frame = Frame(fh, magic, schema, error)
        yield frame
        if frame.left:
            raise error(f"{frame.left} trailing bytes after the last block")


def header_env(header, error):
    """The env class that a checked header's `env_id` names. Only the env's
    own dimensions can run in it, so the header's `d_s` and `d_a` must be
    the env's."""
    env = ENVS.get(header["env_id"])
    if env is None:
        raise error(f"unknown env {header['env_id']!r}: header env_id "
                    f"{header['env_id']!r} is not one of {', '.join(ENVS)}")
    d_s, d_a = header["d_s"], header["d_a"]
    if (d_s, d_a) != (env.d_s, env.d_a):
        raise error(f"header dims d_s={d_s}, d_a={d_a} differ from "
                    f"{env.env_id}'s d_s={env.d_s}, d_a={env.d_a}")
    return env


def load_store(path):
    with read_frame(path, MAGIC, _SCHEMA, StoreFormatError) as frame:
        env = header_env(frame.header, StoreFormatError)
        n_traj = frame.header["n_traj"]
        if n_traj < 0:
            raise StoreFormatError(f"header n_traj is {n_traj}; must be >= 0")
        trajs = []
        for j in range(n_traj):
            line = frame.line(f"trajectory {j} header")
            fields = line.split()
            if len(fields) != 2 or fields[0] != b"traj":
                raise StoreFormatError(f"bad trajectory record header {line!r}")
            try:
                t_len = int(fields[1])
            except ValueError:
                raise StoreFormatError(
                    f"trajectory {j} has non-integer length {fields[1]!r}"
                ) from None
            if t_len < 1:
                raise StoreFormatError(f"trajectory {j} has invalid length {t_len}")
            states = frame.floats(t_len * env.d_s, f"states of trajectory {j}")
            actions = frame.floats(t_len * env.d_a,
                                   f"actions of trajectory {j}")
            rewards = frame.floats(t_len, f"rewards of trajectory {j}")
            trajs.append(Trajectory(states.reshape(t_len, env.d_s),
                                    actions.reshape(t_len, env.d_a), rewards))
    return TrajectoryStore(env.env_id, env.d_s, env.d_a, trajs)


def export_text(store, path):
    """One JSON record per line: env header first, then each trajectory."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_canonical_json({
            "env_id": store.env_id, "d_s": store.d_s, "d_a": store.d_a,
            "n_traj": store.count,
        }) + "\n")
        for t in store.trajectories:
            fh.write(_canonical_json({
                "states": t.states.tolist(),
                "actions": t.actions.tolist(),
                "rewards": t.rewards.tolist(),
            }) + "\n")
