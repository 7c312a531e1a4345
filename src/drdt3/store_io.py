"""Trajectory store persistence.

Binary container: a text magic line, one canonical JSON header line, then per
trajectory a `traj <T>` line followed by states/actions/rewards as row-major
little-endian float64 blocks. Returns-to-go are derived, never stored.
A JSON-lines text export is provided for interop and debugging.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .envs import Trajectory, TrajectoryStore, env_class

MAGIC = b"drdt3/1\n"


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


def _read_exact(fh, n, size, what):
    """`n` bytes from `fh`, whose file is `size` bytes long. A request for
    more than the file has left is refused before it is read, so a corrupt
    length cannot ask for an allocation the file could never fill."""
    buf = fh.read(n) if n <= size - fh.tell() else b""
    if len(buf) != n:
        raise StoreFormatError(f"truncated file while reading {what}")
    return buf


def _read_line(fh, what):
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise StoreFormatError(f"truncated file while reading {what}")
    return line


_HEADER_KEYS = ("env_id", "d_s", "d_a", "n_traj")


def _header_int(header, key, minimum):
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise StoreFormatError(f"header {key} is not an integer: {value!r}")
    if value < minimum:
        raise StoreFormatError(f"header {key} is {value}; must be >= {minimum}")
    return value


def load_store(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise StoreFormatError(
                f"bad magic {magic!r}; expected {MAGIC!r} (version mismatch?)"
            )
        try:
            header = json.loads(_read_line(fh, "header"))
        except json.JSONDecodeError as e:
            raise StoreFormatError(f"unparseable header: {e}") from None
        if not isinstance(header, dict):
            raise StoreFormatError("header is not a JSON object")
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise StoreFormatError(f"header lacks {', '.join(missing)}")
        d_s, d_a, n_traj = (_header_int(header, k, low) for k, low in
                            (("d_s", 1), ("d_a", 1), ("n_traj", 0)))
        try:
            env = env_class(header["env_id"])
        except (ValueError, TypeError):
            raise StoreFormatError(
                f"header env_id {header['env_id']!r} is not a known env"
            ) from None
        if (d_s, d_a) != (env.d_s, env.d_a):
            raise StoreFormatError(
                f"header dims d_s={d_s}, d_a={d_a} differ from {env.env_id}'s "
                f"d_s={env.d_s}, d_a={env.d_a}")
        trajs = []
        for j in range(n_traj):
            line = _read_line(fh, f"trajectory {j} header")
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
            states = np.frombuffer(_read_exact(
                fh, 8 * t_len * d_s, size, f"states of trajectory {j}",
            ), dtype="<f8").reshape(t_len, d_s)
            actions = np.frombuffer(_read_exact(
                fh, 8 * t_len * d_a, size, f"actions of trajectory {j}",
            ), dtype="<f8").reshape(t_len, d_a)
            rewards = np.frombuffer(_read_exact(
                fh, 8 * t_len, size, f"rewards of trajectory {j}",
            ), dtype="<f8")
            trajs.append(Trajectory(states, actions, rewards))
        if fh.read(1):
            raise StoreFormatError("trailing bytes after the last trajectory")
    return TrajectoryStore(header["env_id"], d_s, d_a, trajs)


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
