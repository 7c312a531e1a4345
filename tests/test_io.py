import json

import numpy as np
import pytest

from drdt3.bundle import (BundleFormatError, fresh_bundle, load_bundle,
                          save_bundle)
from drdt3.config import TrainConfig
from drdt3.envs import Trajectory, TrajectoryStore, generate_dataset
from drdt3.store_io import (StoreFormatError, export_text, load_store,
                            save_store)


@pytest.fixture(scope="module")
def store():
    return generate_dataset("stitchchain", "stitch", 6, seed=0)


@pytest.fixture(scope="module")
def tiny_config():
    return TrainConfig(embed_dim=8, n_heads=1, max_episode_len=32,
                       cond_hidden=8, time_embed_dim=4,
                       mlp_expansion=2).validate()


def _rewrite_header(path, mutate):
    """Apply `mutate` to the JSON header of a saved store, in place."""
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    mutate(fields)
    path.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n"
                     + rest)


def _rewrite_bundle(path, mutate):
    """Apply `mutate` to the bundle's list of (manifest entry, parameter
    bytes) pairs and write the bundle back with the entries and blocks it
    returns, in that order."""
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    blocks, at = [], 0
    for entry in fields["manifest"]:
        size = 8 * int(np.prod(entry[1]))
        blocks.append((entry, rest[at:at + size]))
        at += size
    blocks = mutate(blocks)
    fields["manifest"] = [entry for entry, _ in blocks]
    path.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n"
                     + b"".join(data for _, data in blocks))


def _unchanged_by_failed_write(tmp_path, save, good, broken):
    """Save `good`, then fail halfway through saving `broken` to the same
    path: the old file must survive byte for byte, with no temp file left."""
    p = tmp_path / "target"
    save(good, p)
    before = p.read_bytes()
    with pytest.raises(ValueError):
        save(broken, p)
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["target"]


class TestStoreRoundTrip:
    def test_save_load_save_byte_identical(self, store, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_store(store, p1)
        save_store(load_store(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_preserved(self, store, tmp_path):
        p = tmp_path / "s.bin"
        save_store(store, p)
        loaded = load_store(p)
        assert loaded.count == store.count
        for a, b in zip(store.trajectories, loaded.trajectories):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.actions, b.actions)
            assert np.array_equal(a.rewards, b.rewards)
            assert np.array_equal(a.rtgs, b.rtgs)  # recomputed on load

    def test_truncated_file_rejected_without_partial_store(self, store,
                                                           tmp_path):
        p = tmp_path / "t.bin"
        save_store(store, p)
        data = p.read_bytes()
        p.write_bytes(data[:len(data) - 16])
        with pytest.raises(StoreFormatError, match="truncated"):
            load_store(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"drdt3/9\nxxxx")
        with pytest.raises(StoreFormatError, match="magic"):
            load_store(p)

    def test_empty_store_round_trip(self, tmp_path):
        empty = TrajectoryStore("pointreach", 4, 2)
        p = tmp_path / "e.bin"
        save_store(empty, p)
        loaded = load_store(p)
        assert loaded.env_id == "pointreach"
        assert loaded.d_s == 4 and loaded.d_a == 2
        assert loaded.count == 0

    def test_trailing_bytes_rejected(self, store, tmp_path):
        p = tmp_path / "x.bin"
        save_store(store, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(StoreFormatError, match="trailing"):
            load_store(p)

    @pytest.mark.parametrize("key", ["env_id", "d_s", "d_a", "n_traj"])
    def test_header_missing_key_rejected(self, store, tmp_path, key):
        p = tmp_path / "h.bin"
        save_store(store, p)
        _rewrite_header(p, lambda h: h.pop(key))
        with pytest.raises(StoreFormatError, match=key):
            load_store(p)

    @pytest.mark.parametrize("key, value", [("d_s", "3"), ("d_a", 2.5),
                                            ("n_traj", None), ("d_s", True)])
    def test_header_non_integer_rejected(self, store, tmp_path, key, value):
        p = tmp_path / "n.bin"
        save_store(store, p)
        _rewrite_header(p, lambda h: h.update({key: value}))
        with pytest.raises(StoreFormatError, match=key):
            load_store(p)

    @pytest.mark.parametrize("key, value, n_records", [
        ("n_traj", -1, 0), ("d_s", 0, 6), ("d_s", -1, 6), ("d_a", 0, 6)])
    def test_header_out_of_range_rejected(self, store, tmp_path, key, value,
                                          n_records):
        p = tmp_path / "r.bin"
        save_store(TrajectoryStore(store.env_id, store.d_s, store.d_a,
                                   store.trajectories[:n_records]), p)
        _rewrite_header(p, lambda h: h.update({key: value}))
        with pytest.raises(StoreFormatError, match=key):
            load_store(p)

    @pytest.mark.parametrize("line", [b"traj x7\n", b"traj 7.5\n",
                                      b"traj\n"])
    def test_non_integer_trajectory_length_rejected(self, store, tmp_path,
                                                    line):
        p = tmp_path / "l.bin"
        save_store(store, p)
        magic, header, rest = p.read_bytes().split(b"\n", 2)
        first = rest.index(b"\n") + 1
        p.write_bytes(magic + b"\n" + header + b"\n" + line + rest[first:])
        with pytest.raises(StoreFormatError, match="trajectory"):
            load_store(p)

    def test_failed_write_keeps_old_file(self, store, tmp_path):
        broken = TrajectoryStore(store.env_id, store.d_s, store.d_a,
                                 store.trajectories)
        last = store.trajectories[-1]
        bad = Trajectory(last.states, last.actions, last.rewards)
        bad.rewards = np.array(["not a float"] * last.length)
        broken.trajectories[-1] = bad
        _unchanged_by_failed_write(tmp_path, save_store, store, broken)

    def test_text_export(self, store, tmp_path):
        p = tmp_path / "s.jsonl"
        export_text(store, p)
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["n_traj"] == store.count
        rec = json.loads(lines[1])
        assert np.allclose(rec["rewards"], store.trajectories[0].rewards)


class TestBundleRoundTrip:
    def test_save_load_save_byte_identical(self, store, tiny_config, tmp_path):
        b = fresh_bundle(tiny_config, store)
        p1, p2 = tmp_path / "a.drdt3", tmp_path / "b.drdt3"
        save_bundle(b, p1)
        save_bundle(load_bundle(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parameters_preserved(self, store, tiny_config, tmp_path):
        b = fresh_bundle(tiny_config, store)
        p = tmp_path / "c.drdt3"
        save_bundle(b, p)
        loaded = load_bundle(p)
        orig = dict(b.named_params())
        for name, param in loaded.named_params():
            assert np.array_equal(param.data, orig[name].data), name
        assert loaded.rtg_norm == b.rtg_norm
        assert loaded.initial_return == b.initial_return
        assert np.array_equal(loaded.state_mean, b.state_mean)

    def test_config_snapshot_rebuilds_identical_shapes(self, store,
                                                       tiny_config, tmp_path):
        b = fresh_bundle(tiny_config, store)
        p = tmp_path / "d.drdt3"
        save_bundle(b, p)
        loaded = load_bundle(p)
        assert [(n, q.data.shape) for n, q in loaded.named_params()] \
            == [(n, q.data.shape) for n, q in b.named_params()]

    def test_truncated_bundle_rejected(self, store, tiny_config, tmp_path):
        b = fresh_bundle(tiny_config, store)
        p = tmp_path / "e.drdt3"
        save_bundle(b, p)
        data = p.read_bytes()
        p.write_bytes(data[:len(data) - 8])
        with pytest.raises(BundleFormatError, match="truncated"):
            load_bundle(p)

    @pytest.mark.parametrize("old,new,match", [
        (b"drdt3-bundle/3", b"drdt3-bundle/1", "version mismatch"),
        (b"drdt3-bundle/3", b"drdt3-bundle/2", "version mismatch"),
        (b'{"config":', b'{"config"', "JSONDecodeError"),
        (b'"config":{', b'"config":{"ttt_proj_rank":0,', "ttt_proj_rank"),
        (b'"objective":"unified",', b"", "objective"),
        (b'"d_s":1,', b"", "d_s"),
    ], ids=["v1-magic", "v2-magic", "mangled-json", "unknown-config-key",
            "missing-config-key", "missing-header-key"])
    def test_bad_header_rejected(self, store, tiny_config, tmp_path, old, new,
                                 match):
        p = tmp_path / "h.drdt3"
        save_bundle(fresh_bundle(tiny_config, store), p)
        data = p.read_bytes()
        assert 0 <= data.find(old) < data.index(b"}\n")  # in the header
        p.write_bytes(data.replace(old, new, 1))
        with pytest.raises(BundleFormatError, match=match):
            load_bundle(p)

    @pytest.mark.parametrize("mutate", [
        lambda bs: [b for b in bs if b[0][0] != "noise.out.b"],
        lambda bs: [([n, shape[::-1]] if n == "dt3.proj_rtg.w" else [n, shape],
                     data) for (n, shape), data in bs],
        lambda bs: bs + bs[-1:],
        lambda bs: [bs[1], bs[0]] + bs[2:],
    ], ids=["entry-missing", "shape-transposed", "entry-repeated",
            "entries-reordered"])
    def test_manifest_must_match_config(self, store, tiny_config, tmp_path,
                                        mutate):
        p = tmp_path / "m.drdt3"
        b = fresh_bundle(tiny_config, store)
        assert dict(b.named_params())["dt3.proj_rtg.w"].data.shape == (1, 8)
        save_bundle(b, p)
        _rewrite_bundle(p, mutate)
        with pytest.raises(BundleFormatError, match="manifest"):
            load_bundle(p)

    def test_failed_write_keeps_old_file(self, store, tiny_config, tmp_path):
        good, broken = (fresh_bundle(tiny_config, store) for _ in range(2))
        broken.noise.out.b.data = np.array(["not a float"])
        _unchanged_by_failed_write(tmp_path, save_bundle, good, broken)

    def test_reloaded_bundle_evaluates_identically(self, store, tiny_config,
                                                   tmp_path):
        from drdt3.training import evaluate_bundle
        b = fresh_bundle(tiny_config, store)
        p = tmp_path / "f.drdt3"
        save_bundle(b, p)
        loaded = load_bundle(p)
        r1 = evaluate_bundle(b, episodes=2, seed=3)
        r2 = evaluate_bundle(loaded, episodes=2, seed=3)
        assert r1 == r2

    def test_config_hash_stable(self, store, tiny_config):
        b1 = fresh_bundle(tiny_config, store)
        b2 = fresh_bundle(tiny_config, store)
        assert b1.config_hash() == b2.config_hash()
