import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from drdt3 import autodiff as ad
from drdt3 import checks
from drdt3.autodiff import DArray
from drdt3.cli import main
from drdt3.plotting import PlotError, moving_average, plot_metrics


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


ADDRESS_SPACE = 2 * 10 ** 9


def _main_under_address_limit(*argv):
    """`drdt3 *argv` in a child process whose address space is limited to
    ADDRESS_SPACE bytes, so that a count too large to allocate fails there
    instead of exhausting the machine."""
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, "
             f"{ADDRESS_SPACE}))\n"
             "from drdt3.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(ad.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", child, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120)


def _assert_one_error_line(proc):
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A dataset, config, and trained run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "stitch.bin"
    cfg = root / "tiny.cfg"
    run = root / "run"
    cfg.write_text(TINY_CFG)
    assert main(["gen-data", "--env", "stitchchain", "--tier", "stitch",
                 "--n-traj", "6", "--seed", "0", "--out", str(data)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(run)]) == 0
    return root


class TestGenData:
    def test_stitch_best_return_zero(self, tmp_path, capsys):
        rc = main(["gen-data", "--env", "stitchchain", "--tier", "stitch",
                   "--n-traj", "4", "--out", str(tmp_path / "d.bin")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best return: 1" in out  # teleported-start family reaches 8
        # ... but from the true start the best is zero:
        from drdt3.store_io import load_store
        store = load_store(tmp_path / "d.bin")
        from_zero = [t.ret for t in store.trajectories
                     if t.states[0, 0] == 0.0]
        assert max(from_zero) == 0.0

    def test_unsupported_env_tier_pair_exit_one(self, tmp_path, capsys,
                                                monkeypatch):
        """Both names are valid choices, but pointreach offers no stitch
        tier: exit 1 before any episode runs or any file is written."""
        from drdt3 import envs
        monkeypatch.setattr(envs, "run_lockstep", None)  # must not run
        rc = main(["gen-data", "--env", "pointreach", "--tier", "stitch",
                   "--n-traj", "4", "--out", str(tmp_path / "d.bin")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: pointreach has no tier 'stitch'")
        assert list(tmp_path.iterdir()) == []

    def test_choices_come_from_the_registries(self):
        from drdt3 import envs
        from drdt3.cli import build_parser
        commands = build_parser()._subparsers._group_actions[0].choices

        def choices(command, dest):
            return next(a.choices for a in commands[command]._actions
                        if a.dest == dest)

        assert choices("gen-data", "env") == list(envs.ENVS)
        assert set(choices("gen-data", "tier")) == {
            tier for cls in envs.ENVS.values() for tier in cls.tiers}
        assert choices("check", "scope") == [*checks.SCOPES, "all"]

    def test_zero_trajectories_is_an_error(self, tmp_path):
        rc = main(["gen-data", "--env", "stitchchain", "--tier", "stitch",
                   "--n-traj", "0", "--out", str(tmp_path / "d.bin")])
        assert rc != 0

    @pytest.mark.parametrize("env", ["pointreach", "stitchchain"])
    def test_count_too_large_to_allocate_exit_one(self, tmp_path, env):
        """A noisy-expert tier draws its (n_traj, t_max, d_a) noise block up
        front: a count whose block cannot be allocated ends in one `error:`
        line naming the option, not a traceback."""
        out = tmp_path / "d.bin"
        proc = _main_under_address_limit(
            "gen-data", "--env", env, "--tier", "medium", "--n-traj",
            10 ** 8, "--out", out)
        _assert_one_error_line(proc)
        assert "--n-traj" in proc.stderr and "allocate" in proc.stderr
        assert not out.exists()

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        for p in (a, b):
            assert main(["gen-data", "--env", "pointreach", "--tier",
                         "medium", "--n-traj", "3", "--seed", "5",
                         "--out", str(p)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_text_export_alongside(self, tmp_path):
        rc = main(["gen-data", "--env", "stitchchain", "--tier", "stitch",
                   "--n-traj", "4", "--out", str(tmp_path / "d.bin"),
                   "--text-out", str(tmp_path / "d.jsonl")])
        assert rc == 0
        assert (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--out", "--text-out"])
    def test_output_in_missing_dir_exit_one(self, tmp_path, capsys,
                                            monkeypatch, flag):
        """Both output paths are checked before the dataset is generated,
        and no store file is left behind."""
        from drdt3 import envs
        monkeypatch.setattr(envs, "generate_dataset", None)  # must not run
        paths = {"--out": tmp_path / "d.bin",
                 "--text-out": tmp_path / "d.jsonl"}
        paths[flag] = tmp_path / "missing" / "x"
        rc = main(["gen-data", "--env", "stitchchain", "--tier", "stitch",
                   "--n-traj", "4", "--out", str(paths["--out"]),
                   "--text-out", str(paths["--text-out"])])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and str(paths[flag]) in err
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_artifacts_written(self, workspace):
        run = workspace / "run"
        for name in ("bundle.drdt3", "updates.csv", "evals.csv",
                     "manifest.json"):
            assert (run / name).exists(), name

    def test_manifest_config_hash_matches_bundle(self, workspace):
        import json
        from drdt3.bundle import load_bundle
        manifest = json.loads((workspace / "run" / "manifest.json").read_text())
        bundle = load_bundle(workspace / "run" / "bundle.drdt3")
        assert manifest["config_hash"] == bundle.config_hash()

    def test_config_parse_error_exit_one(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        cases = [(f"embed_dim = 8\n{line}", named) for line, named in (
            ("not_a_field = 3", "not_a_field"),
            ("n_heads = 0", "n_heads"),
            ("batch_size = 0", "batch_size"),
            ("rtg_scale = 0", "rtg_scale"),
            ("rtg_scale = -1", "rtg_scale"),
            ("eval_episodes = -1", "eval_episodes"),
            ("epochs = 0", "epochs"),
            ("updates_per_epoch = 0", "updates_per_epoch"),
            ("seed = 1\nseed = 1", "seed"),
            ("max_episode_len = 0", "max_episode_len"),
            ("cond_hidden = 0", "cond_hidden"),
            ("mlp_expansion = 0", "mlp_expansion"),
            ("mlp_expansion = -1", "mlp_expansion"),
            ("time_embed_dim = 0", "time_embed_dim"),
            ("time_embed_dim = 1", "time_embed_dim"),
            ("time_embed_dim = 3", "time_embed_dim"),
            ("seed = -1", "seed"),
            ("weight_decay = -5", "weight_decay"),
            ("inner_lr = -3", "inner_lr"),
            ("grad_clip = -0.25", "grad_clip"),
            ("learning_rate = nan", "learning_rate"),
            ("zeta = inf", "zeta"),
            ("inner_lr = inf", "inner_lr"),
            ("grad_clip = nan", "grad_clip"),
            ("rtg_scale = inf", "rtg_scale"),
            ("beta_max = inf", "beta_max"),
            ("weight_decay = nan", "weight_decay"),
            ("context_len = 1000000000", "context_len"),
            ("n_diffusion_steps = 1000000000", "n_diffusion_steps"))]
        # Alone: after the `embed_dim = 8` line it would be a repeated key.
        cases.append(("embed_dim = 0", "embed_dim"))
        for text, named in cases:
            bad.write_text(text + "\n")
            rc = main(["train", "--config", str(bad),
                       "--data", str(workspace / "stitch.bin"),
                       "--out", str(tmp_path / "r")])
            assert rc == 1, text
            assert named in capsys.readouterr().err, text

    @pytest.mark.parametrize("name", ["config", "data"])
    def test_non_utf8_input_exit_one(self, workspace, tmp_path, capsys,
                                     name):
        """A config file or a store header holding a byte that is not
        UTF-8: exit 1 with the loader's message, no traceback."""
        inputs = {"config": workspace / "tiny.cfg",
                  "data": workspace / "stitch.bin"}
        bad = tmp_path / "bad"
        bad.write_bytes(
            inputs[name].read_bytes().replace(b"\n", b"\n\xff", 1))
        inputs[name] = bad
        rc = main(["train", "--config", str(inputs["config"]), "--data",
                   str(inputs["data"]), "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert "utf-8" in err.lower()

    @pytest.mark.parametrize("old, new", [
        (b'"n_traj":', b'"n_trajs":'),          # missing header key
        (b'"d_s":', b'"d_s":"three","x":'),     # non-integer header value
        (b"\ntraj ", b"\ntraj x"),              # non-integer trajectory length
        (b'"stitchchain"', b'"labyrinth"'),     # unknown env
        (b'"d_s":1,', b'"d_s":2,'),             # dims differ from the env's
        (b"\ntraj ", b"\ntraj 1000000000000000"),  # ~1e17 steps, past the end
    ], ids=["missing-key", "non-integer-header", "non-integer-length",
            "unknown-env", "dims-differ", "length-past-the-end"])
    def test_malformed_store_exit_one(self, workspace, tmp_path, capsys, old,
                                      new):
        data = (workspace / "stitch.bin").read_bytes()
        assert old in data
        bad = tmp_path / "bad.bin"
        bad.write_bytes(data.replace(old, new, 1))
        rc = main(["train", "--config", str(workspace / "tiny.cfg"),
                   "--data", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["empty-store", "episode-too-long"])
    def test_rejected_dataset_exit_one(self, workspace, tmp_path, capsys,
                                       case):
        from drdt3.envs import TrajectoryStore
        from drdt3.store_io import save_store
        data, cfg = workspace / "stitch.bin", workspace / "tiny.cfg"
        if case == "empty-store":
            data = tmp_path / "empty.bin"
            save_store(TrajectoryStore("stitchchain", 1, 1), data)
        else:  # stitch episodes last up to 20 steps
            cfg = tmp_path / "short.cfg"
            cfg.write_text(TINY_CFG.replace("max_episode_len = 32",
                                            "max_episode_len = 4"))
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err

    def test_nonfinite_eval_action_exit_one(self, workspace, tmp_path,
                                             capsys):
        """An RTG scale that would overflow the model in the per-epoch
        evaluation is rejected before the first update: exit 1, no numpy
        warning, no run written."""
        cfg = tmp_path / "huge-rtg.cfg"
        cfg.write_text(TINY_CFG + "rtg_scale = 1e308\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--config", str(cfg), "--data",
                       str(workspace / "stitch.bin"), "--out",
                       str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "represents at most" in err and "Traceback" not in err
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert not (tmp_path / "r" / "updates.csv").exists()

    def test_nonfinite_loss_exit_three(self, workspace, tmp_path, capsys):
        """A step so large that the next loss overflows aborts the run:
        exit 3, no traceback, and the checkpoint kept in --out loads."""
        from drdt3.bundle import load_bundle
        cfg, out = tmp_path / "huge-step.cfg", tmp_path / "r"
        cfg.write_text(TINY_CFG + "learning_rate = 1e300\ngrad_clip = 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # overflow
            rc = main(["train", "--config", str(cfg), "--data",
                       str(workspace / "stitch.bin"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("aborted:") and "Traceback" not in err
        load_bundle(out / "bundle.drdt3")

    def test_model_too_large_to_allocate_exit_one(self, workspace, tmp_path):
        """A model whose weights cannot be allocated ends in one `error:`
        line naming its size, not a traceback."""
        cfg, out = tmp_path / "huge-model.cfg", tmp_path / "r"
        cfg.write_text(TINY_CFG.replace("embed_dim = 8", "embed_dim = 100000"))
        proc = _main_under_address_limit(
            "train", "--config", cfg, "--data", workspace / "stitch.bin",
            "--out", out)
        _assert_one_error_line(proc)
        assert "embed_dim 100000" in proc.stderr
        assert "allocate" in proc.stderr
        assert not (out / "manifest.json").exists()

    def test_missing_data_exit_one(self, workspace, tmp_path):
        rc = main(["train", "--config", str(workspace / "tiny.cfg"),
                   "--data", str(tmp_path / "nope.bin"),
                   "--out", str(tmp_path / "r")])
        assert rc == 1

    def test_dt_mode_flagged_in_manifest(self, workspace, tmp_path):
        import json
        cfg = tmp_path / "dt.cfg"
        cfg.write_text(TINY_CFG + "dt_mode = true\n")
        out = tmp_path / "dtrun"
        assert main(["train", "--config", str(cfg),
                     "--data", str(workspace / "stitch.bin"),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dt_baseline"] is True

    def test_resume_continues_update_indices(self, workspace, tmp_path):
        out = tmp_path / "resume"
        args = ["train", "--config", str(workspace / "tiny.cfg"),
                "--data", str(workspace / "stitch.bin"), "--out", str(out)]
        assert main(args) == 0
        assert main(args + ["--resume"]) == 0
        with open(out / "updates.csv", newline="") as fh:
            idx = [int(r[0]) for r in list(csv.reader(fh))[1:]]
        assert idx == list(range(10))

    def test_resume_over_short_row_exit_one(self, workspace, tmp_path,
                                            capsys):
        out = tmp_path / "short"
        args = ["train", "--config", str(workspace / "tiny.cfg"),
                "--data", str(workspace / "stitch.bin"), "--out", str(out)]
        assert main(args) == 0
        with open(out / "updates.csv", "a") as fh:
            fh.write("5,0.1\n")
        capsys.readouterr()
        assert main(args + ["--resume"]) == 1
        err = capsys.readouterr().err
        assert "updates.csv, line 7" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", ["other-env", "other-dims"])
    def test_resume_over_other_dataset_exit_one(self, workspace, tmp_path,
                                                capsys, case):
        """A checkpoint only resumes over a dataset of its own env and
        dims; pointreach episodes (50 steps) fit the longer table. A
        checkpoint whose dims are not its env's is refused on load."""
        from drdt3.bundle import PolicyBundle, load_bundle, save_bundle
        from drdt3.envs import generate_dataset
        from drdt3.store_io import save_store
        cfg, out = tmp_path / "long.cfg", tmp_path / case
        cfg.write_text(TINY_CFG.replace("max_episode_len = 32",
                                        "max_episode_len = 64"))
        args = ["train", "--config", str(cfg),
                "--data", str(workspace / "stitch.bin"), "--out", str(out)]
        assert main(args) == 0
        if case == "other-env":
            args[4] = str(tmp_path / "pointreach.bin")
            save_store(generate_dataset("pointreach", "medium", 2, seed=0),
                       args[4])
        else:
            b = load_bundle(out / "bundle.drdt3")
            d_s = b.d_s + 1
            save_bundle(PolicyBundle(b.config, b.env_id, d_s, b.d_a,
                                     np.zeros(d_s), np.ones(d_s), b.rtg_norm,
                                     b.initial_return, b.seed),
                        out / "bundle.drdt3")
        capsys.readouterr()
        assert main(args + ["--resume"]) == 1
        err = capsys.readouterr().err
        message = {"other-env": "checkpoint is for",
                   "other-dims": "d_s=2, d_a=1 differ from stitchchain's"}
        assert message[case] in err and "Traceback" not in err

    @pytest.mark.parametrize("case", ["existing-file", "under-a-file"])
    def test_unusable_out_exit_one(self, workspace, tmp_path, capsys, case):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker if case == "existing-file" else blocker / "sub"
        rc = main(["train", "--config", str(workspace / "tiny.cfg"),
                   "--data", str(workspace / "stitch.bin"), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and str(out) in err
        assert blocker.read_text() == "not a directory\n"

    def test_resume_without_checkpoint_fails(self, workspace, tmp_path):
        rc = main(["train", "--config", str(workspace / "tiny.cfg"),
                   "--data", str(workspace / "stitch.bin"),
                   "--out", str(tmp_path / "fresh"), "--resume"])
        assert rc == 1


class TestEval:
    def test_eval_reproducible(self, workspace, capsys):
        bundle = str(workspace / "run" / "bundle.drdt3")
        outs = []
        for _ in range(2):
            assert main(["eval", "--bundle", bundle, "--episodes", "2",
                         "--seed", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_eta_changes_logged_g0(self, workspace, tmp_path):
        bundle = str(workspace / "run" / "bundle.drdt3")
        g0s = {}
        for eta in ("1.0", "2.0"):
            out = tmp_path / f"eval_{eta}.csv"
            assert main(["eval", "--bundle", bundle, "--episodes", "1",
                         "--eta", eta, "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                g0s[eta] = float(list(csv.reader(fh))[1][3])
        assert g0s["2.0"] == pytest.approx(2.0 * g0s["1.0"])

    def test_modes_both_run(self, workspace):
        bundle = str(workspace / "run" / "bundle.drdt3")
        for mode in ("drdt3", "dt3-only"):
            assert main(["eval", "--bundle", bundle, "--episodes", "1",
                         "--mode", mode]) == 0

    @pytest.mark.parametrize("flag,value", [("--episodes", "0"),
                                            ("--eta", "0"), ("--eta", "-1"),
                                            ("--eta", "inf")])
    def test_invalid_argument_exit_one(self, workspace, capsys, flag, value):
        bundle = str(workspace / "run" / "bundle.drdt3")
        rc = main(["eval", "--bundle", bundle, flag, value])
        assert rc == 1
        assert flag.lstrip("-") in capsys.readouterr().err

    def test_count_too_large_to_allocate_exit_one(self, workspace,
                                                  tmp_path):
        out = tmp_path / "e.csv"
        proc = _main_under_address_limit(
            "eval", "--bundle", workspace / "run" / "bundle.drdt3",
            "--episodes", 10 ** 12, "--out", out)
        _assert_one_error_line(proc)
        assert "--episodes" in proc.stderr and "allocate" in proc.stderr
        assert not out.exists()

    def test_diverged_checkpoint_prints_only_its_error(self, workspace,
                                                       tmp_path):
        """The checkpoint an overflowing run keeps has weights near 1e300:
        `drdt3 eval` on it exits 1 with one `error:` line on stderr and no
        numpy warning before it."""
        cfg, out = tmp_path / "huge-step.cfg", tmp_path / "r"
        cfg.write_text(TINY_CFG + "learning_rate = 1e300\ngrad_clip = 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # overflow
            assert main(["train", "--config", str(cfg), "--data",
                         str(workspace / "stitch.bin"), "--out",
                         str(out)]) == 3
        src = str(Path(ad.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from drdt3.cli import main; sys.exit(main())",
             "eval", "--bundle", str(out / "bundle.drdt3"), "--episodes", "1"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    @pytest.mark.parametrize("mode", ["drdt3", "dt3-only"])
    def test_nonfinite_action_exit_one(self, workspace, capsys, mode):
        """--eta 1e308 is finite but would overflow the model into NaN
        actions: it is rejected before any forward pass, with no numpy
        warning."""
        bundle = str(workspace / "run" / "bundle.drdt3")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eval", "--bundle", bundle, "--episodes", "1",
                       "--eta", "1e308", "--mode", mode])
        captured = capsys.readouterr()
        assert rc == 1 and "return:" not in captured.out
        assert captured.err.startswith("error: rtg scale eta 1e+308")
        assert "represents at most" in captured.err
        assert "Traceback" not in captured.err
        assert not [w for w in caught if w.category is RuntimeWarning]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("mode", ["drdt3", "dt3-only"])
    def test_trained_bundle_at_rtg_bound_acts_finitely(self, workspace, sign,
                                                       mode):
        """The trained bundle, started at +-MAX_RTG_START in model units,
        acts finitely with no numpy warning."""
        from drdt3.bundle import load_bundle
        from drdt3.envs import make_env, rollout
        from drdt3.training import MAX_RTG_START, rollout_policy
        bundle = load_bundle(str(workspace / "run" / "bundle.drdt3"))
        g0 = sign * MAX_RTG_START * bundle.rtg_norm
        traj = rollout(make_env(bundle.env_id), rollout_policy(
            bundle, g0, np.random.default_rng(0), mode))
        assert np.isfinite(traj.actions).all()

    def test_dense_env_success_is_expert_score(self, tmp_path, capsys,
                                               monkeypatch):
        """On pointreach every reward is negative, so success must be judged
        against the expert score, not against a positive return."""
        from drdt3 import training
        from drdt3.bundle import fresh_bundle, save_bundle
        from drdt3.config import parse_config_text
        from drdt3.envs import generate_dataset, make_env_spec
        store = generate_dataset("pointreach", "medium", 2, seed=0)
        path = tmp_path / "pr.drdt3"
        save_bundle(fresh_bundle(parse_config_text(TINY_CFG), store), path)
        expert = make_env_spec("pointreach").expert_score
        monkeypatch.setattr(training, "rollout",
                            lambda env, policy: SimpleNamespace(ret=expert))
        assert main(["eval", "--bundle", str(path), "--episodes", "2"]) == 0
        assert "success rate: 1.000" in capsys.readouterr().out

    def test_zero_episode_len_bundle_exit_one(self, tmp_path, capsys):
        """A bundle whose config allows no timestep is rejected on load."""
        import dataclasses
        from drdt3.bundle import fresh_bundle, save_bundle
        from drdt3.config import parse_config_text
        from drdt3.envs import generate_dataset
        store = generate_dataset("stitchchain", "stitch", 2, seed=0)
        cfg = dataclasses.replace(parse_config_text(TINY_CFG),
                                  max_episode_len=0)
        path = tmp_path / "zero.drdt3"
        save_bundle(fresh_bundle(cfg, store), path)
        assert main(["eval", "--bundle", str(path), "--episodes", "1"]) == 1
        err = capsys.readouterr().err
        assert "max_episode_len" in err and "Traceback" not in err

    @pytest.mark.parametrize("env_id, d_s, n_norm, message", [
        ("stitchchain", 3, 3, "d_s=3, d_a=1 differ from stitchchain's d_s=1, "
                              "d_a=1"),
        ("nowhere", 1, 1, "unknown env 'nowhere'"),
        ("stitchchain", 1, 3, "state_mean has 3 entries and state_std 3; "
                              "stitchchain's states have 1"),
    ])
    def test_bundle_its_env_cannot_run_exit_one(self, tmp_path, capsys,
                                                env_id, d_s, n_norm, message):
        """A bundle whose env is unknown, or whose dimensions or state
        normalization are not its env's, is rejected on load, before any
        episode runs."""
        from drdt3.bundle import PolicyBundle, save_bundle
        from drdt3.config import parse_config_text
        path = tmp_path / "odd.drdt3"
        save_bundle(PolicyBundle(parse_config_text(TINY_CFG), env_id, d_s, 1,
                                 np.zeros(n_norm), np.ones(n_norm), 1.0, 1.0,
                                 0),
                    path)
        assert main(["eval", "--bundle", str(path), "--episodes", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    def test_missing_bundle_exit_one(self, tmp_path):
        rc = main(["eval", "--bundle", str(tmp_path / "none.drdt3")])
        assert rc == 1

    def test_out_in_missing_dir_exit_one(self, workspace, tmp_path, capsys,
                                         monkeypatch):
        """The output path is checked before any episode runs."""
        from drdt3 import cli
        monkeypatch.setattr(cli, "evaluate_episodes", None)  # must not run
        out = tmp_path / "missing" / "x.csv"
        rc = main(["eval", "--bundle", str(workspace / "run" / "bundle.drdt3"),
                   "--episodes", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error:") and str(out) in captured.err
        assert not out.parent.exists()


class TestCheck:
    def test_numerics_scope_passes(self, capsys):
        assert main(["check", "--scope", "numerics"]) == 0
        assert "worst offender" in capsys.readouterr().out

    def test_corrupted_adjoint_detected(self, capsys, monkeypatch):
        """Negative control: breaking one adjoint must turn the check red
        and name the offending op."""
        true_gelu = ad.gelu

        def broken_gelu(x):
            out = true_gelu(x)
            if x.requires_grad:
                orig = out._backward

                def corrupt(g, acc):
                    orig(g * 1.01, acc)  # mis-scaled adjoint
                out._backward = corrupt
            return out

        monkeypatch.setattr(ad, "gelu", broken_gelu)
        rc = main(["check", "--scope", "numerics"])
        out = capsys.readouterr().out
        assert rc == 2
        assert any("gelu" in line and "FAIL" in line
                   for line in out.splitlines())


class TestPlot:
    def _write_csv(self, path, values):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["update_idx", "l_total"])
            w.writerows((i, v) for i, v in enumerate(values))

    def test_constant_metric_flat_line(self, tmp_path):
        src, out = tmp_path / "m.csv", tmp_path / "m.svg"
        self._write_csv(src, [2.0] * 20)
        assert main(["plot", "--metrics", str(src), "--out", str(out)]) == 0
        svg = out.read_text()
        ys = {pt.split(",")[1] for pt in
              svg.split('polyline points="')[1].split('"')[0].split()}
        assert len(ys) == 1  # every vertex at the same height

    def test_window_average_tail(self):
        vals = [0.0] * 9 + [10.0]
        assert moving_average(vals, 10)[-1] == pytest.approx(1.0)

    def test_empty_csv_error_no_file(self, tmp_path):
        src, out = tmp_path / "e.csv", tmp_path / "e.svg"
        src.write_text("")
        rc = main(["plot", "--metrics", str(src), "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_non_utf8_csv_exit_one(self, tmp_path, capsys):
        src, out = tmp_path / "m.csv", tmp_path / "m.svg"
        src.write_bytes(b"update_idx,l_total\n0,1.0\n1,\xff\n")
        rc = main(["plot", "--metrics", str(src), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "UTF-8" in err
        assert not out.exists()

    def test_malformed_row_diagnostic_names_row(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("update_idx,l_total\n0,1.0\n1\n")
        with pytest.raises(PlotError, match="row 3"):
            plot_metrics(str(src), str(tmp_path / "x.svg"))

    @pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("column", ["x", "plotted"])
    def test_non_finite_value_exit_one(self, tmp_path, capsys, column, bad):
        """A non-finite x or plotted value would reach the SVG as a `nan`
        coordinate; it is rejected with the row that holds it."""
        src, out = tmp_path / "m.csv", tmp_path / "m.svg"
        row = [bad, "1.0", "2.0", "3.0"] if column == "x" else \
            ["1", "1.0", "2.0", bad]
        src.write_text("update_idx,l_diff,l_dt3,l_total\n0,1.0,2.0,3.0\n"
                       + ",".join(row) + "\n")
        rc = main(["plot", "--metrics", str(src), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: row 3") and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--column", "nope"], "'nope'"),
        (["--window", "0"], "window"),
        (["--window", "-3"], "window"),
    ], ids=["unknown-column", "window-zero", "window-negative"])
    def test_bad_plot_argument_exit_one(self, tmp_path, capsys, flags, named):
        src, out = tmp_path / "m.csv", tmp_path / "m.svg"
        self._write_csv(src, [1.0, 2.0, 3.0])
        rc = main(["plot", "--metrics", str(src), "--out", str(out)] + flags)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and named in err
        assert not out.exists()

    def test_data_embedded_in_svg_comment(self, tmp_path):
        src, out = tmp_path / "m.csv", tmp_path / "m.svg"
        self._write_csv(src, [1.0, 2.0, 3.0])
        assert main(["plot", "--metrics", str(src), "--out", str(out)]) == 0
        assert "2.0" in out.read_text().split("-->")[0]

    def test_column_selection(self, tmp_path):
        src, out = tmp_path / "m.csv", tmp_path / "m.svg"
        with open(src, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["update_idx", "l_diff", "l_total"])
            w.writerows((i, 5.0, 1.0) for i in range(5))
        assert main(["plot", "--metrics", str(src), "--out", str(out),
                     "--column", "l_diff"]) == 0
        assert "l_diff" in out.read_text()
