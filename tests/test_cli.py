import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import multinav
from multinav import cli
from multinav.cli import load_train_config, main
from multinav.observations import NoiseConfig
from multinav.policy import ActorCritic, PolicyConfig
from multinav.scenarios import generate

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_cli(*argv):
    return main(list(argv))


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")

# run in a fresh interpreter: import the package, then numpy, and report the
# thread variables and the thread count of the OpenBLAS numpy loaded
BLAS_PROBE = """
import ctypes, json, os
import multinav, numpy
threads, libs = None, []
if os.path.exists("/proc/self/maps"):       # Linux: the libraries loaded
    with open("/proc/self/maps") as f:
        libs = sorted({l.split()[-1] for l in f
                       if "openblas" in l.lower() and "/" in l})
for path in libs:
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(path), sym, None)
        if fn is not None and threads is None:
            threads = int(fn())
print(json.dumps({"env": {v: os.environ.get(v) for v in %r}, "threads": threads}))
""" % (BLAS_VARS,)


def probe_blas(**env_vars):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars)
    src = str(Path(multinav.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


class TestBlasThreads:
    def test_pinned_to_one_thread_by_default(self):
        got = probe_blas()
        assert got["env"] == {v: "1" for v in BLAS_VARS}
        if got["threads"] is not None:        # numpy linked OpenBLAS
            assert got["threads"] == 1

    def test_a_value_the_user_set_wins(self):
        got = probe_blas(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")
        assert got["env"] == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                              "MKL_NUM_THREADS": "3", "BLIS_NUM_THREADS": "1"}


class TestRunCommand:
    def test_straight_run_exit_zero(self, tmp_path):
        out = str(tmp_path / "m.csv")
        code = run_cli("run", "--scenario", "random", "--agents", "1",
                       "--obstacles", "0", "--controller", "straight",
                       "--trials", "2", "--scale", "6", "--out", out)
        assert code == 0
        assert os.path.exists(out)

    def test_identical_seeds_identical_csv_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        argv = ["run", "--scenario", "doorway", "--agents", "3",
                "--controller", "straight", "--trials", "3", "--seed", "9",
                "--scale", "8", "--noise"]
        assert run_cli(*argv, "--out", a) == 0
        assert run_cli(*argv, "--out", b) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("controller", ["orca", "straight", "policy"])
    def test_logging_leaves_noisy_runs_unchanged(self, tmp_path, controller):
        # logging must not draw from a stream that feeds a controller, e.g.
        # the neighbour noise ORCA reads or the observation noise the policy
        # reads; the two robots start 3 m apart, in each other's range, so
        # the observations carry noisy neighbour nodes from the first step
        ckpt = str(tmp_path / "p.json")
        ActorCritic(PolicyConfig.reduced(), seed=0).save(ckpt)
        argv = ["run", "--scenario", "circle", "--agents", "2", "--scale", "3",
                "--controller", controller, "--checkpoint", ckpt,
                "--trials", "1", "--seed", "0", "--noise"]
        plain, logged = str(tmp_path / "plain.csv"), str(tmp_path / "logged.csv")
        bare_log, full_log = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert run_cli(*argv, "--out", plain) == 0
        assert run_cli(*argv, "--out", str(tmp_path / "bare.csv"),
                       "--log", bare_log) == 0
        assert run_cli(*argv, "--out", logged, "--log", full_log,
                       "--log-obs", "--log-rewards", "--log-scans",
                       "--log-paths", "--log-tracks") == 0
        assert open(plain, "rb").read() == open(logged, "rb").read()

        # the untrained policy only turns in place, which the CSV cannot
        # show; the trajectory records can
        def trajectory(path):
            return [line for line in open(path)
                    if json.loads(line)["type"] == "trajectory"]
        assert trajectory(bare_log) == trajectory(full_log)

    def test_scan_and_track_logs_need_no_obs_log(self, tmp_path):
        # the two robots drive head on, so each comes into the other's range
        log = str(tmp_path / "t.jsonl")
        assert run_cli("run", "--scenario", "circle", "--agents", "2",
                       "--scale", "6", "--controller", "straight",
                       "--trials", "1", "--log", log, "--log-scans",
                       "--log-tracks", "--out", str(tmp_path / "m.csv")) == 0
        types = {json.loads(line)["type"] for line in open(log)}
        assert {"scan", "track"} <= types

    def test_unknown_controller_is_config_error(self, tmp_path):
        with pytest.raises(SystemExit):  # argparse rejects the choice
            run_cli("run", "--scenario", "circle", "--agents", "2",
                    "--controller", "warp", "--out", str(tmp_path / "m.csv"))

    def test_policy_without_checkpoint_exit_two(self, tmp_path):
        code = run_cli("run", "--scenario", "circle", "--agents", "2",
                       "--controller", "policy", "--trials", "1",
                       "--out", str(tmp_path / "m.csv"))
        assert code == 2

    def test_missing_checkpoint_exit_two(self, tmp_path):
        code = run_cli("run", "--scenario", "circle", "--agents", "2",
                       "--controller", "policy", "--trials", "1",
                       "--checkpoint", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "m.csv"))
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--trials", "0"),
                                            ("--trials", "-1"),
                                            ("--agents", "0")])
    def test_no_trials_or_no_agents_exit_two(self, tmp_path, capsys, flag,
                                             value):
        opts = {"--scenario": "circle", "--agents": "2",
                "--controller": "straight", "--trials": "1",
                "--out": str(tmp_path / "m.csv")}
        opts[flag] = value
        assert run_cli("run", *[x for kv in opts.items() for x in kv]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_grid_without_trials_exit_two(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert run_cli("grid", "--trials", "0", "--out", str(out)) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()


class TestAblationPlumbing:
    def _run_with_log(self, tmp_path, ablation):
        log = str(tmp_path / f"{ablation}.jsonl")
        code = run_cli("run", "--scenario", "random", "--agents", "2",
                       "--obstacles", "0", "--scale", "6",
                       "--controller", "straight", "--trials", "1",
                       "--seed", "4", "--ablation", ablation,
                       "--log", log, "--log-obs", "--log-rewards",
                       "--out", str(tmp_path / "m.csv"))
        assert code == 0
        return [json.loads(l) for l in open(log)]

    def test_no_gnn_zeroes_node_count(self, tmp_path):
        records = self._run_with_log(tmp_path, "no-gnn")
        obs = [r for r in records if r["type"] == "observation"]
        assert obs
        assert all(r["node_count"] == 0 for r in obs)

    def test_baseline_run_sees_neighbors(self, tmp_path):
        records = self._run_with_log(tmp_path, "none")
        obs = [r for r in records if r["type"] == "observation"]
        assert any(r["node_count"] > 0 for r in obs)

    def test_drl_nav_drops_path_and_graph(self, tmp_path):
        records = self._run_with_log(tmp_path, "drl-nav")
        obs = [r for r in records if r["type"] == "observation"]
        assert obs
        assert all(r["node_count"] == 0 and r["o_gp"] == [0.0, 0.0, 0.0]
                   for r in obs)

    def test_no_gp_zeroes_ogp_and_targets_goal(self, tmp_path):
        records = self._run_with_log(tmp_path, "no-gp")
        obs = [r for r in records if r["type"] == "observation"]
        assert obs
        assert all(r["o_gp"] == [0.0, 0.0, 0.0] for r in obs)
        header = next(r for r in records if r["type"] == "header")
        goals = [r["goal"] for r in header["scenario"]["robots"]]
        rewards = [r for r in records if r["type"] == "reward"]
        assert rewards
        for r in rewards:
            gx, gy = goals[r["agent"]]
            assert r["target"] == pytest.approx([gx, gy])

    def test_default_targets_running_point_not_goal(self, tmp_path):
        records = self._run_with_log(tmp_path, "none")
        header = next(r for r in records if r["type"] == "header")
        goals = [r["goal"] for r in header["scenario"]["robots"]]
        rewards = [r for r in records if r["type"] == "reward"][:20]
        off_goal = sum(
            1 for r in rewards
            if np.hypot(*(np.array(r["target"]) - goals[r["agent"]])) > 0.5)
        assert off_goal > 0  # early targets sit on the path, far from goals


class TestTrainCommand:
    def test_tiny_training_run(self, tmp_path):
        cfg = {
            "scenarios": [{"kind": "random", "scale": 5.0, "num_agents": 1,
                           "num_obstacles": 0, "rng_seed": 0,
                           "max_episode_time": 8.0}],
            "train": {"total_env_steps": 600, "rollout_length": 128,
                      "num_parallel_envs": 2, "minibatch_size": 128,
                      "ppo_epochs": 2, "seed": 3, "eval_every": 100000,
                      "eval_episodes": 1},
            "policy": {"conv_channels": [3, 4], "conv_kernel": 3,
                       "node_hidden": 6, "attention_heads": 2,
                       "attention_head_dim": 3, "score_dim": 5,
                       "trunk": [12, 12]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = str(tmp_path / "train_out")
        assert run_cli("train", "--config", str(cfg_path), "--out", out) == 0
        assert os.path.exists(os.path.join(out, "policy.json"))
        assert os.path.exists(os.path.join(out, "training_curve.csv"))
        header = open(os.path.join(out, "training_curve.csv")).readline()
        assert header.strip() == ("step,mean_reward,success_rate,actor_loss,"
                                  "critic_loss,kl,clip_fraction")

    def test_bad_config_exit_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run_cli("train", "--config", str(p)) == 2

    @pytest.mark.parametrize("env,noise", [
        ({}, NoiseConfig.disabled()), ({"noise": False}, NoiseConfig.disabled()),
        ({"noise": True, "horizon": 4}, NoiseConfig())])
    def test_env_noise_reaches_training(self, tmp_path, monkeypatch, env,
                                        noise):
        seen = []

        def fake_train(specs, train_cfg, out, policy_cfg=None, env_cfg=None):
            seen.append(env_cfg)
            return SimpleNamespace(checkpoint_path="p", curve_path="c",
                                   final_success_rate=0.0)

        monkeypatch.setattr(cli, "train", fake_train)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenarios": [{"kind": "random"}],
                                 "env": env}))
        assert run_cli("train", "--config", str(p), "--out",
                       str(tmp_path / "out")) == 0
        assert seen[0].noise == noise
        assert seen[0].horizon == env.get("horizon", 5)

    @pytest.mark.parametrize("env", [{"nosie": True}, {"noise": "yes"},
                                     {"noise": 1}])
    def test_bad_env_keys_exit_two(self, tmp_path, monkeypatch, env):
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail(
            "trained on a bad env config"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenarios": [{"kind": "random"}],
                                 "env": env}))
        assert run_cli("train", "--config", str(p)) == 2

    def test_missing_config_exit_two(self, tmp_path):
        assert run_cli("train", "--config", str(tmp_path / "none.json")) == 2

    @pytest.mark.parametrize("doc", [
        {"train": {"seed": 1}},
        {"scenarios": []},
        {"scenarios": [{"scale": 5.0}]},
        {"scenarios": [{"kind": "random", "agents": 3}]},
        {"scenarios": [{"kind": "random"}], "train": {"learning_rate": 1e-3}},
        {"scenarios": [{"kind": "random"}], "policy": {"channels": [4, 8]}},
        {"scenarios": [{"kind": "random"}], "polcy": {"trunk": [8, 8]}},
    ], ids=["no-scenarios", "empty-scenarios", "scenario-without-kind",
            "unknown-scenario-key", "unknown-train-key", "unknown-policy-key",
            "unknown-top-level-key"])
    def test_bad_train_config_exit_two(self, tmp_path, monkeypatch, capsys,
                                       doc):
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail(
            "trained on a bad config"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(p)) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["rollout_length", "num_parallel_envs",
                                      "minibatch_size", "ppo_epochs",
                                      "num_agents"])
    def test_zero_count_is_refused_before_training(self, tmp_path, monkeypatch,
                                                   capsys, name):
        # refused when the config loads, before train() could start: a zero
        # rollout length, env count or agent count once made it spin forever
        with open(os.path.join(CONFIGS, "train_goal_task.json")) as f:
            doc = json.load(f)
        if name == "num_agents":
            doc["scenarios"][0][name] = 0
        else:
            doc["train"][name] = 0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=name):
            load_train_config(str(p))
        monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail(
            "trained on a config that never finishes"))
        assert run_cli("train", "--config", str(p)) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
    def test_committed_config_loads_and_generates(self, name):
        # a stale key in a long run's config fails here, not when it starts
        specs, train_cfg, _, _ = load_train_config(os.path.join(CONFIGS, name))
        assert specs and train_cfg.total_env_steps > 0
        for spec in specs:
            scenario = generate(spec)
            assert len(scenario.starts) == spec.num_agents


class TestReplayCommand:
    def test_replay_from_run_log(self, tmp_path):
        log = str(tmp_path / "t.jsonl")
        assert run_cli("run", "--scenario", "circle", "--agents", "2",
                       "--scale", "6", "--controller", "straight",
                       "--trials", "1", "--log", log,
                       "--out", str(tmp_path / "m.csv")) == 0
        svg = str(tmp_path / "t.svg")
        assert run_cli("replay", "--log", log, "--out", svg) == 0
        assert open(svg).read().startswith("<svg")

    def test_replay_missing_log_exit_two(self, tmp_path):
        assert run_cli("replay", "--log", str(tmp_path / "none.jsonl"),
                       "--out", str(tmp_path / "x.svg")) == 2


class TestPolicyEndToEnd:
    def test_run_with_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "p.json")
        ActorCritic(PolicyConfig.reduced(), seed=2).save(ckpt)
        code = run_cli("run", "--scenario", "random", "--agents", "1",
                       "--obstacles", "0", "--scale", "5",
                       "--controller", "policy", "--checkpoint", ckpt,
                       "--trials", "1", "--out", str(tmp_path / "m.csv"))
        assert code == 0
