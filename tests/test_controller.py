"""Controller: planner contracts, rollout bookkeeping, batched evaluation."""

import dataclasses

import numpy as np
import pytest

from qst import tasks
from qst.autoencoder import train_stage1
from qst.checkpoint import Checkpoint
from qst.config import RunConfig
from qst.controller import (
    ControlConfig,
    Policy,
    evaluate_suite,
    rollout,
    stack_history,
)
from qst.errors import ConfigurationError
from qst.prior import PriorConfig, SkillPrior, train_stage2

from test_autoencoder import tiny_config


@pytest.fixture(scope="module")
def pipeline():
    cfg = tiny_config(
        T=32,
        conv_kernels=(5, 3, 3),
        conv_strides=(2, 2, 1),
        fsq_levels=(5, 3),
        stage1_epochs=1,
        stage2_epochs=1,
        stage1_windows_per_epoch=48,
        stage2_windows_per_epoch=48,
        batch_size=16,
        execution_horizon=8,
        top_k=3,
        max_episode_steps=48,
    )
    ds = tasks.generate_suite(3, task_names=("circle-ccw", "line-across"), demos_per_task=2)
    stage1 = train_stage1(ds, cfg, seed=0)
    stage2 = train_stage2(ds, stage1, cfg, seed=0)
    policy = Policy(stage1, stage2)
    return cfg, stage1, stage2, policy


def control_for(cfg, **overrides) -> ControlConfig:
    return dataclasses.replace(ControlConfig.from_run_config(cfg), **overrides)


def suite_streams(seed: int, task: str, episode: int):
    """The start state and sampler stream evaluate_suite gives an episode."""
    spec = tasks.get_task(task)
    env = tasks.PointEnv(spec)
    env.reset(np.random.default_rng(np.random.SeedSequence((seed, spec.ordinal, episode, 1))))
    return env, np.random.default_rng(np.random.SeedSequence((seed, spec.ordinal, episode, 2)))


class TestPolicy:
    def test_full_horizon_boundary(self, pipeline):
        cfg, _, _, policy = pipeline
        control = control_for(cfg, execution_horizon=cfg.T, max_episode_steps=cfg.T)
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset(np.random.default_rng(0))
        result = rollout(env, policy, control, np.random.default_rng(0))
        assert len(result.token_log) == 1
        assert result.actions.shape == (result.steps, 2)

    def test_greedy_sampling_is_deterministic_across_calls(self, pipeline):
        cfg, stage1, stage2, policy = pipeline
        obs = np.zeros((1, 4))
        idx = np.array([policy.prior.task_index("line-across")])
        a = policy.prior.sample(idx, obs[None], 1, 1.0, np.random.default_rng(0))
        b = policy.prior.sample(idx, obs[None], 1, 1.0, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_control_top_k_is_the_sampler_k(self, pipeline):
        # the checkpoint samples with top_k=3; a control top_k of 1 is greedy
        cfg, _, _, policy = pipeline
        control = control_for(cfg, top_k=1)
        logs = []
        for rng_seed in (1, 2):
            env = tasks.PointEnv(tasks.get_task("line-across"))
            env.reset(np.random.default_rng(0))
            logs.append(rollout(env, policy, control, np.random.default_rng(rng_seed)).token_log)
        assert logs[0] and logs[0] == logs[1]

    def test_execution_horizon_validation(self, pipeline):
        cfg, _, _, policy = pipeline
        with pytest.raises(ConfigurationError):
            control_for(cfg, execution_horizon=0)
        control = control_for(cfg, execution_horizon=cfg.T + 1)
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset(np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="plan length"):
            rollout(env, policy, control, np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="plan length"):
            evaluate_suite(policy, ["line-across"], episodes=1, seeds=[0], cfg=control)

    def test_incompatible_checkpoints_rejected(self, pipeline):
        cfg, stage1, stage2, _ = pipeline
        ds = tasks.generate_suite(9, task_names=("line-across",), demos_per_task=2)
        other = train_stage1(ds, cfg, seed=8)
        with pytest.raises(ConfigurationError):
            Policy(other, stage2)

    def test_unlinked_stage2_of_another_structure_rejected(self, pipeline):
        # without a recorded stage-1 hash, only the structural check stands
        cfg, stage1, stage2, _ = pipeline
        other = dataclasses.replace(cfg, fsq_levels=(3, 3))
        prior = SkillPrior(PriorConfig.from_run_config(other), ["circle-ccw"], np.random.default_rng(0))
        unlinked = prior.to_checkpoint(other, {})
        with pytest.raises(ConfigurationError, match="fsq_levels"):
            Policy(stage1, unlinked)

    @staticmethod
    def _decoder_finetuned(stage1, stage2, edit):
        """``stage2`` shipping stage-1's decoder arrays after ``edit``."""
        params = dict(stage2.params)
        params.update({k: v for k, v in stage1.params.items() if k.startswith("decoder.")})
        edit(params)
        meta = dict(stage2.meta, decoder_finetuned="true")
        return Checkpoint(params=params, meta=meta, config_text=stage2.config_text)

    def test_decoder_finetuned_arrays_override_stage1(self, pipeline):
        _, stage1, stage2, _ = pipeline
        shifted = stage1.params["decoder.head.bias"] + np.float32(0.5)
        finetuned = self._decoder_finetuned(
            stage1, stage2, lambda params: params.update({"decoder.head.bias": shifted})
        )
        policy = Policy(stage1, finetuned)
        bias = policy.autoencoder.decoder_side_params()["decoder.head.bias"].data
        np.testing.assert_array_equal(bias, shifted.astype(np.float64))

    @pytest.mark.parametrize("edit", ["truncated", "extra"])
    def test_bad_decoder_override_is_configuration_error(self, pipeline, edit):
        _, stage1, stage2, _ = pipeline

        def corrupt(params):
            if edit == "truncated":
                params["decoder.head.weight"] = params["decoder.head.weight"][:-1]
            else:
                params["decoder.ln_kv.gain"] = np.ones(8, dtype=np.float32)

        with pytest.raises(ConfigurationError):
            Policy(stage1, self._decoder_finetuned(stage1, stage2, corrupt))


class TestRollout:
    def test_zero_step_budget(self, pipeline):
        cfg, _, _, policy = pipeline
        control = control_for(cfg, max_episode_steps=0)
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset(np.random.default_rng(1))
        result = rollout(env, policy, control, np.random.default_rng(2))
        assert not result.success and result.steps == 0 and result.token_log == []
        assert result.actions.shape == (0, 2)

    def test_token_log_length_matches_replans(self, pipeline):
        cfg, _, _, policy = pipeline
        control = ControlConfig.from_run_config(cfg)
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset(np.random.default_rng(3))
        result = rollout(env, policy, control, np.random.default_rng(4))
        expected_plans = -(-result.steps // control.execution_horizon) if result.steps else 0
        assert len(result.token_log) == expected_plans
        assert all(len(toks) == policy.run_config.n_tokens for toks in result.token_log)

    def test_executed_actions_are_contiguous_plan_prefixes(self, pipeline, monkeypatch):
        cfg, _, _, policy = pipeline

        seen_plans = []
        original = Policy.plan_batch

        def spy(self, *args):
            tokens, plans = original(self, *args)
            seen_plans.append(plans[0].copy())
            return tokens, plans

        monkeypatch.setattr(Policy, "plan_batch", spy)
        control = ControlConfig.from_run_config(cfg)
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset(np.random.default_rng(5))
        result = rollout(env, policy, control, np.random.default_rng(6))
        horizon = control.execution_horizon
        assert len(seen_plans) == len(result.token_log) > 0
        assert result.actions.shape == (result.steps, 2)
        for p, plan_actions in enumerate(seen_plans):
            taken = result.actions[p * horizon : (p + 1) * horizon]
            np.testing.assert_array_equal(taken, plan_actions[: len(taken)])

    def test_env_failure_is_flagged_not_raised(self, pipeline):
        cfg, _, _, policy = pipeline
        control = ControlConfig.from_run_config(cfg)
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset(np.random.default_rng(7))
        boom_after = 3
        original_step = env.step
        calls = {"n": 0}

        def flaky(action):
            calls["n"] += 1
            if calls["n"] > boom_after:
                raise RuntimeError("actuator fault")
            return original_step(action)

        env.step = flaky
        result = rollout(env, policy, control, np.random.default_rng(8))
        assert result.aborted and not result.success
        assert result.steps == boom_after

    def test_success_stops_episode_immediately(self, pipeline):
        cfg, _, _, policy = pipeline
        control = ControlConfig.from_run_config(cfg)
        task = tasks.get_task("line-across")
        env = tasks.PointEnv(task)
        env.reset()

        # drive the env with the template itself through a scripted policy
        template = task.branches[0]

        class Scripted(Policy):
            def __init__(self):
                self.autoencoder, self.prior = policy.autoencoder, policy.prior
                self.run_config = policy.run_config

            def plan_batch(self, task_idx, obs_histories, rngs, top_k, temperature):
                t = env.step_count
                actions = np.zeros((cfg.T, 2))
                remaining = template[t + 1 : t + 1 + cfg.T] - template[t : t + cfg.T]
                actions[: len(remaining)] = remaining
                return np.zeros((1, 8), dtype=int), actions[None]

        result = rollout(env, Scripted(), control, np.random.default_rng(9))
        assert result.success
        assert result.steps <= template.shape[0] - 1

    def test_matches_one_slot_suite(self, pipeline):
        cfg, _, _, policy = pipeline
        control = control_for(cfg, max_episode_steps=24)
        (suite,), _ = evaluate_suite(policy, ["line-across"], episodes=1, seeds=[3], cfg=control)
        env, rng = suite_streams(3, "line-across", 0)
        single = rollout(env, policy, control, rng)
        assert single.token_log == suite.token_log
        assert (single.steps, single.success, single.aborted) == (
            suite.steps,
            suite.success,
            suite.aborted,
        )
        assert single.final_state == suite.final_state
        np.testing.assert_array_equal(single.actions, suite.actions)
        assert suite.actions.shape == (suite.steps, 2) and suite.steps > 0


class TestEvaluateSuite:
    def test_counts_and_determinism(self, pipeline):
        cfg, _, _, policy = pipeline
        control = control_for(cfg, max_episode_steps=16)
        results, summary = evaluate_suite(
            policy, ["line-across", "circle-ccw"], episodes=3, seeds=[0, 1], cfg=control
        )
        assert len(results) == 2 * 3 * 2
        again, summary2 = evaluate_suite(
            policy, ["line-across", "circle-ccw"], episodes=3, seeds=[0, 1], cfg=control
        )
        assert [r.token_log for r in results] == [r.token_log for r in again]
        assert summary == summary2
        assert set(summary) == {"line-across", "circle-ccw", "overall"}
        for row in summary.values():
            assert 0.0 <= row["mean"] <= 1.0 and len(row["per_seed"]) == 2

    def test_results_carry_executed_actions(self, pipeline):
        cfg, _, _, policy = pipeline
        control = control_for(cfg, max_episode_steps=16)
        results, _ = evaluate_suite(policy, ["line-across"], episodes=2, seeds=[0], cfg=control)
        for r in results:
            assert r.actions.shape == (r.steps, 2)
        assert any(r.steps > 0 for r in results)

    def test_summary_math(self):
        from qst.controller import RolloutResult, summarize

        def result(task, seed, success):
            return RolloutResult(
                task=task,
                seed=seed,
                episode=0,
                success=success,
                steps=1,
                aborted=False,
                actions=np.zeros((0, 2)),
                token_log=[],
                final_state=(0.0, 0.0),
            )

        rows = [
            result("a", 0, True),
            result("a", 0, False),
            result("a", 1, True),
            result("a", 1, True),
        ]
        summary = summarize(rows, ["a"], [0, 1])
        assert summary["a"]["per_seed"] == [0.5, 1.0]
        assert summary["a"]["mean"] == 0.75
        assert summary["overall"]["mean"] == 0.75


def test_stack_history_left_pads_with_first_observation():
    obs = [np.array([1.0, 1.0]), np.array([2.0, 2.0])]
    out = stack_history(obs, 4)
    np.testing.assert_array_equal(out[0], obs[0])
    np.testing.assert_array_equal(out[1], obs[0])
    np.testing.assert_array_equal(out[2], obs[0])
    np.testing.assert_array_equal(out[3], obs[1])


@pytest.mark.parametrize("history, rows", [(1, [2]), (2, [1, 2]), (3, [0, 1, 2])])
def test_stack_history_takes_the_latest_observations(history, rows):
    obs = [np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0])]
    out = stack_history(obs, history)
    assert out.shape == (history, 2) and out.dtype == np.float64
    np.testing.assert_array_equal(out, np.stack([obs[r] for r in rows]))
