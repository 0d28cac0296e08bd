"""Controller: plan/act contracts, rollout bookkeeping, batched evaluation."""

import numpy as np
import pytest

from qst import tasks
from qst.autoencoder import train_stage1
from qst.checkpoint import Checkpoint
from qst.config import RunConfig
from qst.controller import (
    ControlConfig,
    Policy,
    act,
    evaluate_suite,
    rollout,
    stack_history,
)
from qst.errors import ConfigurationError
from qst.prior import train_stage2

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


class TestActAndPlan:
    def test_chunk_is_prefix_of_decoded_plan(self, pipeline):
        cfg, stage1, stage2, policy = pipeline
        env = tasks.PointEnv(tasks.get_task("line-across"))
        obs = env.reset(np.random.default_rng(0))
        control = ControlConfig.from_run_config(cfg)
        plan = policy.plan(obs[None], "line-across", np.random.default_rng(5))
        chunk = act(
            stage1, stage2, obs[None], "line-across", control, np.random.default_rng(5)
        )
        np.testing.assert_array_equal(chunk, plan.actions[: control.execution_horizon])
        assert chunk.shape == (control.execution_horizon, 2)

    def test_full_horizon_boundary(self, pipeline):
        cfg, stage1, stage2, policy = pipeline
        control = ControlConfig(
            plan_horizon=cfg.T,
            execution_horizon=cfg.T,
            top_k=1,
            temperature=1.0,
            max_episode_steps=cfg.T,
        )
        env = tasks.PointEnv(tasks.get_task("line-across"))
        obs = env.reset(np.random.default_rng(0))
        chunk = act(stage1, stage2, obs[None], "line-across", control, np.random.default_rng(0))
        assert chunk.shape == (cfg.T, 2)

    def test_greedy_sampling_is_deterministic_across_calls(self, pipeline):
        cfg, stage1, stage2, policy = pipeline
        obs = np.zeros((1, 4))
        idx = np.array([policy.task_index("line-across")])
        a = policy.prior.sample(idx, obs[None], 1, 1.0, np.random.default_rng(0))
        b = policy.prior.sample(idx, obs[None], 1, 1.0, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_execution_horizon_validation(self):
        with pytest.raises(ConfigurationError):
            ControlConfig(plan_horizon=8, execution_horizon=9)

    def test_incompatible_checkpoints_rejected(self, pipeline):
        cfg, stage1, stage2, _ = pipeline
        ds = tasks.generate_suite(9, task_names=("line-across",), demos_per_task=2)
        other = train_stage1(ds, cfg, seed=8)
        with pytest.raises(ConfigurationError):
            Policy(other, stage2)


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
        control = ControlConfig.from_run_config(cfg)
        control = ControlConfig(
            plan_horizon=control.plan_horizon,
            execution_horizon=control.execution_horizon,
            top_k=control.top_k,
            temperature=control.temperature,
            max_episode_steps=0,
        )
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset(np.random.default_rng(1))
        result = rollout(env, policy, control, np.random.default_rng(2))
        assert not result.success and result.steps == 0 and result.token_log == []

    def test_token_log_length_matches_replans(self, pipeline):
        cfg, _, _, policy = pipeline
        control = ControlConfig.from_run_config(cfg)
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset(np.random.default_rng(3))
        result = rollout(env, policy, control, np.random.default_rng(4))
        expected_plans = -(-result.steps // control.execution_horizon) if result.steps else 0
        assert len(result.token_log) == expected_plans
        assert all(len(toks) == policy.run_config.n_tokens for toks in result.token_log)

    def test_executed_actions_are_contiguous_plan_prefixes(self, pipeline):
        cfg, _, _, policy = pipeline

        seen_plans = []
        original = Policy.plan

        def spy(self, obs_history, task_name, rng):
            plan = original(self, obs_history, task_name, rng)
            seen_plans.append(plan.actions.copy())
            return plan

        Policy.plan = spy
        try:
            control = ControlConfig.from_run_config(cfg)
            env = tasks.PointEnv(tasks.get_task("line-across"))
            env.reset(np.random.default_rng(5))
            result = rollout(env, policy, control, np.random.default_rng(6))
        finally:
            Policy.plan = original
        horizon = control.execution_horizon
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

        class Scripted:
            run_config = policy.run_config

            def plan(self, obs_history, task_name, rng):
                t = env.step_count
                actions = np.zeros((control.plan_horizon, 2))
                remaining = template[t + 1 : t + 1 + control.plan_horizon] - template[t : t + control.plan_horizon]
                actions[: len(remaining)] = remaining
                from qst.controller import Plan

                return Plan(actions=actions, tokens=np.zeros(8, dtype=int))

        result = rollout(env, Scripted(), control, np.random.default_rng(9))
        assert result.success
        assert result.steps <= template.shape[0] - 1


class TestEvaluateSuite:
    def test_counts_and_determinism(self, pipeline):
        cfg, _, _, policy = pipeline
        control = ControlConfig(
            plan_horizon=cfg.T,
            execution_horizon=8,
            top_k=3,
            temperature=1.0,
            max_episode_steps=16,
        )
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
