"""Synthetic suite: generation determinism, prefix sharing, success, file IO."""

import numpy as np
import pytest

from qst import tasks
from qst.data import TrajectoryDataset, read_dataset, window_starts, write_dataset
from qst.errors import (
    ArgumentError,
    BadMagicError,
    DataFormatError,
    TruncatedFileError,
    VersionError,
)


@pytest.fixture(scope="module")
def suite():
    return tasks.generate_suite(7, demos_per_task=4)


class TestTemplates:
    def test_all_template_lengths_are_multiples_of_sequence_length(self):
        for spec in tasks.TASKS.values():
            for branch in spec.branches:
                assert (branch.shape[0] - 1) % tasks.SEQUENCE_LENGTH == 0

    def test_prefix_group_shares_template_prefix(self):
        n = tasks.PREFIX_SHARE_STEPS
        base = tasks.get_task("circle-ccw").branches[0][: n + 1]
        for name in tasks.PREFIX_GROUP:
            np.testing.assert_array_equal(tasks.get_task(name).branches[0][: n + 1], base)

    def test_template_steps_respect_action_bound(self):
        for spec in tasks.TASKS.values():
            for branch in spec.branches:
                steps = np.abs(np.diff(branch, axis=0)).max()
                assert steps < tasks.MAX_STEP - 0.01

    def test_multimodal_branches_share_endpoint(self):
        spec = tasks.get_task("c-curve")
        assert len(spec.branches) == 2
        assert np.linalg.norm(spec.branches[0][-1] - spec.branches[1][-1]) < 1e-9


class TestGeneration:
    def test_episode_counts(self):
        ds = tasks.generate_suite(0, demos_per_task=50)
        assert len(ds) == 8 * 50

    def test_window_count_arithmetic(self, suite):
        t = tasks.SEQUENCE_LENGTH
        expected = sum(ep.length - t + 1 for ep in suite.episodes)
        assert len(window_starts(suite, t)) == expected

    def test_actions_match_observation_deltas(self, suite):
        for ep in suite.episodes:
            deltas = np.diff(ep.observations[:, :2], axis=0)
            assert np.abs(deltas - ep.actions).max() < 1e-9

    def test_prefix_pairs_share_first_sixteen_actions_bitwise(self, suite):
        by_task = suite.by_task()
        n = tasks.PREFIX_SHARE_STEPS
        for i in range(4):
            a = by_task["circle-ccw"][i].actions[:n]
            b = by_task["s-curve"][i].actions[:n]
            c = by_task["figure-eight"][i].actions[:n]
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)
            assert not np.array_equal(
                by_task["circle-ccw"][i].actions[n : 2 * n],
                by_task["s-curve"][i].actions[n : 2 * n],
            )

    def test_generation_is_pure_function_of_seed(self):
        a = tasks.generate_suite(3, demos_per_task=2)
        b = tasks.generate_suite(3, demos_per_task=2)
        c = tasks.generate_suite(4, demos_per_task=2)
        for ea, eb in zip(a.episodes, b.episodes):
            np.testing.assert_array_equal(ea.actions, eb.actions)
            np.testing.assert_array_equal(ea.observations, eb.observations)
        assert any(
            not np.array_equal(ea.actions, ec.actions)
            for ea, ec in zip(a.episodes, c.episodes)
        )

    def test_episodes_stay_inside_arena(self, suite):
        for ep in suite.episodes:
            assert np.abs(ep.observations[:, :2]).max() <= 1.0

    def test_empty_task_list_rejected(self):
        with pytest.raises(ArgumentError):
            tasks.generate_suite(0, task_names=())

    def test_observation_carries_goal(self, suite):
        ep = suite.episodes[0]
        goal = tasks.get_task(ep.task).goal
        np.testing.assert_array_equal(ep.observations[0, 2:], goal)
        np.testing.assert_array_equal(ep.observations[-1, 2:], goal)


def replay(path: np.ndarray, spec) -> tasks.PointEnv:
    """A fresh environment driven through ``path``, which starts at the task's start."""
    env = tasks.PointEnv(spec)
    for point in path[1:]:
        env.step(point - env.position)
    return env


class TestSuccess:
    def test_noiseless_template_replay_succeeds(self):
        for spec in tasks.TASKS.values():
            assert replay(spec.branches[0], spec).succeeded()

    def test_stationary_agent_fails_every_task(self):
        # three tasks end where they start, so only the progress condition fails them
        for spec in tasks.TASKS.values():
            assert not replay(np.tile(spec.start, (5, 1)), spec).succeeded()

    def test_straight_line_across_the_spiral_rings_fails(self):
        spec = tasks.get_task("spiral")
        path = np.linspace(spec.start, spec.goal, 40)
        env = replay(path, spec)
        assert np.linalg.norm(env.position - spec.goal) <= tasks.EPS
        assert not env.succeeded()

    def test_mid_path_deviation_fails(self):
        # steps are clipped to MAX_STEP per axis: a one-point 0.2 jump moves the
        # agent only 0.1 (delta), a longer excursion carries it 0.2 off the line
        spec = tasks.get_task("line-across")
        path = spec.branches[0].copy()
        mid = path.shape[0] // 2
        path[mid : mid + 3] -= np.array([0.0, 0.2])
        env = replay(path, spec)
        assert np.linalg.norm(env.position - spec.goal) <= tasks.EPS
        assert not env.succeeded()

    def test_either_branch_of_multimodal_task_succeeds(self):
        spec = tasks.get_task("c-curve")
        assert replay(spec.branches[0], spec).succeeded()
        assert replay(spec.branches[1], spec).succeeded()


class TestPointEnv:
    def test_transition_is_deterministic_and_clipped(self):
        env = tasks.PointEnv(tasks.get_task("line-across"))
        env.reset()
        a = env.step(np.array([0.5, -0.02]))
        env.reset()
        b = env.step(np.array([0.5, -0.02]))
        np.testing.assert_array_equal(a, b)
        assert a[0] - env.task.start[0] <= tasks.MAX_STEP + 1e-12

    def test_env_succeeds_once_near_the_endpoint(self):
        # on the template the corridor always holds, so only the endpoint decides
        spec = tasks.get_task("s-curve")
        env = tasks.PointEnv(spec)
        near = []
        for point in spec.branches[0][1:]:
            env.step(point - env.position)
            near.append(np.linalg.norm(env.position - spec.goal) <= tasks.EPS)
            assert env.succeeded() == near[-1]
        assert not near[0] and near[-1]

    def test_replaying_noisy_demo_succeeds(self):
        """Every task's noisy demos, both c-curve branches among them, pass
        the predicate at some step, as the closed loop checks it after each."""
        ds = tasks.generate_suite(11, task_names=tuple(tasks.TASKS), demos_per_task=2)
        for demo, ep in enumerate(ds.episodes):
            spec = tasks.get_task(ep.task)
            env = tasks.PointEnv(spec)
            passed = []
            for point in ep.observations[1:, :2]:
                env.step(point - env.position)
                passed.append(env.succeeded())
            assert any(passed), f"{ep.task} demo {demo % 2}"


class TestDatasetIO:
    def test_roundtrip_is_bitwise_on_file_bytes(self, suite, tmp_path):
        p1 = tmp_path / "a.qstd"
        p2 = tmp_path / "b.qstd"
        write_dataset(suite, p1)
        write_dataset(read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_payload_matches_written_values(self, suite, tmp_path):
        p = tmp_path / "a.qstd"
        write_dataset(suite, p)
        loaded = read_dataset(p)
        assert len(loaded) == len(suite)
        for a, b in zip(suite.episodes, loaded.episodes):
            assert a.task == b.task
            np.testing.assert_array_equal(b.actions, a.actions.astype("<f4").astype(np.float64))

    def test_truncated_file_names_expected_and_actual(self, suite, tmp_path):
        p = tmp_path / "a.qstd"
        write_dataset(suite, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-10])
        with pytest.raises(TruncatedFileError, match=r"\d+ bytes"):
            read_dataset(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "a.qstd"
        p.write_bytes(b"NOTMAGIC\nseed 0\nepisodes 0\nobs_dim 0\nact_dim 0\n\n")
        with pytest.raises(BadMagicError):
            read_dataset(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "a.qstd"
        p.write_bytes(b"QSTD9\nseed 0\nepisodes 0\nobs_dim 0\nact_dim 0\n\n")
        with pytest.raises(VersionError):
            read_dataset(p)

    @pytest.mark.parametrize(
        "key,value",
        [("seed", "x"), ("episodes", "1.0"), ("obs_dim", "-4"), ("act_dim", "2,a"), ("episode", "-3 a")],
    )
    def test_header_number_not_an_integer_rejected(self, tmp_path, key, value):
        header = {"seed": "0", "episodes": "1", "obs_dim": "4", "act_dim": "2", "episode": "3 a"}
        header[key] = value
        p = tmp_path / "a.qstd"
        p.write_text("QSTD1\n" + "".join(f"{k} {v}\n" for k, v in header.items()) + "\n")
        with pytest.raises(DataFormatError, match="integer"):
            read_dataset(p)

    @pytest.mark.parametrize(
        "raw,match", [(b"QSTD1\nseed 0\n", "blank line"), (b"QSTD1\nseed \xff\n\n", "ascii")]
    )
    def test_header_without_blank_line_or_ascii_rejected(self, tmp_path, raw, match):
        p = tmp_path / "a.qstd"
        p.write_bytes(raw)
        with pytest.raises(DataFormatError, match=match):
            read_dataset(p)

    @pytest.mark.parametrize(
        "header,match",
        [
            ("seed 0\nepisodes 1\nobs_dim 4\nact_dim 2\ncolor blue\nepisode 3 a\n", "unknown header line"),
            ("seed 0\nepisodes 1\nobs_dim 4\nepisode 3 a\n", "missing 'act_dim'"),
            ("seed 0\nepisodes 2\nobs_dim 4\nact_dim 2\nepisode 3 a\n", "declares 2 episodes but lists 1"),
        ],
        ids=["unknown-line", "missing-act-dim", "episode-count"],
    )
    def test_bad_header_rejected(self, tmp_path, header, match):
        p = tmp_path / "a.qstd"
        p.write_text("QSTD1\n" + header + "\n")
        with pytest.raises(DataFormatError, match=match):
            read_dataset(p)

    def test_empty_dataset_roundtrips_but_training_rejects(self, tmp_path):
        from qst.data import window_arrays

        p = tmp_path / "empty.qstd"
        write_dataset(TrajectoryDataset([], seed=5), p)
        loaded = read_dataset(p)
        assert len(loaded) == 0 and loaded.seed == 5
        with pytest.raises(ArgumentError):
            window_arrays(loaded, 32)
