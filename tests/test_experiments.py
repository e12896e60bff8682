"""End-to-end tests for the experiment drivers (small configurations)."""

from __future__ import annotations

import pytest

from repro.data.movielens import MovieLensConfig, generate_movielens_like
from repro.data.study_cohort import StudyConfig
from repro.experiments import figure4, figure5, figure6, figure7, figure8, table5
from repro.experiments.scalability import (
    ScalabilityConfig,
    ScalabilityEnvironment,
    summarize_percent_sa,
)
from repro.exceptions import ConfigurationError
from repro.study.environment import build_study_environment


@pytest.fixture(scope="module")
def small_env():
    """A deliberately small scalability environment shared by the figure tests."""
    return ScalabilityEnvironment(
        ScalabilityConfig(
            n_users=60,
            n_items=400,
            n_ratings=8_000,
            n_participants=24,
            n_groups=3,
            group_size=4,
            k=5,
            seed=13,
        )
    )


class TestScalabilityEnvironment:
    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ScalabilityConfig(n_participants=2, group_size=6)
        with pytest.raises(ConfigurationError):
            ScalabilityConfig(n_groups=0)

    def test_summarize_percent_sa(self):
        stats = summarize_percent_sa([10.0, 20.0, 30.0])
        assert stats.mean_percent_sa == pytest.approx(20.0)
        assert stats.mean_saveup == pytest.approx(80.0)
        assert stats.n_runs == 3
        with pytest.raises(ConfigurationError):
            summarize_percent_sa([])

    def test_percent_sa_single_run(self, small_env):
        group = small_env.random_groups(1)[0]
        value = small_env.percent_sa(group)
        assert 0.0 < value <= 100.0

    def test_restricting_items(self, small_env):
        group = small_env.random_groups(1)[0]
        value = small_env.percent_sa(group, n_items=100)
        assert 0.0 < value <= 100.0


class TestTable5:
    def test_synthetic_dataset(self):
        result = table5.run(config=MovieLensConfig(n_users=50, n_items=60, n_ratings=1_500, seed=2))
        rows = result.rows()
        assert [row["statistic"] for row in rows] == ["# users", "# movies", "# ratings"]
        assert rows[0]["measured"] == 50
        assert rows[2]["paper"] == 1_000_209
        assert "Table 5" in result.format_table()

    def test_existing_dataset(self, small_ratings):
        result = table5.run(dataset=small_ratings)
        assert result.measured["# ratings"] == len(small_ratings)


class TestFigure4:
    def test_runs_on_generated_cohort(self, small_env):
        result = figure4.run(social=small_env.social)
        rows = {row["granularity"]: row for row in result.rows()}
        assert set(rows) == {"week", "month", "two-month", "season", "half-year"}
        # Finer granularities create more periods...
        assert rows["week"]["n_periods"] > rows["two-month"]["n_periods"] > rows["half-year"]["n_periods"]
        # ...but leave a smaller fraction of them non-empty (the paper's trade-off).
        assert rows["week"]["non_empty_percent"] <= rows["half-year"]["non_empty_percent"]
        assert result.chosen_granularity() == "two-month"
        assert "Figure 4" in result.format_table()


class TestFigure5:
    def test_sweeps(self, small_env):
        result = figure5.run(
            environment=small_env,
            k_values=(3, 6),
            group_sizes=(3, 5),
            item_fractions=(0.5, 1.0),
        )
        assert set(result.varying_k) == {3, 6}
        assert set(result.varying_group_size) == {3, 5}
        assert len(result.varying_items) == 2
        for stats in result.varying_k.values():
            assert 0.0 < stats.mean_percent_sa <= 100.0
        # %SA grows (weakly) with k — the paper's linear-growth observation.
        assert result.varying_k[3].mean_percent_sa <= result.varying_k[6].mean_percent_sa + 5.0
        assert 0.0 <= result.worst_saveup() <= 100.0
        assert "Figure 5" in result.format_table()


class TestFigure6:
    def test_accesses_grow_with_periods(self, small_env):
        result = figure6.run(environment=small_env)
        rows = result.rows()
        assert len(rows) == len(small_env.timeline)
        # More periods -> more lists -> more absolute accesses (weakly, paper: linear).
        assert rows[-1]["mean_sequential_accesses"] >= rows[0]["mean_sequential_accesses"]
        assert "Figure 6" in result.format_table()


class TestFigure7:
    def test_group_classes(self, small_env):
        result = figure7.run(environment=small_env, n_groups_per_class=2, group_size=4)
        rows = {row["group_class"]: row for row in result.rows()}
        assert set(rows) == {"Sim", "Diss", "High Aff", "Low Aff"}
        for row in rows.values():
            assert 0.0 < row["mean_percent_sa"] <= 100.0
        assert "Figure 7" in result.format_table()


class TestFigure8:
    def test_consensus_functions(self, small_env):
        result = figure8.run(environment=small_env)
        rows = {row["consensus"]: row for row in result.rows()}
        assert set(rows) == {"AR", "MO", "PD V1", "PD V2"}
        for row in rows.values():
            assert 0.0 < row["mean_percent_sa"] <= 100.0
        assert "Figure 8" in result.format_table()


class TestQualityExperiments:
    @pytest.fixture(scope="class")
    def study_env(self):
        base = generate_movielens_like(MovieLensConfig(n_users=100, n_items=120, n_ratings=4000, seed=21))
        return build_study_environment(
            base_ratings=base,
            study_config=StudyConfig(n_seeds=5, min_invitees=2, max_invitees=3, seed=21),
        )

    def test_figure1(self, study_env):
        from repro.experiments import figure1

        result = figure1.run(environment=study_env, k=3)
        assert len(result.charts) == 6
        for row in result.rows():
            assert 0.0 <= row["preference_percent"] <= 100.0
        assert "Figure 1" in result.format_table()

    def test_figure2(self, study_env):
        from repro.experiments import figure2

        result = figure2.run(environment=study_env, k=3)
        for row in result.rows():
            assert 0.0 <= row["preference_percent"] <= 100.0
            assert row["paper_percent"] > 0
        assert "Figure 2" in result.format_table()

    def test_figure3(self, study_env):
        from repro.experiments import figure3

        result = figure3.run(environment=study_env, k=3)
        assert len(result.charts) == 3
        for row in result.rows():
            assert 0.0 <= row["preference_percent"] <= 100.0
        assert "Figure 3" in result.format_table()


class TestRunner:
    def test_selected_experiments(self, capsys):
        from repro.experiments.runner import run_all

        results = run_all(["table5"])
        assert "table5" in results
        captured = capsys.readouterr()
        assert "Table 5" in captured.out

    def test_unknown_experiment(self):
        from repro.experiments.runner import run_all

        with pytest.raises(SystemExit):
            run_all(["figure99"])

    def test_list_option(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        assert "figure5" in capsys.readouterr().out

    @pytest.mark.parametrize("extra", [["figure6"], ["--quick"], ["--serve"]])
    def test_paper_scale_refuses_other_modes(self, extra):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit, match="--paper-scale does not combine"):
            main(["--paper-scale", *extra])


class TestPaperScale:
    def test_sharded_records_match_serial(self):
        """The paper-scale path on a seconds-scale substrate with 2 workers."""
        from repro.experiments.scalability import run_paper_scale
        from repro.parallel import ExecutionPolicy

        config = ScalabilityConfig(
            n_users=60, n_items=260, n_ratings=3_000, n_participants=16, n_groups=5, seed=11
        )
        result = run_paper_scale(policy=ExecutionPolicy(n_workers=2), config=config)
        assert result.identical
        assert result.n_workers == 2
        assert result.n_tasks == result.n_groups * result.n_periods
        assert "bit-identical" in result.format_summary()

    def test_needs_a_worker_count(self):
        from repro.experiments.scalability import run_paper_scale
        from repro.parallel import ExecutionPolicy

        with pytest.raises(ConfigurationError):
            run_paper_scale(policy=ExecutionPolicy(executor="serial"))


class TestFigureDriverEnvironmentLifecycle:
    """Driver-owned environments are closed on every exit path (issue 5 fix).

    Same try/finally parity as run_quick_smoke/run_paper_scale: an exception
    mid-figure must not leak a persistent pool or /dev/shm segments.
    (Figure 4 builds no scalability environment, so there is nothing to
    release there.)
    """

    @staticmethod
    def _exploding_environment(created):
        class ExplodingEnvironment:
            """Stub whose first substrate access mid-figure raises."""

            def __init__(self, config=None):
                self.close_calls = 0
                created.append(self)

            def close(self):
                self.close_calls += 1

            def __getattr__(self, name):
                raise RuntimeError("mid-figure failure")

        return ExplodingEnvironment

    @pytest.mark.parametrize("driver", [figure5, figure6, figure7, figure8])
    def test_owned_environment_closed_on_mid_figure_exception(self, driver, monkeypatch):
        from repro.experiments import scalability

        created = []
        # Construction happens inside scalability.owned_environment, so the
        # stub is installed at the definition site (covers every driver).
        monkeypatch.setattr(
            scalability, "ScalabilityEnvironment", self._exploding_environment(created)
        )
        with pytest.raises(RuntimeError, match="mid-figure failure"):
            driver.run()
        (environment,) = created
        assert environment.close_calls == 1

    @pytest.mark.parametrize("driver", [figure5, figure6, figure7, figure8])
    def test_supplied_environment_is_left_open(self, driver, monkeypatch, small_env):
        """A caller-owned environment is never closed by the driver, even on failure."""
        closes = []
        monkeypatch.setattr(small_env, "close", lambda: closes.append(True))
        monkeypatch.setattr(
            small_env, "random_groups", _raise_mid_figure, raising=False
        )
        monkeypatch.setattr(small_env, "run_sweep", _raise_mid_figure, raising=False)
        with pytest.raises(RuntimeError, match="mid-figure failure"):
            driver.run(environment=small_env)
        assert closes == []


def _raise_mid_figure(*args, **kwargs):
    raise RuntimeError("mid-figure failure")
