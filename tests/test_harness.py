"""Harness: configs, CSV determinism, brute-force suite, sweeps, CLI."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from oraclelab.harness import (
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    _cal_start_space,
    build_sequence,
    build_target,
    rows_to_csv,
    run_cell,
    run_experiment,
    sweep_query_complexity,
    validate_against_bruteforce,
)
from oraclelab.hypotheses import LabeledExample
from oraclelab.oracles import OracleBundle
from oraclelab import cli, hypotheses


def small_larch_config(**kw):
    base = dict(
        algorithm="larch",
        family="intervals-exact",
        k_max=2,
        target={"type": "interval_union", "intervals": [[0.3, 0.6]]},
        epsilons=[0.05, 0.02, 0.01],
        seeds=[0, 1],
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation_messages(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            ExperimentConfig(algorithm="nope").validate()
        with pytest.raises(ConfigError, match="epsilon"):
            small_larch_config(epsilons=[1.5]).validate()
        with pytest.raises(ConfigError, match="tau"):
            small_larch_config(tau=0.5).validate()
        with pytest.raises(ConfigError, match="unknown gamma"):
            small_larch_config(gamma="magic").validate()
        with pytest.raises(ConfigError, match="seed"):
            small_larch_config(seeds=[]).validate()

    @pytest.mark.parametrize("name,value", [
        ("tau", math.inf), ("tau", math.nan), ("tau", 0.5),
        ("cost_cap", math.inf), ("cost_cap", math.nan), ("cost_cap", 0.0),
        ("cost_cap", -5.0),
    ])
    def test_tau_and_cost_cap_must_be_finite(self, name, value):
        # an infinite cost cap never ends an AA-LARCH run; an infinite or
        # nan tau makes every cost nan; a cap <= 0 runs nothing
        cfg = small_larch_config(algorithm="aalarch",
                                 family="intervals-enumerated")
        cfg.validate()
        setattr(cfg, name, value)
        with pytest.raises(ConfigError, match=f"^{name} .* must be finite"):
            cfg.validate()

    def test_unknown_field_in_json(self):
        text = json.dumps({"algorithm": "larch", "epsilon": 0.1})
        with pytest.raises(ConfigError, match="unknown config field.*epsilon"):
            ExperimentConfig.from_json(text)

    def test_seeds_must_be_integers(self):
        with pytest.raises(ConfigError, match="seeds"):
            small_larch_config(seeds="abc").validate()
        with pytest.raises(ConfigError, match="seeds"):
            small_larch_config(seeds=[0, "1"]).validate()

    def test_delta_must_be_a_number(self):
        with pytest.raises(ConfigError, match="delta"):
            small_larch_config(delta="x").validate()

    def test_bad_noise_table(self):
        noise = {"kind": "pointwise", "table": [[0.0, 0.5, 0.9]]}
        with pytest.raises(ConfigError, match="noise"):
            small_larch_config(noise=noise).validate()

    @pytest.mark.parametrize("algorithm", ["larch", "seabel",
                                           "passive-baseline", "cal"])
    def test_epsilons_must_not_be_empty(self, algorithm):
        # larch, seabel and the passive baseline took max() over no
        # targets; the others wrote an empty CSV
        with pytest.raises(ConfigError, match="at least one epsilon"):
            small_larch_config(algorithm=algorithm, epsilons=[]).validate()

    @pytest.mark.parametrize("family", ["intervals-exact",
                                        "intervals-enumerated"])
    @pytest.mark.parametrize("x", [math.nan, -0.1, 1.5, math.inf])
    def test_seed_example_x_must_lie_in_the_unit_interval(self, family, x):
        cfg = small_larch_config(algorithm="cal", family=family,
                                 seed_examples=[[0.5, 1], [x, -1]])
        with pytest.raises(ConfigError, match=r"seed_examples .*\[0,1\]"):
            cfg.validate()
        cfg.seed_examples = [[0.5, 1], [1.0, -1]]
        cfg.validate()

    @pytest.mark.parametrize("family,target,misfit,fit", [
        ("thresholds-grid", {"type": "threshold", "w": 0.5},
         [[0.2, 1], [0.7, -1]], [[0.2, -1], [0.7, 1]]),
        ("intervals-enumerated",
         {"type": "interval_union", "intervals": [[0.3, 0.6]]},
         [[0.2, 1], [0.5, -1], [0.8, 1]], [[0.2, 1], [0.5, -1], [0.8, -1]]),
    ])
    def test_al_seed_set_must_leave_a_hypothesis(self, family, target,
                                                 misfit, fit):
        # an emptied start space used to end the cell in
        # EmptyVersionSpaceError
        cfg = small_larch_config(algorithm="al", family=family, k_max=1,
                                 target=target, seed_examples=misfit)
        with pytest.raises(ConfigError, match="fits seed_examples"):
            cfg.validate()
        cfg.seed_examples = fit
        cfg.validate()
        assert not _cal_start_space(cfg).is_empty()

    @pytest.mark.parametrize("family", ["intervals-exact", "intervals-enumerated",
                                        "thresholds-exact", "thresholds-grid"])
    def test_cal_seed_set_must_leave_a_hypothesis(self, family):
        # CAL started from an emptied space and wrote rows with
        # exact_error 1 and 0 iterations, drawing and querying nothing
        thresholds = family.startswith("thresholds")
        target = ({"type": "threshold", "w": 0.5} if thresholds
                  else {"type": "interval_union", "intervals": [[0.3, 0.6]]})
        misfit = ([[0.2, 1], [0.7, -1]] if thresholds
                  else [[0.2, 1], [0.5, -1], [0.8, 1]])
        cfg = small_larch_config(algorithm="cal", family=family, k_max=1,
                                 target=target, seed_examples=misfit)
        with pytest.raises(ConfigError, match="fits seed_examples"):
            cfg.validate()
        cfg.seed_examples = misfit[:1]
        cfg.validate()
        assert not _cal_start_space(cfg).is_empty()

    def test_json_roundtrip(self):
        cfg = small_larch_config()
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_target_snapping_for_enumerated_families(self):
        cfg = small_larch_config(
            family="intervals-enumerated", resolution=21,
            target={"type": "interval_union", "intervals": [[0.31, 0.59]]},
        )
        h = build_target(cfg, 0.05)
        grid = np.linspace(0, 1, 21)
        for lo, hi in h.intervals:
            assert lo in grid and hi in grid

    def test_auto_interval_target(self):
        cfg = small_larch_config(
            target={"type": "auto-interval", "width_factor": 4.0, "center": 0.5}
        )
        h = build_target(cfg, 0.01)
        (lo, hi), = h.intervals
        assert hi - lo == pytest.approx(0.04)


class TestRunExperiment:
    def test_row_cardinality(self):
        rows = run_experiment(small_larch_config())
        assert len(rows) == 6  # 2 seeds x 3 epsilons

    def test_rows_reconcile_with_ledger(self):
        cfg = small_larch_config(tau=8.0)
        row = run_cell(cfg, seed=0, epsilon=0.05)
        assert row.cost == pytest.approx(
            row.label_queries + 8.0 * row.search_queries
        )
        assert 0.0 <= row.exact_error <= 1.0

    def test_rerun_is_bit_identical_modulo_timing(self):
        cfg = small_larch_config()
        a = rows_to_csv(run_experiment(cfg), with_timing=False)
        b = rows_to_csv(run_experiment(cfg), with_timing=False)
        assert a == b

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = small_larch_config(epsilons=[0.05], seeds=[0], output=str(out))
        run_experiment(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == "# oraclelab results v1"
        assert lines[1].startswith("config_hash,seed,epsilon")
        assert len(lines) == 3

    def test_all_algorithms_dispatch(self):
        quick = dict(epsilons=[0.1], seeds=[0])
        cases = [
            small_larch_config(algorithm="binary-search-demo",
                               target={"type": "threshold", "w": 0.4}, **quick),
            small_larch_config(algorithm="cal", k_max=1,
                               seed_examples=[[0.45, 1]], **quick),
            small_larch_config(algorithm="seabel", **quick),
            small_larch_config(algorithm="passive-baseline", k_max=1, **quick),
            small_larch_config(
                algorithm="al", family="thresholds-grid", resolution=51,
                target={"type": "threshold", "w": 0.5},
                noise={"kind": "rcn", "eta": 0.1}, **quick,
            ),
            small_larch_config(
                algorithm="alarch", family="intervals-enumerated", k_max=1,
                resolution=21,
                target={"type": "interval_union", "intervals": [[0.3, 0.6]]},
                noise={"kind": "rcn", "eta": 0.1}, **quick,
            ),
            small_larch_config(
                algorithm="aalarch", family="intervals-enumerated", k_max=1,
                resolution=21, tau=4.0, n_cap=300, cost_cap=150.0,
                noise={"kind": "rcn", "eta": 0.1}, **quick,
            ),
        ]
        for cfg in cases:
            row = run_cell(cfg, seed=0, epsilon=cfg.epsilons[0])
            assert isinstance(row, ResultRow)

    @pytest.mark.parametrize(
        "algorithm,family",
        [(a, f) for a, (families, _) in ALGORITHMS.items() for f in families],
    )
    def test_every_accepted_family_runs_a_cell(self, algorithm, family):
        # validate() passes exactly the pairs ALGORITHMS lists; each of
        # them must run a cell
        cfg = small_larch_config(
            algorithm=algorithm, family=family, k_max=1, resolution=21,
            target={"type": "threshold", "w": 0.4}, epsilons=[0.1],
            seeds=[0], tau=4.0, n_cap=200, cost_cap=100.0,
        )
        cfg.validate()
        assert isinstance(run_cell(cfg, seed=0, epsilon=0.1), ResultRow)


class TestSharedSequence:
    """An enumerated sequence is built once per (k_max, resolution)."""

    def enumerated(self, **kw):
        base = dict(
            algorithm="alarch", family="intervals-enumerated", k_max=2,
            resolution=13, noise={"kind": "rcn", "eta": 0.1},
            target={"type": "interval_union", "intervals": [[0.3, 0.6]]},
        )
        base.update(kw)
        return small_larch_config(**base)

    def test_same_key_same_object(self):
        seq = build_sequence(self.enumerated())
        others = [
            self.enumerated(seeds=[5, 6, 7]),
            self.enumerated(target={"type": "interval_union",
                                    "intervals": [[0.1, 0.2], [0.5, 0.9]]}),
            self.enumerated(algorithm="aalarch", tau=4.0),
            self.enumerated(algorithm="al", epsilons=[0.2]),
        ]
        for cfg in others:
            cfg.validate()
            assert build_sequence(cfg) is seq
        # the inner agnostic loop's start space is the shared top class
        start = _cal_start_space(self.enumerated(algorithm="al"))
        assert start.cls is seq.classes[2]

    def test_other_key_other_object(self):
        seq = build_sequence(self.enumerated())
        assert build_sequence(self.enumerated(k_max=1)) is not seq
        assert build_sequence(self.enumerated(resolution=15)) is not seq

    def test_memo_is_bounded(self):
        memo = hypotheses._enumerated_intervals
        bound = memo.cache_info().maxsize
        assert bound is not None and bound <= 8
        for r in range(5, 5 + 2 * bound):
            build_sequence(self.enumerated(k_max=1, resolution=r))
        assert memo.cache_info().currsize == bound


class TestValidateAgainstBruteforce:
    def test_clean_run_small(self):
        report = validate_against_bruteforce(60, seed=1)
        assert report.ok
        assert report.checks > 60

    def test_negative_control_corrupted_search(self):
        class CorruptBundle(OracleBundle):
            def _search(self, vs):
                res = super()._search(vs)
                if res is None:
                    return None
                return LabeledExample(res.x, -res.y)

        report = validate_against_bruteforce(
            40, seed=1, bundle_cls=CorruptBundle
        )
        assert not report.ok
        assert any("unsound" in m for m in report.mismatches)


class TestSweep:
    def test_insufficient_grid(self):
        cfg = small_larch_config(epsilons=[0.1, 0.05])
        with pytest.raises(ConfigError, match="two decades"):
            sweep_query_complexity(cfg)

    def test_binary_search_demo_growth(self):
        cfg = small_larch_config(
            algorithm="binary-search-demo",
            target={"type": "threshold", "w": 0.37},
            epsilons=[1e-2, 1e-3, 1e-4],
            seeds=list(range(8)),
        )
        report = sweep_query_complexity(cfg)
        # one halving per factor two: about log2(10) extra queries per decade
        for a, b in zip(report.median_searches, report.median_searches[1:]):
            assert 2.33 <= b - a <= 4.33


class TestCli:
    def test_run_writes_csv(self, tmp_path):
        cfg = small_larch_config(epsilons=[0.05], seeds=[0])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "rows.csv"
        rc = cli.main(["run", "--config", str(cfg_path), "--output", str(out)])
        assert rc == 0
        assert out.exists()

    def test_demo_reports_ledger(self, capsys):
        rc = cli.main(["demo", "--epsilon", "0.01", "--target-w", "0.2"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["error"] <= 0.01
        assert data["ledger"]["label_queries"] == 0

    def test_validate_exit_codes(self, capsys, monkeypatch):
        rc = cli.main(["validate", "--instances", "5", "--seed", "0"])
        assert rc == 0
        from oraclelab.harness import ValidationReport

        monkeypatch.setattr(
            cli,
            "validate_against_bruteforce",
            lambda *a, **k: ValidationReport(5, 5, ["boom"]),
        )
        rc = cli.main(["validate", "--instances", "5"])
        assert rc == 1

    def test_config_overrides(self, tmp_path):
        cfg = small_larch_config()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "o.csv"
        rc = cli.main([
            "run", "--config", str(cfg_path),
            "--set", "seeds=[3]", "--set", "epsilons=[0.1]",
            "--output", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 and lines[2].split(",")[1] == "3"


class TestCliConfigErrors:
    @pytest.mark.parametrize(
        "fields,overrides,match",
        [
            ({"bogus": 1}, [], "unknown config field"),
            ({}, ["--set", 'seeds="abc"'], "seeds"),
            ({}, ["--set", "seeds=abc"], "seeds"),
            ({}, ["--set", 'delta="x"'], "delta"),
            ({}, ["--set", "nope=1"], "unknown config field"),
            ({"algorithm": "aalarch"}, [], "aalarch does not run on"),
            ({"algorithm": "alarch"}, [], "alarch does not run on"),
            ({"algorithm": "binary-search-demo"}, [], "threshold target"),
            ({"algorithm": "passive-baseline",
              "noise": {"kind": "rcn", "eta": 0.1}}, [], "noise-free"),
            ({"target": {"type": "interval_union",
                         "intervals": [[0.6, 0.3]]}}, [], "bad interval"),
            ({"target": {"type": "threshold"}}, [], "lacks 'w'"),
            ({"target": {"type": "threshold", "w": 1.5}}, [], "bad target"),
            ({"target": {"type": "auto-interval", "width_factor": "x"}}, [],
             "bad target"),
            ({"algorithm": "cal", "seed_examples": [[0.5, 3]]}, [],
             "seed_examples"),
            ({"search_policy": "bogus"}, [], "search policy"),
            ({"algorithm": "aalarch", "family": "intervals-enumerated",
              "n_cap": 0}, [], "n_cap"),
            ({"family": "thresholds-exact"}, [], "larch does not run on"),
            ({"algorithm": "al"}, [], "al does not run on"),
            ({}, ["--set", "seeds=[-1]"], "seeds"),
            ({"k_max": 0}, [], "at most k_max=0 intervals"),
            ({"algorithm": "seabel", "k_max": 0}, [],
             "at most k_max=0 intervals"),
            ({"algorithm": "passive-baseline", "k_max": 0}, [],
             "at most k_max=0 intervals"),
            ({"algorithm": "passive-baseline", "k_max": 0,
              "family": "thresholds-exact",
              "target": {"type": "threshold", "w": 0.4}}, [],
             "at most k_max=0 intervals"),
            ({"noise": {"kind": "rcn", "eta": 0.1}}, [], "noise-free"),
            ({"algorithm": "seabel", "noise": {"kind": "rcn", "eta": 0.1}},
             [], "noise-free"),
            # names the config object has that are not fields
            ({}, ["--set", "validate=1"], "unknown config field"),
            ({}, ["--set", "config_hash=1"], "unknown config field"),
            ({}, ["--set", "__class__=1"], "unknown config field"),
            # non-finite costs and caps
            ({}, ["--set", "tau=Infinity"], "tau inf must be finite"),
            ({}, ["--set", "tau=NaN"], "tau nan must be finite"),
            ({}, ["--set", "cost_cap=Infinity"], "cost_cap inf must be"),
            ({}, ["--set", "cost_cap=NaN"], "cost_cap nan must be"),
            ({}, ["--set", "cost_cap=0"], "cost_cap 0 must be"),
            ({"algorithm": "aalarch", "family": "intervals-enumerated"},
             ["--set", "cost_cap=-1"], "cost_cap -1 must be"),
            # no epsilon; a seed x off [0,1]; al seeds that fit no member
            ({}, ["--set", "epsilons=[]"], "need at least one epsilon"),
            ({"algorithm": "cal"}, ["--set", "seed_examples=[[NaN, 1]]"],
             "seed_examples must be"),
            ({"algorithm": "cal"}, ["--set", "seed_examples=[[1.5, 1]]"],
             "seed_examples must be"),
            ({"algorithm": "al", "family": "thresholds-grid",
              "target": {"type": "threshold", "w": 0.5}},
             ["--set", "seed_examples=[[0.2, 1], [0.7, -1]]"],
             "fits seed_examples"),
            # cal seeds that fit no member of one interval
            ({"algorithm": "cal"},
             ["--set", "k_max=1",
              "--set", "seed_examples=[[0.2, 1], [0.5, -1], [0.8, 1]]"],
             "fits seed_examples"),
        ],
    )
    def test_one_line_and_nonzero_exit(self, tmp_path, capsys, fields,
                                       overrides, match):
        data = json.loads(small_larch_config(seeds=[0]).to_json())
        data.update(fields)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        rc = cli.main(["run", "--config", str(cfg_path), *overrides,
                       "--output", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.strip().splitlines()) == 1
        assert match in err
        assert not (tmp_path / "o.csv").exists()


class TestCliSweep:
    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = small_larch_config(
            algorithm="binary-search-demo",
            target={"type": "threshold", "w": 0.37},
            epsilons=[1e-2, 1e-3, 1e-4],
            seeds=[0, 1, 2],
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "sweep.json"
        rc = cli.main(["sweep", "--config", str(cfg_path), "--output", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["epsilons"] == [1e-2, 1e-3, 1e-4]
        assert len(data["search_growth_per_decade"]) == 2


class TestShippedConfigs:
    def test_all_parse_and_validate(self):
        import pathlib

        cfg_dir = pathlib.Path(__file__).resolve().parents[1] / "configs"
        paths = sorted(cfg_dir.glob("*.json"))
        assert len(paths) >= 4
        for p in paths:
            cfg = ExperimentConfig.from_json(p.read_text())
            assert cfg.algorithm  # validated on load

    def test_shipped_alarch_config_runs_one_cell(self):
        import pathlib

        p = pathlib.Path(__file__).resolve().parents[1] / "configs" / "alarch-rcn.json"
        cfg = ExperimentConfig.from_json(p.read_text())
        row = run_cell(cfg, seed=0, epsilon=0.05)
        assert row.exact_error <= 0.25
        assert row.search_queries <= 2
