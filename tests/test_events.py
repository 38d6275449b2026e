"""Oracle transcripts reconcile with the ledger.

Every draw, LABEL and SEARCH goes through ``OracleBundle``, which appends
one record per call to its transcript. Over a cell, the summed ``draw``
and ``label`` sizes and the number of ``search`` records must equal the
row's ``unlabeled_draws``, ``label_queries`` and ``search_queries``, and
every record's ledger must equal the running sums up to it. The cells
run through ``run_cell`` with ``harness.make_bundle`` patched to record a
transcript: one seed of every shipped config, plus a small config for
each algorithm no shipped config runs, so all eight are covered.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from oraclelab import harness
from oraclelab.harness import ALGORITHMS, ExperimentConfig
from oraclelab.oracles import events_to_jsonl

CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "configs").glob("*.json")
)

SMALL = (
    ExperimentConfig(
        algorithm="binary-search-demo", family="thresholds-exact",
        target={"type": "threshold", "w": 0.37}, epsilons=[1e-3],
    ),
    ExperimentConfig(algorithm="cal", k_max=1, epsilons=[0.02]),
    ExperimentConfig(
        algorithm="seabel", k_max=2,
        target={"type": "interval_union",
                "intervals": [[0.2, 0.4], [0.6, 0.7]]},
        epsilons=[0.05],
    ),
    ExperimentConfig(
        algorithm="al", family="thresholds-grid", resolution=41,
        target={"type": "threshold", "w": 0.4},
        noise={"kind": "rcn", "eta": 0.1}, epsilons=[0.1],
    ),
)


def cases() -> list:
    shipped = [
        pytest.param(ExperimentConfig.from_json(p.read_text()), id=p.stem)
        for p in CONFIGS
    ]
    small = [pytest.param(cfg, id=cfg.algorithm) for cfg in SMALL]
    return shipped + small


def test_every_algorithm_is_covered():
    assert {p.values[0].algorithm for p in cases()} == set(ALGORITHMS)


@pytest.mark.parametrize("config", cases())
def test_transcript_reconciles_with_ledger(config, monkeypatch):
    transcripts: list[list] = []
    make_bundle = harness.make_bundle

    def recording(cfg, target, seed):
        bundle = make_bundle(cfg, target, seed)
        bundle.transcript = []
        transcripts.append(bundle.transcript)
        return bundle

    monkeypatch.setattr(harness, "make_bundle", recording)
    config.validate()
    for eps in config.epsilons:
        row = harness.run_cell(config, config.seeds[0], eps)
        (events,) = transcripts
        transcripts.clear()
        assert events
        draws = labels = searches = 0
        for e in events:
            assert e.event in ("draw", "label", "search")
            if e.event == "draw":
                draws += e.input["n"]
            elif e.event == "label":
                labels += e.input["n"]
            else:
                searches += 1
            assert (
                e.ledger["unlabeled_draws"],
                e.ledger["label_queries"],
                e.ledger["search_queries"],
            ) == (draws, labels, searches)
        assert (draws, labels, searches) == (
            row.unlabeled_draws, row.label_queries, row.search_queries,
        )
        lines = events_to_jsonl(events).splitlines()
        assert [json.loads(s)["event"] for s in lines] == [
            e.event for e in events
        ]
