"""Ablation: suggestion-algorithm quality in the Vizier stand-in.

"Vizier's systematic search is critical for exploring the large and
diverse design space ... in a tractable amount of time."  This ablation
compares random search against the adaptive algorithms on the Fig. 7
CPU-only study, measuring the 2-D hypervolume of the Pareto front each
reaches under the same trial budget.
"""

from repro.dse import (
    Fig7Evaluator,
    MetricGoal,
    RandomSearch,
    RegularizedEvolution,
    Study,
    TpeLite,
    hypervolume_2d,
    vexriscv_space,
)

BUDGET = 60
SEEDS = (1, 2, 3)


def run_study(algorithm, evaluator, seed):
    study = Study(vexriscv_space(),
                  goals=[MetricGoal("cycles"), MetricGoal("logic_cells")],
                  algorithm=algorithm, seed=seed)

    def evaluate(parameters):
        point = evaluator.evaluate(parameters, "none")
        if point is None:
            return None
        return {"cycles": point.cycles, "logic_cells": point.logic_cells}

    study.run(evaluate, budget=BUDGET)
    return study


def front_hypervolume(study, reference):
    metrics = [study.metric_tuple(t) for t in study.optimal_trials()]
    return hypervolume_2d(metrics, reference)


def test_ablation_dse_algorithms(report):
    evaluator = Fig7Evaluator()
    reference = (5e10, 20_000)

    def run_all():
        scores = {}
        for name, factory in (
            ("random", RandomSearch),
            ("reg-evolution", RegularizedEvolution),
            ("tpe-lite", TpeLite),
        ):
            volumes = [
                front_hypervolume(run_study(factory(), evaluator, seed),
                                  reference)
                for seed in SEEDS
            ]
            scores[name] = sum(volumes) / len(volumes)
        return scores

    scores = run_all()
    report(f"Ablation — DSE algorithms, {BUDGET} trials x {len(SEEDS)} seeds "
           "(CPU-only study, hypervolume higher=better)")
    for name, volume in sorted(scores.items(), key=lambda kv: -kv[1]):
        report(f"  {name:14s} {volume:.3e}")

    best_adaptive = max(scores["reg-evolution"], scores["tpe-lite"])
    report(f"adaptive/random ratio: {best_adaptive / scores['random']:.3f}")
    # Adaptive search must at least match random under the same budget.
    assert best_adaptive >= scores["random"] * 0.95
