"""The paper's tables and figures in one run, gated by their shapes, as JSON.

Regenerates, in one process (``harness`` caches every dataset and trained
model, so a model trained for one section is reused by the next):

* **Table 1** — dataset statistics per split and subset;
* **Table 2** — learned vs analytical accuracy on the random split;
* **Table 8** — the same on the manual (dissimilarity) split;
* **Figure 4** — the tile-size autotuner: speedup over the analytical
  model's top-1 tile of Exhaustive, Learned 10, Analytical 10, Learned 1;
* **Figure 5** — the fusion autotuner: hardware-only search against the
  cost model pre-ranking for a small hardware budget, from the default
  and from a random start;
* **TPU v3** (Sec. 5.1/5.2) — the best tile model retrained on v3
  measurements, against its v2 accuracy;
* **Table 3** — graph-feature and loss-function ablations;
* **Table 4** — {No GNN, GraphSAGE, GAT} x {per-node, column-wise, LSTM,
  Transformer} on both tasks.

Output is one JSON object on stdout and the tables, with the paper's
numbers beside ours, on stderr. Each section's object holds its rows, the
scalars the checks read and the paper's reference numbers. ``checks``
lists 14 shape checks ``{section, name, value, op, bound, passed}``, where
``value`` is ``report[section][name]``; ``ok`` is their conjunction and the
exit code is non-zero when it is false. Every section runs and every check
is reported, whichever fails.

Gated — the paper's shapes, with loose thresholds because the corpus and
the training budgets are orders of magnitude smaller than the paper's:

* Table 1: more random-split training than validation programs; at least
  two tile samples per kernel in every subset.
* Table 2: learned median tile APE <= analytical + 2.0 (a mean over 8
  programs is dominated by the most dissimilar one, ConvDRAW, also the
  paper's worst); learned mean fusion MAPE < analytical.
* Table 8: learned mean fusion MAPE < 1.25x analytical — 2.5x in fast
  mode, which trains far too briefly for the hard split.
* Figure 4: Exhaustive >= Learned 10 and Analytical 10 on every program
  (1e-9 slack); mean |Learned 10 - Analytical 10| < 0.25.
* Figure 5: geometric-mean speedup of cost model + HW 1 >= 0.97x HW 1,
  from the default and from a random start.
* TPU v3: |v3 - v2| learned mean tile APE < 6.0.
* Table 3, on medians (per-node fusion is high-variance; the paper's
  Table 4 reports a 132.7 std): MSE-loss tile APE > 0.8x vanilla; static
  node features' fusion MAPE <= 1.6x vanilla.
* Table 4: GraphSAGE's mean tile APE over the four reductions <= 1.1x
  No GNN's and <= 1.1x GAT's.

Reported, not gated: every other number, among them the paper's headline
that learned beats analytical on mean tile APE, which this reproduction
does not show (``tile_learned_ape_mean`` against
``tile_analytical_ape_mean``).

Run with ``REPRO_BENCH_FAST=1`` for the CI smoke configuration (a quarter
of the training programs, a few hundred steps per model).
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import asdict, fields

# One BLAS thread, set before NumPy loads. The trained models, and so
# the tables, depend on the thread count: with two threads, fast mode
# reads Table 4's GraphSAGE per-node tile APE 4.07, with one 3.81.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from harness import (  # noqa: E402
    FAST,
    check_record,
    eval_fusion_split,
    eval_tile_split,
    fusion_data,
    scale,
    split,
    stamp_report,
    tile_data,
    trained_fusion_model,
    trained_tile_model,
)
from repro.autotuner import (  # noqa: E402
    AnalyticalEvaluator,
    HardwareEvaluator,
    LearnedEvaluator,
    exhaustive_tile_autotune,
    hardware_fusion_autotune,
    model_fusion_autotune,
    model_tile_autotune,
)
from repro.compiler import (  # noqa: E402
    FusionConfig,
    enumerate_tile_sizes,
    fuse_program,
    fusible_edges,
)
from repro.evaluation import format_table, geometric_mean  # noqa: E402
from repro.models import ModelConfig  # noqa: E402
from repro.tpu import TPU_V3, TpuSimulator  # noqa: E402

BEST_TILE = ModelConfig.paper_best_tile()
BEST_FUSION = ModelConfig.paper_best_fusion()

#: Table 3 variants as overrides of the vanilla GraphSAGE + per-node
#: configuration, with the paper's (tile, fusion) mean errors; variants
#: without a fusion number run on the tile task only.
TABLE3_VARIANTS = {
    "Vanilla": ({}, (6.8, 10.2)),
    "Undirected": ({"directed": False}, (6.8, 14.0)),
    "Static perf (node)": (
        {"use_static_features": True, "static_placement": "node"}, (6.3, 5.2)
    ),
    "Static perf (kernel emb)": (
        {"use_static_features": True, "static_placement": "kernel"}, (5.9, 6.0)
    ),
    "Tile-size in kernel emb": ({"tile_placement": "kernel"}, (9.4, None)),
    "MSE loss (not rank)": ({"loss": "mse"}, (17.7, None)),
}
GNNS = ("none", "graphsage", "gat")
#: The paper's Table 4: mean test error of (No GNN, GraphSAGE, GAT) per
#: reduction, per task.
PAPER_TABLE4 = {
    "tile": {
        "per-node": (10.7, 6.0, 9.2),
        "column-wise": (9.3, 6.9, 8.4),
        "lstm": (7.1, 3.7, 7.7),
        "transformer": (10.8, 4.6, 8.2),
    },
    "fusion": {
        "per-node": (16.6, 7.3, 15.1),
        "column-wise": (6.6, 5.1, 8.5),
        "lstm": (3.9, 5.0, 7.4),
        "transformer": (7.3, 4.5, 14.6),
    },
}
#: The paper's numbers per section, keyed like ours where it gives one.
PAPER = {
    "table1": "random split 93/8/8 programs, 21.8M/1.6M/1.4M tile samples, "
    "157.5M/30.1M/20.3M fusion samples; manual split 22.9M/1.4M/0.5M tile, "
    "190.2M/11.2M/6.6M fusion samples (ours is a scaled-down corpus)",
    "table2": {
        "tile_learned_ape_median": 3.3, "tile_analytical_ape_median": 6.2,
        "tile_learned_ape_mean": 3.7, "tile_analytical_ape_mean": 6.1,
        "tile_learned_tau_mean": 0.80, "tile_analytical_tau_mean": 0.74,
        "fusion_learned_mape_mean": 4.5, "fusion_analytical_mape_mean": 31.1,
        "fusion_learned_tau_mean": 0.92, "fusion_analytical_tau_mean": 0.80,
    },
    "table8": {
        "tile_learned_ape_mean": 6.4, "tile_analytical_ape_mean": 2.3,
        "tile_learned_tau_mean": 0.73, "tile_analytical_tau_mean": 0.75,
        "fusion_learned_mape_mean": 6.2, "fusion_analytical_mape_mean": 18.1,
        "fusion_learned_tau_mean": 0.84, "fusion_analytical_tau_mean": 0.88,
    },
    "fig4": "Learned 10 within 1-3% of Analytical 10 on every program; "
    "Learned 1 comparable to the compiler default",
    "fig5": "cost model + HW ~1.5% faster than HW alone from the default "
    "start, ~10% from a random start; HW 1 matches HW 10 when the cost "
    "model pre-ranks",
    "tpu_v3": {"v3_ape_mean": 3.8, "v3_tau_mean": 0.65, "v2_ape_mean": 3.7},
    "table3": {name: paper for name, (_, paper) in TABLE3_VARIANTS.items()},
    "table4": PAPER_TABLE4,
}

HEADERS = {
    "tile": ["Application", "APE(L)", "APE(A)", "tau(L)", "tau(A)"],
    "fusion": ["Application", "MAPE(L)", "MAPE(A)", "tau(L)", "tau(A)"],
}


def show(title: str, headers: list[str], rows: list[list], note: str = "") -> None:
    """One human-readable table on stderr."""
    print(file=sys.stderr)
    print(format_table(headers, rows, title=title), file=sys.stderr)
    if note:
        print(f"paper: {note}", file=sys.stderr)


def first_of_families(families: list[str]) -> list:
    """The first random-split training program of each family."""
    train = split("random").train
    return [next(p for p in train if p.family == family) for family in families]


# ----------------------------------------------------------------- sections
def table1() -> dict:
    rows = []
    for split_name in ("random", "manual"):
        s = split(split_name)
        for subset in ("train", "validation", "test"):
            tile = tile_data(split_name, subset)
            rows.append({
                "split": split_name,
                "set": subset,
                "programs": len(getattr(s, subset)),
                "tile_kernels": tile.num_kernels,
                "tile_samples": tile.num_samples,
                "fusion_samples": fusion_data(split_name, subset).num_samples,
            })
    show(
        "Table 1 (reproduced): dataset statistics",
        ["Split", "Set", "Programs", "Tile kernels", "Tile samples", "Fusion samples"],
        [list(r.values()) for r in rows],
        PAPER["table1"],
    )
    return {
        "rows": rows,
        "random_train_programs": rows[0]["programs"],
        "random_validation_programs": rows[1]["programs"],
        "min_tile_samples_per_kernel": min(r["tile_samples"] / r["tile_kernels"] for r in rows),
    }


def accuracy(split_name: str, section: str, title: str) -> dict:
    """Table 2 / 8: per-application rows, and the median and mean of every
    column as ``{task}_{column}_{median|mean}``."""
    paper = PAPER[section]
    out = {}
    for task, rows in (
        ("tile", eval_tile_split(split_name, trained_tile_model(split_name, BEST_TILE))),
        ("fusion", eval_fusion_split(split_name, trained_fusion_model(split_name, BEST_FUSION))),
    ):
        out[task] = [asdict(r) for r in rows]
        body = [list(r.values()) for r in out[task]]
        columns = [f.name for f in fields(rows[0])][1:]
        for stat in (np.median, np.mean):
            keys = [f"{task}_{c}_{stat.__name__}" for c in columns]
            values = [float(stat([r[c] for r in out[task]])) for c in columns]
            out.update(zip(keys, values))
            body.append([stat.__name__.title()] + values)
            if any(k in paper for k in keys):
                body.append([f"paper {stat.__name__}"] + [paper.get(k, "-") for k in keys])
        subset = " (kernels >= 5us)" if task == "fusion" else ""
        show(f"{title}, {task} task{subset}", HEADERS[task], body)
    return out


def fig4() -> dict:
    tile_model = trained_tile_model("random", BEST_TILE)
    learned = LearnedEvaluator(tile_model.model, tile_model.scalers)
    analytical = AnalyticalEvaluator()
    programs = list(split("random").test_names.items()) + [
        (f"{p.family} (extra)", p)
        for p in first_of_families(["translate", "inception", "transformer", "smartcompose"])
    ]
    cap = scale(8, 4)
    rows = []
    for display, program in programs:
        kernels = [
            k
            for k in fuse_program(program.graph, program_name=program.name)
            if k.has_tile_options() and len(enumerate_tile_sizes(k)) >= 2
        ]
        if len(kernels) > cap:
            picks = np.linspace(0, len(kernels) - 1, cap).round().astype(int)
            kernels = [kernels[i] for i in picks]
        if not kernels:
            continue
        sim = TpuSimulator()

        def runtime(evaluator, top_k):
            return model_tile_autotune(
                kernels, evaluator, HardwareEvaluator(sim), top_k=top_k
            ).program_runtime

        # The baseline: the analytical model's top-1 tile per kernel.
        baseline = runtime(analytical, 1)
        rows.append({
            "program": display,
            "exhaustive": baseline
            / exhaustive_tile_autotune(kernels, HardwareEvaluator(sim)).program_runtime,
            "learned_10": baseline / runtime(learned, 10),
            "analytical_10": baseline / runtime(analytical, 10),
            "learned_1": baseline / runtime(learned, 1),
        })
    show(
        "Figure 4 (reproduced): speedup over analytical-default tiles",
        ["Program", "Exhaustive", "Learned 10", "Analytical 10", "Learned 1"],
        [list(r.values()) for r in rows],
        PAPER["fig4"],
    )
    ex, l10, a10 = (
        np.array([r[c] for r in rows]) for c in ("exhaustive", "learned_10", "analytical_10")
    )
    return {
        "rows": rows,
        "exhaustive_margin_min": float(np.min(np.minimum(ex - l10, ex - a10))),
        "learned10_analytical10_gap_mean": float(np.mean(np.abs(l10 - a10))),
    }


def fig5() -> dict:
    fusion_model = trained_fusion_model("random", BEST_FUSION)
    hw_budget_10, hw_budget_1, model_budget = scale(40, 15), scale(6, 3), scale(250, 60)
    rows = []
    for program in first_of_families(
        ["transformer", "char2feats", "resnet_parallel", "feats2wave", "ranking"]
    ):
        sim = TpuSimulator()
        learned = LearnedEvaluator(fusion_model.model, fusion_model.scalers)

        def hardware(budget, start=None):
            return hardware_fusion_autotune(
                program, HardwareEvaluator(sim), budget=budget, seed=0, start=start
            ).speedup

        def cost_model(start=None):
            return model_fusion_autotune(
                program, learned, HardwareEvaluator(sim),
                model_budget=model_budget, hardware_budget=hw_budget_1, seed=0, start=start,
            ).speedup

        row = {
            "program": program.family,
            "hw_10": hardware(hw_budget_10),
            "hw_1": hardware(hw_budget_1),
            "cm_hw_1": cost_model(),
        }
        random_start = FusionConfig.random(
            len(fusible_edges(program.graph)), np.random.default_rng(7), p=0.5
        )
        row["hw_1_random_start"] = hardware(hw_budget_1, random_start)
        row["cm_hw_1_random_start"] = cost_model(random_start)
        rows.append(row)
    show(
        "Figure 5 (reproduced): fusion-autotuner speedup over default",
        ["Program", "HW 10", "HW 1", "CM + HW 1", "HW 1 (rand)", "CM + HW 1 (rand)"],
        [list(r.values()) for r in rows],
        PAPER["fig5"],
    )
    out = {"rows": rows}
    for column in list(rows[0])[1:]:
        out[f"{column}_geomean"] = geometric_mean([r[column] for r in rows])
    return out


def tpu_v3() -> dict:
    v3 = trained_tile_model("random", BEST_TILE, target=TPU_V3)
    rows = [
        {"application": r.application, "ape": r.learned_ape, "tau": r.learned_tau}
        for r in eval_tile_split("random", v3, target=TPU_V3)
    ]
    v2 = eval_tile_split("random", trained_tile_model("random", BEST_TILE))
    out = {
        "rows": rows,
        "v3_ape_mean": float(np.mean([r["ape"] for r in rows])),
        "v3_tau_mean": float(np.mean([r["tau"] for r in rows])),
        "v2_ape_mean": float(np.mean([r.learned_ape for r in v2])),
    }
    out["v3_v2_ape_mean_gap"] = abs(out["v3_ape_mean"] - out["v2_ape_mean"])
    paper = PAPER["tpu_v3"]
    show(
        "TPU v3 generalization (reproduced), tile task",
        ["Application", "APE (v3)", "tau (v3)"],
        [list(r.values()) for r in rows] + [["Mean", out["v3_ape_mean"], out["v3_tau_mean"]]],
        f"v3 learned mean APE {paper['v3_ape_mean']} tau {paper['v3_tau_mean']}, "
        f"v2 {paper['v2_ape_mean']}; our v2 mean APE: {out['v2_ape_mean']:.2f}",
    )
    return out


def learned_errors(config: ModelConfig, steps: int) -> list[float]:
    """Per-application test error of ``config`` trained on the random
    split for ``steps``: tile APE or fusion MAPE."""
    if config.task == "tile":
        rows = eval_tile_split("random", trained_tile_model("random", config, steps))
        return [r.learned_ape for r in rows]
    rows = eval_fusion_split("random", trained_fusion_model("random", config, steps))
    return [r.learned_mape for r in rows]


def table3() -> dict:
    steps = scale(900, 250)
    variants = {}
    for task in ("tile", "fusion"):
        for name, (overrides, paper) in TABLE3_VARIANTS.items():
            if task == "fusion" and paper[1] is None:
                continue
            errors = learned_errors(ModelConfig.vanilla(task).with_overrides(**overrides), steps)
            variants.setdefault(name, {}).update({
                f"{task}_median": float(np.median(errors)),
                f"{task}_mean": float(np.mean(errors)),
            })
    show(
        "Table 3 (reproduced): feature/loss ablations (test errors)",
        ["Variant", "Tile med", "Tile mean", "Fus med", "Fus mean", "paper tile", "paper fus"],
        [
            [name, v["tile_median"], v["tile_mean"], v.get("fusion_median", "N/A"),
             v.get("fusion_mean", "N/A"), *(p if p is not None else "N/A" for p in paper)]
            for (name, v), (_, paper) in zip(variants.items(), TABLE3_VARIANTS.values())
        ],
    )
    return {
        "variants": variants,
        "mse_loss_tile_median": variants["MSE loss (not rank)"]["tile_median"],
        "static_node_fusion_median": variants["Static perf (node)"]["fusion_median"],
    }


def table4() -> dict:
    steps = scale(700, 200)
    grid = {"tile": {}, "fusion": {}}
    for gnn in GNNS:
        for reduction in PAPER_TABLE4["tile"]:
            for task, loss in (("tile", "rank_hinge"), ("fusion", "mse")):
                config = ModelConfig(
                    task=task, gnn=gnn, reduction=reduction, loss=loss,
                    use_static_features=True, static_placement="node",
                )
                grid[task].setdefault(reduction, {})[gnn] = float(
                    np.mean(learned_errors(config, steps))
                )
    for task, label in (("tile", "tile-size (mean APE)"), ("fusion", "fusion (mean MAPE)")):
        show(
            f"Table 4 (reproduced): {label}",
            ["Reduction", "NoGNN", "SAGE", "GAT", "p:NoGNN", "p:SAGE", "p:GAT"],
            [
                [reduction, *(by_gnn[g] for g in GNNS), *PAPER_TABLE4[task][reduction]]
                for reduction, by_gnn in grid[task].items()
            ],
        )
    tile_mean = {
        g: float(np.mean([by_gnn[g] for by_gnn in grid["tile"].values()])) for g in GNNS
    }
    return {
        **grid,
        "tile_mean_by_gnn": tile_mean,
        "graphsage_over_none_tile": tile_mean["graphsage"] / tile_mean["none"],
        "graphsage_over_gat_tile": tile_mean["graphsage"] / tile_mean["gat"],
    }


SECTIONS = {
    "table1": table1,
    "table2": lambda: accuracy("random", "table2", "Table 2 (reproduced), random split"),
    "table8": lambda: accuracy("manual", "table8", "Table 8 (reproduced), manual split"),
    "fig4": fig4,
    "fig5": fig5,
    "tpu_v3": tpu_v3,
    "table3": table3,
    "table4": table4,
}


# ------------------------------------------------------------------- checks
def evaluate(report: dict) -> dict:
    """The 14 shape checks over a report's numbers, and their conjunction.

    Pure — it reads ``report`` and trains nothing — so a test can feed it
    any report. Each check's value is ``report[section][name]``.
    """
    t1, t2, t8, f5, t3 = (report[s] for s in ("table1", "table2", "table8", "fig5", "table3"))
    check = functools.partial(check_record, report)
    vanilla = t3["variants"]["Vanilla"]
    checks = [
        check("table1", "random_train_programs", ">", t1["random_validation_programs"]),
        check("table1", "min_tile_samples_per_kernel", ">=", 2.0),
        check("table2", "tile_learned_ape_median", "<=", t2["tile_analytical_ape_median"] + 2.0),
        check("table2", "fusion_learned_mape_mean", "<", t2["fusion_analytical_mape_mean"]),
        check(
            "table8", "fusion_learned_mape_mean", "<",
            t8["fusion_analytical_mape_mean"] * (2.5 if report["fast_mode"] else 1.25),
        ),
        check("fig4", "exhaustive_margin_min", ">=", -1e-9),
        check("fig4", "learned10_analytical10_gap_mean", "<", 0.25),
        check("fig5", "cm_hw_1_geomean", ">=", f5["hw_1_geomean"] * 0.97),
        check(
            "fig5", "cm_hw_1_random_start_geomean", ">=",
            f5["hw_1_random_start_geomean"] * 0.97,
        ),
        check("tpu_v3", "v3_v2_ape_mean_gap", "<", 6.0),
        check("table3", "mse_loss_tile_median", ">", vanilla["tile_median"] * 0.8),
        check("table3", "static_node_fusion_median", "<=", vanilla["fusion_median"] * 1.6),
        check("table4", "graphsage_over_none_tile", "<=", 1.1),
        check("table4", "graphsage_over_gat_tile", "<=", 1.1),
    ]
    return {"checks": checks, "ok": all(c["passed"] for c in checks)}


def main() -> dict:
    report = {"benchmark": "bench_paper", "fast_mode": FAST, "wall_s": {}}
    for name, run in SECTIONS.items():
        start = time.perf_counter()
        report[name] = {**run(), "paper": PAPER[name]}
        report["wall_s"][name] = time.perf_counter() - start
    report["wall_s"]["total"] = sum(report["wall_s"].values())
    report.update(evaluate(report))
    show(
        f"Shape checks: {sum(c['passed'] for c in report['checks'])} of "
        f"{len(report['checks'])} pass",
        ["Section", "Check", "Value", "Op", "Bound", "Result"],
        [
            [c["section"], c["name"], f"{c['value']:.4g}", c["op"], f"{c['bound']:.4g}",
             "pass" if c["passed"] else "FAIL"]
            for c in report["checks"]
        ],
    )
    return report


if __name__ == "__main__":
    report = main()
    print(json.dumps(stamp_report(report), indent=2))
    sys.exit(0 if report["ok"] else 1)
