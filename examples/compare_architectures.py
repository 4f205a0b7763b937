"""Compare model architectures (a miniature of the paper's Table 4).

Trains {no GNN, GraphSAGE} x {column-wise, LSTM} tile models on the same
data and reports test APE / Kendall's tau, illustrating the paper's Q1/Q2:
graphs beat sequences, and a sequence reduction on top of a GNN helps.

Run:  python examples/compare_architectures.py
"""
from repro.data import build_tile_dataset
from repro.evaluation import evaluate_tile_task, format_table
from repro.models import ModelConfig, TrainConfig, predict_tile_scores, train_tile_model
from repro.workloads import random_split

VARIANTS = {
    "No GNN + column-wise": dict(gnn="none", reduction="column-wise"),
    "No GNN + LSTM": dict(gnn="none", reduction="lstm"),
    "GraphSAGE + column-wise": dict(gnn="graphsage", reduction="column-wise"),
    "GraphSAGE + LSTM": dict(gnn="graphsage", reduction="lstm"),
}


def main() -> None:
    split = random_split()
    train_ds = build_tile_dataset(split.train[::4], max_kernels_per_program=8,
                                  max_tiles_per_kernel=12, seed=0)
    test_ds = build_tile_dataset(split.test[:4], max_kernels_per_program=6,
                                 max_tiles_per_kernel=12, seed=1)
    print(f"train: {train_ds.num_samples} samples, test: {test_ds.num_samples}")

    rows = []
    for name, overrides in VARIANTS.items():
        config = ModelConfig(task="tile", loss="rank_hinge",
                             hidden_dim=48, opcode_embedding_dim=16, **overrides)
        result = train_tile_model(
            train_ds.records, config,
            TrainConfig(steps=800, kernels_per_batch=6, tiles_per_kernel=5,
                        learning_rate=8e-4, log_every=800),
        )
        truths = [r.runtimes for r in test_ds.records]
        scores = [predict_tile_scores(result.model, result.scalers, r)
                  for r in test_ds.records]
        m = evaluate_tile_task(truths, scores)
        rows.append([name, m.ape, m.kendall])
        print(f"  {name}: APE {m.ape:.1f}  tau {m.kendall:.2f}")

    print()
    print(format_table(
        ["architecture", "Tile-Size APE %", "Kendall tau"],
        rows,
        title="architecture comparison on unseen programs (cf. Table 4)",
    ))


if __name__ == "__main__":
    main()
