"""Fine-tuning on an out-of-distribution workload (paper Sec. 7.1).

"This demonstrates another advantage of a learned performance model over a
manually-written model: it can be easily improved with more data. If the
learned model does not perform well on some benchmarks, we can re-train or
fine-tune the model on similar benchmarks."

This example trains a tile model on convolutional programs only, shows it
struggling on an unseen sequence-model family, then fine-tunes on a sibling
program of that family and re-measures.

Run:  python examples/finetune_new_workload.py
"""
from repro.data import build_tile_dataset
from repro.evaluation import evaluate_tile_task, format_table
from repro.models import (
    ModelConfig,
    TrainConfig,
    fine_tune,
    predict_tile_scores,
    train_tile_model,
)
from repro.workloads import sequence, vision


def quality(result, dataset):
    truths = [r.runtimes for r in dataset.records]
    scores = [predict_tile_scores(result.model, result.scalers, r)
              for r in dataset.records]
    return evaluate_tile_task(truths, scores)


def main() -> None:
    conv_programs = [vision.resnet_v1(i) for i in range(3)] + [vision.inception(0)]
    target = sequence.smartcompose(0)        # unseen family
    sibling = sequence.smartcompose(1)       # fine-tuning data

    base_ds = build_tile_dataset(conv_programs, max_kernels_per_program=8,
                                 max_tiles_per_kernel=12, seed=0)
    target_ds = build_tile_dataset([target], max_kernels_per_program=8,
                                   max_tiles_per_kernel=12, seed=1)
    sibling_ds = build_tile_dataset([sibling], max_kernels_per_program=8,
                                    max_tiles_per_kernel=12, seed=2)

    config = ModelConfig(task="tile", reduction="column-wise",
                         hidden_dim=48, opcode_embedding_dim=16)
    print(f"training on {len(conv_programs)} conv programs "
          f"({base_ds.num_samples} samples)...")
    result = train_tile_model(base_ds.records, config,
                              TrainConfig(steps=1000, log_every=250), verbose=True)

    before = quality(result, target_ds)
    print(f"\nfine-tuning on sibling program '{sibling.name}' "
          f"({sibling_ds.num_samples} samples)...")
    result = fine_tune(result, sibling_ds.records,
                       TrainConfig(steps=400, log_every=100))
    after = quality(result, target_ds)

    print()
    print(format_table(
        ["stage", "Tile-Size APE %", "Kendall tau"],
        [
            ["conv-only training", before.ape, before.kendall],
            ["after fine-tuning", after.ape, after.kendall],
        ],
        title=f"quality on unseen program '{target.name}'",
    ))
    print("\nFixing the analytical model for a new workload family means "
          "hand-tuning heuristics; fixing the learned model is one "
          "fine_tune() call (paper Sec. 7.1).")


if __name__ == "__main__":
    main()
