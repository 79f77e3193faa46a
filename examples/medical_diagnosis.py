"""Medical diagnosis at scale: the paper's ``tumor`` benchmark end to end.

Trains the gene-expression logistic-regression classifier (Table 1:
2,000 features, 387,944 vectors, 10.4 GB) on a simulated 8-node
FPGA-accelerated cluster, and compares the projected epoch time against
the Spark+MLlib baseline — the Figure 7 experiment for one benchmark,
with the actual learning running on a scaled-down synthetic cohort.

Run: ``python examples/medical_diagnosis.py``
"""

import numpy as np

from repro.baselines.spark import SparkModel
from repro.core.stack import CosmicStack
from repro.core.system import CosmicSystem, platform_for
from repro.ml.benchmarks import benchmark
from repro.runtime.cluster import ClusterSimulator, ClusterSpec

NODES = 8


def main():
    bench = benchmark("tumor")
    print(f"benchmark: {bench.name} — {bench.description}")
    print(f"paper-scale: {bench.features} features, "
          f"{bench.input_vectors:,} vectors, {bench.data_gb} GB\n")

    # -- projected performance at paper scale -----------------------------
    platform = platform_for(bench, "fpga")
    cosmic = CosmicSystem(bench, platform, NODES)
    spark = SparkModel(NODES)
    cosmic_epoch = cosmic.epoch_seconds()
    spark_epoch = spark.epoch_seconds(bench)
    timing = cosmic.iteration(10_000)
    print(f"=== projected epoch time, {NODES} nodes ===")
    print(f"CoSMIC (FPGA): {cosmic_epoch * 1e3:8.1f} ms")
    print(f"Spark+MLlib:   {spark_epoch * 1e3:8.1f} ms")
    print(f"speedup:       {spark_epoch / cosmic_epoch:8.1f}x")
    print(f"compute share of a CoSMIC iteration: "
          f"{100 * timing.compute_fraction:.0f}%\n")

    # -- actual training on a synthetic cohort ----------------------------
    stack = CosmicStack.from_benchmark(bench)
    dataset = bench.make_dataset(samples=4096, seed=42)
    cluster = ClusterSimulator(
        ClusterSpec(nodes=NODES),
        lambda node, samples: platform.compute_seconds(samples),
        update_bytes=bench.model_bytes(),
    )
    trainer = stack.trainer(nodes=NODES, threads_per_node=2, cluster=cluster)
    result = trainer.train(
        dataset.feeds,
        epochs=6,
        minibatch_per_worker=32,
        loss_fn=dataset.loss,
        learning_rate=0.5,
    )

    def diagnosis_accuracy(model):
        scores = dataset.feeds["x"] @ model["w"]
        return float(np.mean((scores > 0) == (dataset.feeds["y"] > 0.5)))

    print("=== training on the synthetic cohort (scaled dims) ===")
    print(f"iterations:       {result.iterations}")
    print(f"cross-entropy:    {result.loss_history[0]:.3f} -> "
          f"{result.final_loss:.3f}")
    print(f"accuracy:         {100 * diagnosis_accuracy(result.model):.1f}%")
    print(f"simulated time:   {result.simulated_seconds * 1e3:.1f} ms "
          f"on the {NODES}-node cluster")
    assert diagnosis_accuracy(result.model) > 0.9
    print("\nmedical_diagnosis OK")


if __name__ == "__main__":
    main()
