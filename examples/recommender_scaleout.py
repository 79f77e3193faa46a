"""Scale-out study on the recommender workload (movielens).

movielens is the paper's headline result (100.7x over Spark, Figure 7):
a collaborative-filtering model whose per-rating arithmetic is trivial
for the accelerator yet pathological for MLlib. This example sweeps the
cluster from 4 to 16 nodes for both systems, shows where the time goes,
and trains a scaled-down factor model for real.

Run: ``python examples/recommender_scaleout.py``
"""

from repro.baselines.spark import SparkModel
from repro.core.stack import CosmicStack
from repro.core.system import CosmicSystem, platform_for
from repro.ml.benchmarks import benchmark

NODE_COUNTS = (4, 8, 16)


def main():
    bench = benchmark("movielens")
    platform = platform_for(bench, "fpga")
    print(f"benchmark: {bench.name} — {bench.description}")
    print(f"model: {bench.topology} factors "
          f"({bench.model_bytes() / 1024:.0f} KB on the wire)\n")

    print("=== epoch time vs cluster size ===")
    print(f"{'nodes':>5}  {'Spark (s)':>10}  {'CoSMIC (s)':>10}  {'speedup':>8}")
    spark4 = SparkModel(4).epoch_seconds(bench)
    for nodes in NODE_COUNTS:
        spark_s = SparkModel(nodes).epoch_seconds(bench)
        cosmic_s = CosmicSystem(bench, platform, nodes).epoch_seconds()
        print(f"{nodes:>5}  {spark_s:>10.1f}  {cosmic_s:>10.1f}  "
              f"{spark4 / cosmic_s:>7.1f}x")

    system = CosmicSystem(bench, platform, 16)
    timing = system.iteration(10_000)
    print("\n=== one 16-node CoSMIC iteration (b = 10,000 per node) ===")
    print(f"total:           {timing.total_s * 1e3:7.1f} ms")
    print(f"accel compute:   {timing.compute_s * 1e3:7.1f} ms "
          f"({100 * timing.compute_fraction:.0f}%)")
    print(f"gradient collect:{timing.network_s * 1e3:7.1f} ms")
    print(f"model broadcast: {timing.broadcast_s * 1e3:7.1f} ms")

    # -- really train a small factor model --------------------------------
    stack = CosmicStack.from_benchmark(bench)
    dataset = bench.make_dataset(samples=6000, seed=3)
    trainer = stack.trainer(nodes=4, threads_per_node=2)
    # Matrix factorisation must start from a random point: the all-zeros
    # model is a saddle where every factor gradient vanishes.
    result = trainer.train(
        dataset.feeds,
        epochs=25,
        minibatch_per_worker=64,
        loss_fn=dataset.loss,
        learning_rate=1.0,
        model=trainer.initial_model(scale=0.2),
    )
    print("\n=== training the scaled factor model (60 entities x 4) ===")
    print(f"rating MSE: {result.loss_history[0]:.4f} -> {result.final_loss:.4f}")
    assert result.final_loss < 0.5 * result.loss_history[0]
    print("\nrecommender_scaleout OK")


if __name__ == "__main__":
    main()
