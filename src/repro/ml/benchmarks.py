"""The ten Table 1 benchmarks.

Each benchmark binds one of the five DSL programs to the paper-reported
workload shape (feature count, model topology, training-set size) and to a
scaled-down *functional* shape used when a test or example actually trains
the model. Timing and resource modelling always use the paper-scale
shapes; learning always really happens, just on fewer dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from ..dfg.translate import Translation, translate
from ..dsl import parse
from . import datasets
from .programs import source_for


@dataclass(frozen=True)
class Benchmark:
    """One row of Table 1."""

    name: str
    algorithm: str
    domain: str
    description: str
    features: int
    topology: str
    dims: Mapping[str, int]
    input_vectors: int
    data_gb: float
    loc: int
    functional_dims: Mapping[str, int]
    density: Mapping[str, float] = field(default_factory=dict)

    # -- program -----------------------------------------------------------
    def source(self) -> str:
        return source_for(self.algorithm)

    def translate(self, scaled: bool = False) -> Translation:
        """Translate the benchmark's DSL program, once per binding set.

        Both translations are memoised on the instance: every layer
        reaches the graph through here, and a translated graph is never
        mutated. The sizes derived from it (``model_words``,
        ``bytes_per_sample``) are memoised beside them.

        Args:
            scaled: bind the reduced functional dimensions instead of the
                paper-scale ones (for actually running training).
        """
        memo = self.__dict__.setdefault("_translations", {})
        if scaled not in memo:
            dims = self.functional_dims if scaled else self.dims
            memo[scaled] = translate(parse(self.source()), dims)
        return memo[scaled]

    # -- sizes ---------------------------------------------------------------
    def model_words(self) -> int:
        """MODEL words of the paper-scale graph, memoised on the instance."""
        memo = self.__dict__.setdefault("_sizes", {})
        if "model_words" not in memo:
            memo["model_words"] = self.translate().dfg.model_words()
        return memo["model_words"]

    def model_bytes(self, word_bytes: int = 4) -> int:
        return self.model_words() * word_bytes

    def bytes_per_sample(self, word_bytes: int = 4) -> float:
        """Bytes streamed per training vector.

        The floor is the DFG's (sparsity-aware) input words; where Table 1
        reports a larger on-disk record (doubles, headers, auxiliary
        fields — e.g. stock's tick records), the reported size wins, since
        that is what the memory system actually moves. Memoised per
        ``word_bytes`` on the instance.
        """
        memo = self.__dict__.setdefault("_sizes", {})
        key = ("bytes_per_sample", word_bytes)
        if key not in memo:
            from ..planner import effective_data_words

            dfg = self.translate().dfg
            dense = effective_data_words(dfg, self.density) * word_bytes
            reported = self.data_gb * 1e9 / self.input_vectors
            memo[key] = max(dense, reported)
        return memo[key]

    # -- data ------------------------------------------------------------------
    def make_dataset(self, samples: int, seed: int = 0) -> datasets.Dataset:
        """Generate a functional-scale dataset for this benchmark."""
        dims = self.functional_dims
        if self.algorithm == "linear_regression":
            return datasets.regression(dims["n"], samples, seed)
        if self.algorithm == "logistic_regression":
            return datasets.binary_classification(
                dims["n"], samples, seed, labels="01"
            )
        if self.algorithm == "svm":
            return datasets.binary_classification(
                dims["n"], samples, seed, labels="pm"
            )
        if self.algorithm == "backpropagation":
            return datasets.multilayer_perceptron(
                dims["n"], dims["h"], dims["c"], samples, seed
            )
        if self.algorithm == "collaborative_filtering":
            users = dims["e"] // 2
            return datasets.collaborative_filtering(
                users, dims["e"] - users, dims["f"], samples, seed
            )
        raise ValueError(f"unknown algorithm {self.algorithm!r}")


def _cf_density(entities: int) -> Dict[str, float]:
    return {"xu": 1.0 / entities, "xi": 1.0 / entities}


#: Table 1, in paper order.
BENCHMARKS: List[Benchmark] = [
    Benchmark(
        name="mnist",
        algorithm="backpropagation",
        domain="Image Processing",
        description="Handwritten digit pattern recognition",
        features=784,
        topology="784x784x10",
        dims={"n": 784, "h": 784, "c": 10},
        input_vectors=60_000,
        data_gb=0.4,
        loc=55,
        functional_dims={"n": 32, "h": 16, "c": 4},
    ),
    Benchmark(
        name="acoustic",
        algorithm="backpropagation",
        domain="Audio Processing",
        description="Hierarchical acoustic modeling for speech recognition",
        features=351,
        topology="351x1000x40",
        dims={"n": 351, "h": 1000, "c": 40},
        input_vectors=942_626,
        data_gb=5.6,
        loc=55,
        functional_dims={"n": 24, "h": 20, "c": 6},
    ),
    Benchmark(
        name="stock",
        algorithm="linear_regression",
        domain="Finance",
        description="Stock price prediction",
        features=8_000,
        topology="8000",
        dims={"n": 8_000},
        input_vectors=130_503,
        data_gb=14.7,
        loc=23,
        functional_dims={"n": 64},
    ),
    Benchmark(
        name="texture",
        algorithm="linear_regression",
        domain="Image Processing",
        description="Image texture recognition",
        features=16_384,
        topology="16384",
        dims={"n": 16_384},
        input_vectors=77_461,
        data_gb=17.9,
        loc=23,
        functional_dims={"n": 64},
    ),
    Benchmark(
        name="tumor",
        algorithm="logistic_regression",
        domain="Medical Diagnosis",
        description="Tumor classification using gene expression microarray",
        features=2_000,
        topology="2000",
        dims={"n": 2_000},
        input_vectors=387_944,
        data_gb=10.4,
        loc=22,
        functional_dims={"n": 48},
    ),
    Benchmark(
        name="cancer1",
        algorithm="logistic_regression",
        domain="Medical Diagnosis",
        description="Prostate cancer diagnosis based on gene expressions",
        features=6_033,
        topology="6033",
        dims={"n": 6_033},
        input_vectors=167_219,
        data_gb=13.5,
        loc=22,
        functional_dims={"n": 48},
    ),
    Benchmark(
        name="movielens",
        algorithm="collaborative_filtering",
        domain="Recommender System",
        description="Movielens recommender system",
        features=30_101,
        topology="30101x10",
        dims={"e": 30_101, "f": 10},
        input_vectors=24_404_096,
        data_gb=0.6,
        loc=42,
        functional_dims={"e": 60, "f": 4},
        density=_cf_density(30_101),
    ),
    Benchmark(
        name="netflix",
        algorithm="collaborative_filtering",
        domain="Recommender System",
        description="Netflix recommender system",
        features=73_066,
        topology="73066x10",
        dims={"e": 73_066, "f": 10},
        input_vectors=100_498_287,
        data_gb=2.0,
        loc=42,
        functional_dims={"e": 80, "f": 4},
        density=_cf_density(73_066),
    ),
    Benchmark(
        name="face",
        algorithm="svm",
        domain="Computer Vision",
        description="Human face detection",
        features=1_740,
        topology="1740",
        dims={"n": 1_740},
        input_vectors=678_392,
        data_gb=15.9,
        loc=27,
        functional_dims={"n": 40},
    ),
    Benchmark(
        name="cancer2",
        algorithm="svm",
        domain="Medical Diagnosis",
        description="Cancer diagnosis based on gene expressions",
        features=7_129,
        topology="7129",
        dims={"n": 7_129},
        input_vectors=208_444,
        data_gb=20.0,
        loc=27,
        functional_dims={"n": 48},
    ),
]

_BY_NAME = {b.name: b for b in BENCHMARKS}


def benchmark(name: str) -> Benchmark:
    """Look up a Table 1 benchmark by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


def benchmark_names() -> List[str]:
    return [b.name for b in BENCHMARKS]
