"""Table I: hardware modules synthesized to train the ML resource model.

Paper: the per-family module counts of Table I (``TABLE1_COUNTS``, a model
input), feeding a 3-layer MLP with an 80/10/10 split.  We regenerate the
dataset (scaled for runtime), train the per-family MLPs, and report test
error per resource class.
"""

from repro.harness import render_table
from repro.model.resource.dataset import TABLE1_COUNTS, generate_all
from repro.model.resource.mlp import MlEstimator

#: Fraction of the paper's module counts actually synthesized per run.
SCALE = 0.05


def _build():
    datasets = generate_all(scale=SCALE)
    estimator = MlEstimator(dataset_scale=SCALE)
    return datasets, estimator


def test_table1_resource_dataset(once):
    datasets, estimator = once(_build)
    rows = []
    for family, paper_count in TABLE1_COUNTS.items():
        data = datasets[family]
        err = estimator.training_error[family]
        rows.append(
            (
                family,
                paper_count,
                len(data.features),
                f"{err['lut']:.1%}",
                f"{err['ff']:.1%}",
                f"{err['dsp']:.1%}",
            )
        )
    print()
    print(
        render_table(
            ["family", "paper #synth", "ours #synth", "LUT err", "FF err", "DSP err"],
            rows,
            title="Table I: ML resource-model training set",
        )
    )
    # Model must be usable: LUT prediction within 25% on held-out test data.
    for family in TABLE1_COUNTS:
        assert estimator.training_error[family]["lut"] < 0.25, family
    # Dataset proportions follow the paper's counts.
    assert len(datasets["pe"].features) > len(datasets["switch"].features)
    assert len(datasets["switch"].features) > len(datasets["in_port"].features)
