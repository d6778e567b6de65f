"""The paper's reference values live in one table, and the report and the
ledger read them from there (cheap: every DSE driver is stubbed)."""

import importlib
import re
from dataclasses import replace

import pytest

from repro.harness import experiments as ex
from repro.harness import paper, report
from repro.harness.paper import FACTOR_OFF, REVERSED, SAME, PaperClaim
from repro.workloads import PAPER_SUITE_NAMES, get_suite


def synthetic(value, kind="value", baseline=None):
    return PaperClaim("Fig. 0", "fig0.x", value, kind, "x", "{}",
                      baseline=baseline)


class TestVerdict:
    def test_opposite_sides_of_the_baseline_reverse_the_winner(self):
        speedup = synthetic(1.13, "ratio", baseline=1.0)
        assert paper.verdict(speedup, 0.74) == REVERSED
        assert paper.verdict(speedup, 1.30) == SAME

    def test_same_side_compares_by_factor(self):
        fraction = synthetic(0.47, "ratio", baseline=1.0)
        assert paper.verdict(fraction, 0.24) == SAME
        assert paper.verdict(fraction, 0.17) == FACTOR_OFF
        assert paper.verdict(synthetic(15), 30) == SAME
        assert paper.verdict(synthetic(15), 31) == FACTOR_OFF
        assert paper.verdict(synthetic(5, "count"), 0) == FACTOR_OFF

    def test_ranges_overlap_or_compare_nearest_ends(self):
        lut = synthetic((0.81, 0.97), "range")
        assert paper.verdict(lut, (0.78, 0.87)) == SAME
        assert paper.verdict(lut, 0.9) == SAME
        assert paper.verdict(lut, (0.30, 0.40)) == FACTOR_OFF
        assert paper.verdict(lut, (0.45, 0.60)) == SAME


class TestTable:
    def test_claim_keys_are_unique(self):
        keys = [c.key for c in paper.CLAIMS]
        assert len(keys) == len(set(keys))

    def test_every_mechanism_resolves_and_is_the_only_kind_named(self):
        for where in paper.MECHANISMS.values():
            module, _, name = where.rpartition(".")
            assert hasattr(importlib.import_module(module), name), where
        named = {m for c in paper.CLAIMS for m in c.mechanisms}
        assert named <= set(paper.MECHANISMS)

    def test_ratio_claims_have_a_baseline_and_ranges_two_ends(self):
        for c in paper.CLAIMS:
            assert (c.baseline is not None) == (c.kind == "ratio"), c.key
            assert isinstance(c.value, tuple) == (c.kind == "range"), c.key


@pytest.fixture
def stub_drivers(monkeypatch, tmp_path):
    """Tiny fixed rows for every DSE-backed driver the claims read."""
    monkeypatch.chdir(tmp_path)  # no BENCH_pipeline.json paragraphs
    stub = {
        "fig13_overall": lambda: [
            ex.Fig13Row(f"k-{s}", s, 2.0, 0.5, 1.5, 1.2)
            for s in PAPER_SUITE_NAMES
        ],
        "fig15_summary": lambda: {
            **{f"{s}_autodse_h": 40.0 for s in PAPER_SUITE_NAMES},
            **{f"{s}_overgen_h": 8.0 for s in PAPER_SUITE_NAMES},
            "fraction": 0.2,
        },
        "fig16_overlays": lambda: [
            ex.Fig16Row("o", "overlay", 0.8, 0.1, 0.1, 0.1, {})
        ],
        "fig16_autodse": lambda: [
            ex.Fig16Row("a", "autodse", 0.05, 0.01, 0.01, 0.01, {})
        ],
        "fig17_leave_one_out": lambda: [
            ex.Fig17Row("k", True, 0.6, 1e4, 6e4),
            ex.Fig17Row("j", False, 0.0, 0.0, 0.0),
        ],
        "fig18_incremental": lambda: [
            ex.Fig18Row("+a", 1, 9, 0.06, 0.05, 100.0),
            ex.Fig18Row("+b", 2, 6, 0.10, 0.09, 90.0),
        ],
        "fig18_generality_cost": lambda: 0.7,
        "fig19_dram_channels": lambda: [
            ex.Fig19Row(n, {1: 1.0, 2: 1.1, 4: 1.2}, {1: 1.0, 2: 1.1, 4: 1.3})
            for n in sorted(
                set(paper.FIG19_BENEFITING)
                | {w.name for w in get_suite("machsuite")}
            )
        ],
        "fig20_schedule_preserving": lambda s: ex.Fig20Result(
            s, [], [], 1.1, 1.0, 9.0, 10.0
        ),
        "table3_suite_overlays": lambda: [
            {"overlay": s, "tiles": 8} for s in PAPER_SUITE_NAMES
        ] + [{"overlay": "general", "tiles": 4}],
    }
    for name, fn in stub.items():
        monkeypatch.setattr(ex, name, fn)


QUOTING = (
    report._fig11_12_section, report._fig13_section, report._fig15_section,
    report._fig16_section, report._fig17_section, report._fig18_section,
    report._fig19_section, report._fig20_section, report._ledger_section,
)


def render():
    return {section.__name__: section() for section in QUOTING}


@pytest.mark.parametrize(
    "key, value, quoted_by",
    [
        ("fig15.fraction", 0.1, {"_fig15_section"}),
        ("fig13.vs_tuned.machsuite", 0.9, {"_fig13_section"}),
        ("fig12.clock_mhz", 120.0, {"_fig11_12_section"}),
        ("fig18.retained", 0.5, set()),  # quoted by the ledger only
    ],
)
def test_one_claim_moves_its_quotes_and_its_ledger_row_only(
    stub_drivers, monkeypatch, key, value, quoted_by
):
    before = render()
    monkeypatch.setattr(paper, "CLAIMS", tuple(
        replace(c, value=value) if c.key == key else c for c in paper.CLAIMS
    ))
    after = render()
    moved = {name for name in before if before[name] != after[name]}
    assert moved == quoted_by | {"_ledger_section"}
    # Cells, not lines: a wider cell re-pads its whole column.
    old, new = (
        [re.split(r"\s{2,}", line.strip()) for line in text.splitlines()]
        for text in (before["_ledger_section"], after["_ledger_section"])
    )
    changed = [b for a, b in zip(old, new) if a != b and "---" not in a[0]]
    assert len(old) == len(new) and len(changed) == 1
    assert changed[0][1] == paper.claim(key).claim


def test_ledger_rows_name_a_mechanism_only_on_a_mismatch(stub_drivers):
    rows = {r.claim.key: r for r in ex.paper_ledger()}
    assert len(rows) == len(paper.CLAIMS)
    fraction = rows["fig15.fraction"]  # paper 47%, stubbed 20%: factor off
    assert (fraction.verdict, fraction.mechanisms) == (
        FACTOR_OFF, ("modeled toolchain time", "DSE anatomy")
    )
    ipc = rows["fig20.ipc_ratio"]  # paper 1.09x, stubbed 1.10x
    assert (ipc.verdict, ipc.mechanisms) == (SAME, ())
    mapped = rows["fig17.mapped"]  # paper 5/5, stubbed 1/5
    assert (mapped.measured, mapped.verdict, mapped.mechanisms) == (
        1, FACTOR_OFF, ("open",)
    )
