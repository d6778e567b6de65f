"""Figure 11: stream-table one-hot bypass.

Paper: a flip-flop-based stream table creates a bubble when only one
stream is active — issue rate drops to one every two cycles; the one-hot
bypass forwards the updated entry combinationally and doubles the rate.
"""

from repro.harness.paper import claim
from repro.sim import BandwidthPool, EngineSim, PortFifo, StreamState


def _issue_rate(onehot: bool, cycles: int = 400) -> float:
    port = PortFifo("p", capacity=1e9)
    engine = EngineSim("dma", bandwidth_bytes=8, onehot_bypass=onehot)
    engine.add_stream(
        StreamState(
            name="s0",
            total_elements=1e9,
            elements_per_cycle_cap=1.0,
            port=port,
            is_read=True,
            element_bytes=8,
        )
    )
    moved = 0.0
    for now in range(cycles):
        moved += engine.step(now)
    return moved / cycles


def test_fig11_onehot_bypass(once):
    with_bypass, without = once(lambda: (_issue_rate(True), _issue_rate(False)))
    paper_without, paper_with = (
        claim(f"fig11.{key}") for key in ("no_bypass", "bypass")
    )
    print()
    print("Fig. 11: single-stream issue rate")
    print(f"  without one-hot bypass : {without:.3f} issues/cycle "
          f"(paper: {paper_without.shown})")
    print(f"  with one-hot bypass    : {with_bypass:.3f} issues/cycle "
          f"(paper: {paper_with.shown})")
    assert abs(without - paper_without.value) < 0.02
    assert abs(with_bypass - paper_with.value) < 0.02
    # The bypass exactly doubles single-stream issue rate (Fig. 11b).
    assert abs(with_bypass / without - 2.0) < 0.1


def test_fig11_multi_stream_needs_no_bypass(once):
    def build():
        port_a = PortFifo("a", capacity=1e9)
        port_b = PortFifo("b", capacity=1e9)
        engine = EngineSim("dma", bandwidth_bytes=16, onehot_bypass=False)
        for name, port in (("s0", port_a), ("s1", port_b)):
            engine.add_stream(
                StreamState(
                    name=name,
                    total_elements=1e9,
                    elements_per_cycle_cap=1.0,
                    port=port,
                    is_read=True,
                    element_bytes=8,
                )
            )
        moved = 0.0
        for now in range(400):
            moved += engine.step(now)
        return moved / 400

    rate = once(build)
    print(f"\n  two active streams, no bypass: {rate:.3f} elements/cycle")
    # With >= 2 ready streams the table pipelines naturally: no bubble.
    assert rate > 1.9
