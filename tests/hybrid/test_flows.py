"""Unit tests for flow maps (constant, callable, composite)."""

import pytest

from repro.hybrid.flows import CallableFlow, CompositeFlow, ConstantFlow, STATIONARY, clock_flow
from repro.hybrid.variables import Valuation


def decay(x):
    return -x


class TestConstantFlow:
    def test_advance(self):
        flow = ConstantFlow({"c": 1.0, "h": -0.1})
        advanced = flow.advance(Valuation({"c": 0.0, "h": 0.3}), 2.0)
        assert advanced["c"] == pytest.approx(2.0)
        assert advanced["h"] == pytest.approx(0.1)

    def test_is_affine(self):
        assert ConstantFlow({"c": 1.0}).is_affine
        assert STATIONARY.is_affine

    def test_driven_variables_excludes_zero_rates(self):
        flow = ConstantFlow({"c": 1.0, "frozen": 0.0})
        assert flow.driven_variables() == {"c"}

    def test_clock_flow(self):
        flow = clock_flow("c", "g", extra={"h": -0.1})
        rates = flow.rates(Valuation({}))
        assert rates == {"c": 1.0, "g": 1.0, "h": -0.1}

    def test_merged_with_conflict(self):
        with pytest.raises(ValueError):
            ConstantFlow({"c": 1.0}).merged_with(ConstantFlow({"c": 2.0}))

    def test_merged_with_disjoint(self):
        merged = ConstantFlow({"a": 1.0}).merged_with(ConstantFlow({"b": 2.0}))
        assert merged.rates(Valuation({})) == {"a": 1.0, "b": 2.0}


class TestCallableFlow:
    def test_exponential_decay_integration(self):
        # dx/dt = -x, x(0) = 1 -> x(1) = exp(-1)
        flow = CallableFlow(decay, inputs={"x": 0.0}, outputs=("x",), substep=0.01)
        result = flow.advance(Valuation({"x": 1.0}), 1.0)
        assert result["x"] == pytest.approx(0.3678794, rel=1e-4)

    def test_not_affine(self):
        flow = CallableFlow(decay, inputs={"x": 0.0}, outputs=("x",))
        assert not flow.is_affine

    def test_zero_dt_is_identity(self):
        flow = CallableFlow(decay, inputs={"x": 0.0}, outputs=("x",))
        valuation = Valuation({"x": 5.0})
        assert flow.advance(valuation, 0.0) == valuation


class TestCompositeFlow:
    def test_combines_disjoint_parts(self):
        composite = CompositeFlow((ConstantFlow({"c": 1.0}), ConstantFlow({"h": -0.1})))
        rates = composite.rates(Valuation({}))
        assert rates == {"c": 1.0, "h": -0.1}
        assert composite.is_affine

    def test_advance_affine(self):
        composite = CompositeFlow((ConstantFlow({"c": 1.0}), ConstantFlow({"h": -0.1})))
        result = composite.advance(Valuation({"c": 0.0, "h": 0.3}), 1.0)
        assert result["c"] == pytest.approx(1.0)
        assert result["h"] == pytest.approx(0.2)

    def test_nested_composites_flatten(self):
        inner = CompositeFlow((ConstantFlow({"a": 1.0}),))
        outer = CompositeFlow((inner, ConstantFlow({"b": 2.0})))
        assert len(outer.parts) == 2

    def test_mixed_affinity(self):
        mixed = CompositeFlow((ConstantFlow({"c": 1.0}),
                               CallableFlow(decay, inputs={"x": 0.0}, outputs=("x",))))
        assert not mixed.is_affine
        result = mixed.advance(Valuation({"c": 0.0, "x": 1.0}), 0.5)
        assert result["c"] == pytest.approx(0.5)
        assert 0.0 < result["x"] < 1.0
