import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmg.nonsmooth import IntervalVec, SeparableNonsmooth, select_subgradient
from proxmg.oracles import brute_force_prox


def test_hinge_value_examples():
    g = SeparableNonsmooth.hinge(1.0, np.array([0.0, 0.0]))
    assert g.value(np.array([1.0, 2.0])) == 0.0
    g = SeparableNonsmooth.hinge(1.0, np.array([1.0, 1.0]))
    assert g.value(np.array([0.0, 0.0])) == 2.0
    g = SeparableNonsmooth.hinge(2.0, np.array([1.0, -1.0]))
    assert g.value(np.array([0.0, 0.0])) == 2.0


def test_hinge_prox_cases():
    g = SeparableNonsmooth.hinge(1.0, np.array([0.0]))
    assert g.prox(np.array([-2.0]), 1.0)[0] == -1.0       # still below after shift
    assert g.prox(np.array([-0.5]), 1.0)[0] == 0.0        # lands exactly on the floor
    assert g.prox(np.array([0.5]), 1.0)[0] == 0.5         # untouched above
    assert g.prox(np.array([-2.0]), 0.5)[0] == -1.5       # step-scaled shift


def test_prox_step_scaling_against_oracle():
    lam, c, v, step = 1.0, 0.0, -2.0, 0.5
    got = SeparableNonsmooth.hinge(lam, np.array([c])).prox(np.array([v]), step)[0]
    want = brute_force_prox(lambda t: lam * max(c - t, 0.0), v, step, bracket=(-6, 6))
    assert abs(got - want) <= 1e-8


def test_hinge_subdiff_examples():
    g = SeparableNonsmooth.hinge(1.0, np.array([0.0]))
    s = g.subdiff(np.array([-1.0]))
    assert (s.lo[0], s.hi[0]) == (-1.0, -1.0)
    s = g.subdiff(np.array([0.0]))
    assert (s.lo[0], s.hi[0]) == (-1.0, 0.0)
    g3 = SeparableNonsmooth.hinge(3.0, np.array([0.0]))
    s = g3.subdiff(np.array([5.0]))
    assert (s.lo[0], s.hi[0]) == (0.0, 0.0)


def test_l1_ops():
    g = SeparableNonsmooth.l1(2.0)
    assert g.value(np.array([1.0, -3.0])) == 8.0
    np.testing.assert_allclose(g.prox(np.array([5.0, -5.0, 0.5]), 1.0),
                               [3.0, -3.0, 0.0])
    s = g.subdiff(np.array([2.0, -2.0, 0.0]))
    assert (s.lo[0], s.hi[0]) == (2.0, 2.0)
    assert (s.lo[1], s.hi[1]) == (-2.0, -2.0)
    assert (s.lo[2], s.hi[2]) == (-2.0, 2.0)


def test_zero_penalty():
    g = SeparableNonsmooth.zero()
    u = np.array([1.0, -2.0])
    assert g.value(u) == 0.0
    assert np.array_equal(g.prox(u, 0.7), u)
    assert not g.subdiff(u).set_valued().any()


def test_select_subgradient_policies():
    iv = IntervalVec(np.array([-1.0, -1.0, 2.0]), np.array([0.0, -1.0, 3.0]))
    zero = select_subgradient(iv, "zero")
    np.testing.assert_allclose(zero, [0.0, -1.0, 2.0])  # in-range 0 / singleton / clamped
    mid = select_subgradient(iv, "midpoint")
    np.testing.assert_allclose(mid, [-0.5, -1.0, 2.5])
    with pytest.raises(ValueError):
        select_subgradient(iv, "nope")


def test_errors():
    with pytest.raises(ValueError):
        SeparableNonsmooth.hinge(1.0, np.array([0.0])).prox(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        SeparableNonsmooth.hinge(1.0, np.array([0.0])).value(np.ones(2))
    with pytest.raises(ValueError):
        SeparableNonsmooth("hinge", 1.0, None)
    with pytest.raises(ValueError):
        IntervalVec(np.array([1.0]), np.array([0.0]))


@settings(max_examples=60, deadline=None)
@given(v=st.floats(-4, 4), lam=st.floats(0, 2), c=st.floats(-1, 1),
       step=st.floats(0.05, 3))
def test_hinge_prox_minimizes_against_golden_section(v, lam, c, step):
    got = SeparableNonsmooth.hinge(lam, np.array([c])).prox(np.array([v]), step)[0]
    want = brute_force_prox(lambda t: lam * max(c - t, 0.0), v, step,
                            bracket=(v - 10 * step * lam - 1, v + 10 * step * lam + 1))
    assert abs(got - want) <= 1e-8


@settings(max_examples=60, deadline=None)
@given(v=st.floats(-4, 4), lam=st.floats(0, 2), step=st.floats(0.05, 3))
def test_l1_prox_minimizes_against_golden_section(v, lam, step):
    got = SeparableNonsmooth.l1(lam).prox(np.array([v]), step)[0]
    want = brute_force_prox(lambda t: lam * abs(t), v, step,
                            bracket=(v - 10 * step * lam - 1, v + 10 * step * lam + 1))
    assert abs(got - want) <= 1e-8


@pytest.mark.parametrize("kind", ["hinge", "l1"])
def test_prox_is_firmly_nonexpansive(kind):
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(50):
        lam = rng.uniform(0, 3)
        if kind == "hinge":
            g = SeparableNonsmooth.hinge(lam, rng.standard_normal(8))
        else:
            g = SeparableNonsmooth.l1(lam)
        v1, v2 = rng.standard_normal(8), rng.standard_normal(8)
        step = rng.uniform(0.1, 2)
        d_out = np.linalg.norm(g.prox(v1, step) - g.prox(v2, step))
        assert d_out <= np.linalg.norm(v1 - v2) + 1e-14


@pytest.mark.parametrize("kind", ["hinge", "l1"])
def test_subgradient_inequality(kind):
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(50):
        lam = rng.uniform(0, 3)
        if kind == "hinge":
            g = SeparableNonsmooth.hinge(lam, rng.standard_normal(6))
        else:
            g = SeparableNonsmooth.l1(lam)
        u = rng.standard_normal(6)
        u[rng.uniform(size=6) < 0.3] = 0.0  # hit the l1 kink sometimes
        y = rng.standard_normal(6)
        iv = g.subdiff(u)
        q = iv.lo + rng.uniform(size=6) * (iv.hi - iv.lo)
        assert g.value(y) >= g.value(u) + q @ (y - u) - 1e-12


def _hinge_prox_by_cases(v, c, lam):
    """The three-way case split the two-pass clamp replaced; the test oracle."""
    shifted = v + lam
    return np.where(shifted < c, shifted, np.where(v > c, v, c))


@pytest.mark.parametrize("step", [1e-12, 1e-6, 1e-3, 1.0, 1e3])
@pytest.mark.parametrize("lam", [0.0, 1e-6, 0.5, 100.0])
def test_hinge_prox_equals_the_case_split_byte_for_byte(step, lam):
    rng = np.random.Generator(np.random.PCG64(11))
    size = 5000
    picks = lambda frac: rng.uniform(size=size) < frac
    v = rng.uniform(-2.0, 2.0, size) * rng.choice([1e-12, 1e-3, 1.0, 1e3], size)
    c = rng.uniform(-1.0, 1.0, size)
    c[picks(0.2)] = 0.0              # obstacle zeros, both signs
    c[picks(0.1)] = -0.0
    v[picks(0.1)] = 0.0
    v[picks(0.1)] = -0.0
    at_floor = picks(0.1)            # ties v == c
    v[at_floor] = c[at_floor]
    lands = picks(0.1)               # ties v + lam == c
    c[lands] = v[lands] + step * lam
    g = SeparableNonsmooth.hinge(lam, c)
    want = _hinge_prox_by_cases(v, c, step * lam)
    assert g.prox(v, step).tobytes() == want.tobytes()


def test_hinge_prox_propagates_nan():
    g = SeparableNonsmooth.hinge(1.0, np.array([0.0, 0.0, 5.0]))
    out = g.prox(np.array([np.nan, -3.0, np.nan]), 1.0)
    assert np.isnan(out[0]) and np.isnan(out[2])
    assert out[1] == -2.0


def test_l1_and_zero_prox_keep_their_closed_forms():
    rng = np.random.Generator(np.random.PCG64(12))
    v = rng.uniform(-2.0, 2.0, 1000)
    v[rng.uniform(size=1000) < 0.1] = 0.0
    v[rng.uniform(size=1000) < 0.1] = -0.0
    for step in (1e-12, 1.0, 1e3):
        lam = step * 0.7
        want = np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)
        assert SeparableNonsmooth.l1(0.7).prox(v, step).tobytes() == want.tobytes()
        out = SeparableNonsmooth.zero().prox(v, step)
        assert out.tobytes() == v.tobytes() and out is not v
