"""Closed-form LOA / truncation tree reductions against their oracles.

:meth:`~repro.backends.KernelBackend.reduce_tree` replaces the
level-by-level adder fold of a balanced-tree reduce with a few integer
reductions.  Four layers pin it down:

* an exhaustive width-8 oracle: every backend's ``reduce_tree`` equals
  the bit-serial ``adders.reference`` adders composed over
  ``bitops.reduction_levels`` for every approximate width, both
  truncation fills and every tree size 2..17 (odd tails included);
* a generated saturate-format test at the closed form's proof edge and
  one word past it: the engine takes the closed form exactly when the
  proof holds (read back through the ``cache_stats`` counters) and is
  bit-identical, with float-equal ledgers, to a ``fast_path=False``
  engine either way;
* batched parity when one lane fails the proof;
* adders without a closed form (fault-injecting, reconfigurable,
  ETA-II, ACA, GeAr) always fall back.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arith.engine import (
    ApproxEngine,
    BatchedEngine,
    EnergyLedger,
    ReductionPlan,
)
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import ApproxMode
from repro.backends import available_backends, get_backend
from repro.hardware import bitops
from repro.hardware.adders import (
    AcaAdder,
    EtaIIAdder,
    ExactAdder,
    FaultyAdder,
    GearAdder,
    LowerOrAdder,
    ReconfigurableAdder,
    TruncatedAdder,
)
from repro.hardware.adders.reference import loa_add, truncated_add

WIDTH = 8
BACKENDS = available_backends()


def _reference_tree(add, words, width):
    """Fold axis 0 through ``add`` (unsigned bit-serial reference) with
    the balanced-tree geometry the engine uses, concatenating the odd
    tail at every level."""
    u = bitops.to_unsigned(words, width)
    for half, odd in bitops.reduction_levels(u.shape[0]):
        folded = add(u[:half], u[half : 2 * half])
        u = np.concatenate([folded, u[2 * half :]], axis=0) if odd else folded
    return bitops.to_signed(u[0], width)


def _oracle_configs():
    for k in range(1, WIDTH):
        yield f"loa-k{k}", LowerOrAdder(WIDTH, k), (
            lambda a, b, k=k: loa_add(WIDTH, k, a, b)
        )
        for fill in ("zero", "one"):
            yield f"trunc-k{k}-{fill}", TruncatedAdder(WIDTH, k, fill=fill), (
                lambda a, b, k=k, fill=fill: truncated_add(WIDTH, k, fill, a, b)
            )


ORACLE = list(_oracle_configs())


def _full_range_leaves(n):
    """``(n, lanes)`` signed width-8 words: every word value at every
    leaf position (the lane index walks the word space with a
    per-position stride), plus all-extreme lanes."""
    lanes = np.arange(1 << WIDTH, dtype=np.int64)
    rows = [(lanes * (2 * j + 1) + 37 * j) % (1 << WIDTH) for j in range(n)]
    u = np.stack(rows)
    extremes = np.array([0x80, 0x7F, 0xFF, 0x00, 0x40, 0xC0], dtype=np.int64)
    u = np.concatenate([u, np.repeat(extremes[np.newaxis, :], n, axis=0)], axis=1)
    return bitops.to_signed(u, WIDTH)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize(
    "adder, ref", [(a, r) for _, a, r in ORACLE], ids=[i for i, _, _ in ORACLE]
)
def test_reduce_tree_matches_bit_serial_composition(backend_name, adder, ref):
    backend = get_backend(backend_name)
    for n in range(2, 18):
        q = _full_range_leaves(n)
        expected = _reference_tree(ref, q, WIDTH)
        plan = ReductionPlan(q.shape)
        np.testing.assert_array_equal(backend.reduce_tree(adder, q, plan), expected)
        # A transposed view (the matvec layout) reuses the plan's
        # scratch in the matching memory order.
        qt = np.ascontiguousarray(q.T).T
        np.testing.assert_array_equal(backend.reduce_tree(adder, qt, plan), expected)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_pair_reduce_is_the_adder_on_every_operand_pair(backend_name):
    """n = 2 over the whole width-8 operand space: the closed form
    collapses to exactly one adder call."""
    backend = get_backend(backend_name)
    space = np.arange(1 << WIDTH, dtype=np.int64)
    a, b = (x.ravel() for x in np.meshgrid(space, space, indexing="ij"))
    q = bitops.to_signed(np.stack([a, b]), WIDTH)
    for _, adder, _ in ORACLE:
        np.testing.assert_array_equal(
            backend.reduce_tree(adder, q, ReductionPlan(q.shape)),
            adder.add_signed(q[0], q[1]),
        )


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("k", [1, 4, 7])
def test_wrap_format_engine_takes_closed_form(backend_name, k):
    """Wrap formats need no proof: the fast engine reduces closed-form
    and matches the legacy concat fold word for word and charge for
    charge."""
    fmt = FixedPointFormat(width=WIDTH, frac_bits=2, overflow="wrap")
    mode = ApproxMode("loa", 0, LowerOrAdder(WIDTH, k), 0.5)
    values = _full_range_leaves(13) / fmt.scale
    fast = ApproxEngine(mode, fmt, fast_path=True, backend=backend_name)
    legacy = ApproxEngine(mode, fmt, fast_path=False, backend=backend_name)
    np.testing.assert_array_equal(
        fast.sum(values, axis=0), legacy.sum(values, axis=0)
    )
    assert fast.ledger.energy == legacy.ledger.energy
    assert fast.ledger.adds == legacy.ledger.adds
    assert fast.cache_stats()["closed_reduces"] == 1


# ----------------------------------------------------------------------
# Saturating formats: the proof edge
# ----------------------------------------------------------------------
def _edge_case(data, width, n, k, past):
    """Words whose largest magnitude sits exactly at the proof edge
    ``n * (M + 2**(k+1)) <= hi`` (or one word past it)."""
    hi = (1 << (width - 1)) - 1
    edge = hi // n - (2 << k)
    peak = edge + 1 if past else edge
    lanes = data.draw(st.integers(1, 4), label="lanes")
    words = data.draw(
        st.lists(
            st.integers(-peak, peak), min_size=n * lanes, max_size=n * lanes
        ),
        label="words",
    )
    q = np.array(words, dtype=np.int64).reshape(n, lanes)
    pos = data.draw(st.integers(0, q.size - 1), label="edge_pos")
    q.flat[pos] = peak if data.draw(st.booleans(), label="positive") else -peak
    return q


def _adder(kind, width, k):
    if kind == "loa":
        return LowerOrAdder(width, k)
    return TruncatedAdder(width, k, fill=kind.split("-")[1])


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    width=st.integers(12, 32),
    n=st.integers(2, 40),
    kind=st.sampled_from(["loa", "trunc-zero", "trunc-one"]),
    past=st.booleans(),
)
def test_saturate_proof_edge(data, width, n, kind, past):
    hi = (1 << (width - 1)) - 1
    k = data.draw(st.integers(1, width - 2), label="k")
    assume(hi // n - (2 << k) >= 1)  # the edge word must exist
    q = _edge_case(data, width, n, k, past)
    fmt = FixedPointFormat(width=width, frac_bits=width // 2)
    mode = ApproxMode("approx", 0, _adder(kind, width, k), 0.37)
    values = q / fmt.scale
    fast = ApproxEngine(mode, fmt, fast_path=True)
    legacy = ApproxEngine(mode, fmt, fast_path=False)
    np.testing.assert_array_equal(
        fast.sum(values, axis=0, resident=True).words,
        legacy.fmt.encode(legacy.sum(values, axis=0)),
    )
    assert fast.ledger.energy == legacy.ledger.energy
    assert fast.ledger.adds == legacy.ledger.adds
    stats = fast.cache_stats()
    assert stats["closed_reduces"] == (0 if past else 1)
    assert stats["closed_reduce_fallbacks_proof"] == (1 if past else 0)


def test_replayed_matvec_proof_and_parity():
    """The replayed matvec seeds the proof with its O(len(vec)) bound:
    a full Jacobi run under the LOA ladder takes the closed form on
    every approximate matvec and stays bit-identical to the legacy
    engine."""
    from repro.core.framework import ApproxIt
    from repro.solvers.linear import JacobiSolver

    n = 48
    matrix = 2.05 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    rhs = np.random.default_rng(5).uniform(-2.0, 2.0, n)
    framework = ApproxIt(JacobiSolver(matrix, rhs, max_iter=60, tolerance=1e-9))
    framework.characterization()
    fast = framework.run(strategy="incremental")
    saved = ApproxEngine.default_fast_path
    try:
        ApproxEngine.default_fast_path = False
        legacy = framework.run(strategy="incremental", program_capture=False)
    finally:
        ApproxEngine.default_fast_path = saved
    np.testing.assert_array_equal(fast.x, legacy.x)
    assert fast.energy == legacy.energy
    assert fast.energy_by_mode == legacy.energy_by_mode

    from repro.obs import TraceRecorder

    recorder = TraceRecorder()
    framework.run(strategy="incremental", observer=recorder)
    gauges = recorder.metrics.gauges
    closed = sum(v for key, v in gauges.items() if key.endswith(".closed_reduces"))
    proof = sum(
        v for key, v in gauges.items() if key.endswith("closed_reduce_fallbacks_proof")
    )
    assert closed > 0
    assert proof == 0


# ----------------------------------------------------------------------
# Batched lanes
# ----------------------------------------------------------------------
def test_batched_lane_failing_proof_falls_back_for_the_slab():
    width, k, n = 16, 3, 9
    hi = (1 << (width - 1)) - 1
    edge = hi // n - (2 << k)
    rng = np.random.default_rng(3)
    q = rng.integers(-edge, edge + 1, size=(n, 3))
    q[0, 2] = edge + 1  # lane 2 alone leaves the proven envelope
    fmt = FixedPointFormat(width=width, frac_bits=6)
    mode = ApproxMode("loa", 0, LowerOrAdder(width, k), 0.25)
    values = q / fmt.scale

    batched = BatchedEngine(mode, fmt, lanes=3, fast_path=True)
    batched.select_lanes([0, 1, 2])
    out = batched.sum(values.T, axis=0)
    stats = batched.cache_stats()
    assert stats["closed_reduces"] == 0
    assert stats["closed_reduce_fallbacks_proof"] == 1

    for lane in range(3):
        solo = ApproxEngine(mode, fmt, EnergyLedger(), fast_path=False)
        np.testing.assert_array_equal(out[lane], solo.sum(values[:, lane], axis=0))
        lane_ledger = batched.ledger.lane_ledger(lane)
        assert lane_ledger.energy == solo.ledger.energy
        assert lane_ledger.adds == solo.ledger.adds

    # Without the offending word every lane is in range: closed form.
    q[0, 2] = edge
    batched.sum((q / fmt.scale).T, axis=0)
    assert batched.cache_stats()["closed_reduces"] == 1


# ----------------------------------------------------------------------
# Families without a closed form
# ----------------------------------------------------------------------
def _no_closed_form():
    yield "faulty-loa", lambda: FaultyAdder(LowerOrAdder(WIDTH, 3), 0.05, seed=9)
    yield "reconfigurable", lambda: ReconfigurableAdder(
        [LowerOrAdder(WIDTH, 3), ExactAdder(WIDTH)]
    )
    yield "etaii", lambda: EtaIIAdder(WIDTH, 3)
    yield "aca", lambda: AcaAdder(WIDTH, 3)
    yield "gear", lambda: GearAdder(WIDTH, 2, 2)


@pytest.mark.parametrize(
    "make", [m for _, m in _no_closed_form()], ids=[i for i, _ in _no_closed_form()]
)
@pytest.mark.parametrize("overflow", ["wrap", "saturate"])
def test_other_families_always_fall_back(make, overflow):
    fmt = FixedPointFormat(width=WIDTH, frac_bits=2, overflow=overflow)
    values = _full_range_leaves(11)[:, :40] / fmt.scale / 64
    fast_mode = ApproxMode("m", 0, make(), 0.5)
    legacy_mode = ApproxMode("m", 0, make(), 0.5)
    for backend_name in BACKENDS:
        assert get_backend(backend_name).reduce_tree(
            fast_mode.adder, fmt.encode(values), ReductionPlan(values.shape)
        ) is None
    fast = ApproxEngine(fast_mode, fmt, fast_path=True)
    legacy = ApproxEngine(legacy_mode, fmt, fast_path=False)
    np.testing.assert_array_equal(fast.sum(values, axis=0), legacy.sum(values, axis=0))
    assert fast.ledger.energy == legacy.ledger.energy
    stats = fast.cache_stats()
    assert stats["closed_reduces"] == 0
    assert stats["closed_reduce_fallbacks_family"] == 1
