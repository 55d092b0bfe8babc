"""Blocked (vectorized) cost sampling must be draw-for-draw identical
to the legacy scalar path.

``HostKernel.cpu`` consumes pre-drawn NumPy blocks; NumPy generators
produce the same stream whether drawn one value at a time or in blocks,
so the "fast" mode must reproduce the scalar sequence bit-exactly.  The
fast mode needs one jitter sigma for the whole model, and models with
per-segment tails interleave normals and uniforms on one stream, which
blocks cannot replay -- both kinds of model must be classified
"scalar".

The scalar reference comes from that same classification: a copy of
the model with one extra tailed segment that is never called.  The
kernel then samples every segment on the scalar path, and since the
extra segment draws nothing, the sequence is the one the scalar path
produces for the model itself.
"""

from dataclasses import replace

import pytest

from repro.host.costs import default_cost_model
from repro.host.kernel import HostKernel
from repro.pcie.root_complex import RootComplex
from repro.sim.kernel import Simulator


def _with_scalar_probe(model):
    """*model* plus an uncalled tailed segment, forcing scalar sampling."""
    segments = dict(model.segments)
    segments["scalar_probe"] = replace(segments["udp_tx"], tail_prob=0.5)
    return replace(model, segments=segments)


def _kernel(seed, costs=None, scalar=False):
    if scalar:
        costs = _with_scalar_probe(costs or default_cost_model())
    sim = Simulator(seed=seed)
    return HostKernel(sim, RootComplex(sim), costs=costs)


#: A segment sequence with repeats and the zero-extra/with-extra split.
_CALLS = [
    ("syscall_entry", 0), ("udp_tx", 0), ("copy_touch", 4480),
    ("irq_entry", 0), ("udp_rx", 0), ("copy_touch", 0),
    ("syscall_exit", 120),
] * 300


class TestBlockedEqualsScalar:
    def test_fast_mode_classification(self):
        kernel = _kernel(3)
        assert kernel._vector_mode == "fast"

    def test_fast_mode_sequence_identical(self):
        blocked = _kernel(17)
        scalar = _kernel(17, scalar=True)
        assert scalar._vector_mode == "scalar"
        a = [blocked.cpu(seg, extra_ps=extra) for seg, extra in _CALLS]
        b = [scalar.cpu(seg, extra_ps=extra) for seg, extra in _CALLS]
        assert a == b

    def test_per_segment_sigma_is_scalar(self):
        model = default_cost_model()
        model.segments["udp_tx"] = replace(
            model.segments["udp_tx"], jitter_sigma=0.25
        )
        kernel = _kernel(29, costs=model)
        assert kernel._vector_mode == "scalar"

    def test_tailed_model_falls_back_to_scalar(self):
        model = default_cost_model()
        model.segments["udp_tx"] = replace(
            model.segments["udp_tx"], tail_prob=0.01
        )
        kernel = _kernel(5, costs=model)
        assert kernel._vector_mode == "scalar"

    def test_noiseless_model_stays_fast_and_deterministic(self):
        model = default_cost_model().without_noise()
        kernel = _kernel(11, costs=model)
        assert kernel._vector_mode == "fast"
        values = {kernel.cpu("udp_tx") for _ in range(50)}
        assert values == {model.segments["udp_tx"].nominal_ps}

    def test_mid_run_model_swap_keeps_sequence(self):
        """Swapping cost models mid-run (fault/ablation paths do this)
        must not desynchronize the block cursor from the scalar path."""
        blocked = _kernel(43)
        scalar = _kernel(43, scalar=True)
        a = [blocked.cpu("udp_tx") for _ in range(700)]
        b = [scalar.cpu("udp_tx") for _ in range(700)]
        swapped = default_cost_model(jitter_sigma=0.2)
        blocked.costs = swapped
        assert blocked._vector_mode == "fast"
        scalar.costs = _with_scalar_probe(swapped)
        assert scalar._vector_mode == "scalar"
        a += [blocked.cpu("udp_tx") for _ in range(700)]
        b += [scalar.cpu("udp_tx") for _ in range(700)]
        assert a == b

    def test_unknown_segment_raises(self):
        kernel = _kernel(1)
        with pytest.raises(KeyError):
            kernel.cpu("no_such_segment")
