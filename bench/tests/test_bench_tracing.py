import numpy as np
import pytest

import comotion.hmm
import comotion.train
from tracing import Tracer, self_times


def test_self_times_on_nested_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [11, 12] is a second root
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 8.0, 12.0]
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 3.0, 2.0, 2.0, 1.0])


def test_install_wraps_every_binding_and_uninstall_restores():
    original = comotion.hmm.em_fit
    assert comotion.train.em_fit is original
    tracer = Tracer()
    tracer.install()
    try:
        assert comotion.hmm.em_fit is not original
        assert comotion.train.em_fit is comotion.hmm.em_fit
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert comotion.hmm.em_fit is original and comotion.train.em_fit is original


def test_spans_nest_through_calls_inside_comotion():
    hmm = comotion.train._initial_hmm(3, 2)
    obs = np.random.default_rng(0).standard_normal((7, 4))
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            comotion.hmm.forward(hmm, obs)
    finally:
        tracer.uninstall()
    names = tracer.name
    parent_of = {n: names[p] if p >= 0 else None for n, p in zip(names, tracer.parent)}
    assert parent_of["hmm.forward"] == "bench.op"
    assert parent_of["hmm.state_log_liks"] == "hmm.forward"
    assert parent_of["kernels.chol_logpdf"] == "hmm.state_log_liks"
    assert parent_of["kernels.forward_log"] == "hmm.forward"
    totals = tracer.layer_totals()
    assert totals["kernels.chol_logpdf"]["calls"] == 3
    assert tracer.counts["kernels.chol_logpdf.rows"] == 21
    assert tracer.counts["hmm.state_log_liks.rows"] == 7
    op = totals["bench.op"]
    inner = sum(t["self_s"] for n, t in totals.items() if n != "bench.op")
    assert op["s"] == pytest.approx(op["self_s"] + inner)
