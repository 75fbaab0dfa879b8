"""Differential oracle for the stencil engine across its toggles.

One hypothesis-drawn case — a 2-D or 3-D grid, a halo of 1 or 2, 1–4
nodes, a device mix, a seed, optionally a static coefficient field the
kernel reads across its halo and an ``exchange_fields`` field it mutates
every sweep, ``time_block`` in {1, 2, "auto"} and overlap on or off —
runs three ways on the runtime under test:

- ``run(n)`` sweeps, whose gathered grid must be bit-identical to the
  ``time_block=1``, overlap-on reference;
- ``run_until`` plain and under a :class:`CheckpointManager` with an
  empty fault plan, whose iteration counts, residual sequences and grids
  must be bit-identical to a step-then-allreduce reference loop.

The tolerance is drawn from the reference's own residual sequence, so
convergence lands on arbitrary sweeps, mid-block included.  No
combination is skipped: both kinds of field are temporal-blocking-safe
(docs/writing_kernels.md), so every draw must match bitwise.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import StencilKernel, shifted
from repro.core.checkpoint import CheckpointManager
from repro.core.env import RuntimeEnv
from repro.device.work import WorkModel
from repro.faults.plan import FaultPlan
from tests.conftest import run_spmd

WORK = WorkModel(name="oracle", flops_per_elem=8, bytes_per_elem=24)
ALPHA = 0.1
BETA = 0.05


def _kernel(ndim: int, halo: int, static: bool, exchange: bool) -> StencilKernel:
    """Star stencil reaching ``halo`` cells along each axis.

    With ``static`` each neighbour's pull is weighted by the read-only
    field ``kappa``; with ``exchange`` the field ``v`` adds its own star
    term and is then relaxed toward the grid in place, so its halos must
    travel with every exchange.
    """
    offsets = []
    for ax in range(ndim):
        for d in range(-halo, halo + 1):
            if d:
                off = [0] * ndim
                off[ax] = d
                offsets.append(tuple(off))

    def apply(src, dst, region, param):
        center = src[region]
        if static:
            kappa = param["kappa"]
            acc = sum(
                shifted(kappa, region, off) * (shifted(src, region, off) - center)
                for off in offsets
            )
            dst[region] = center + ALPHA * acc
        else:
            acc = sum(shifted(src, region, off) for off in offsets)
            dst[region] = center + ALPHA * (acc - len(offsets) * center)
        if exchange:
            v = param["v"]
            dst[region] += BETA * sum(shifted(v, region, off) - v[region] for off in offsets)
            v[region] = 0.5 * (v[region] + center)

    return StencilKernel(apply, halo, WORK)


def _runtime(env, grid, halo, fields, *, reduce=False, **options):
    time_block = options.pop("time_block", 1)
    st_ = env.get_stencil_reduce(**options) if reduce else env.get_stencil(**options)
    st_.configure(
        _kernel(grid.ndim, halo, "kappa" in fields, "v" in fields),
        grid.shape,
        time_block=time_block,
        static_fields=fields,
        exchange_fields=("v",) if "v" in fields else (),
    )
    st_.set_global_grid(grid)
    return st_


def reference_program(ctx, grid, halo, fields, mix, max_iters, tol):
    """k=1, overlap on: step, then a standalone blocking allreduce."""
    env = RuntimeEnv(ctx, mix)
    st_ = _runtime(env, grid, halo, fields)
    residuals = []
    for _ in range(max_iters):
        old = st_.local_interior()
        st_.step()
        diff = (st_.local_interior() - old).ravel()
        residuals.append(math.sqrt(env.comm.allreduce(float(np.dot(diff, diff)), op="sum")))
        if tol is not None and residuals[-1] <= tol:
            break
    return {"grid": st_.gather_global(), "residuals": residuals}


def variant_program(ctx, grid, halo, fields, mix, max_iters, tol, every, options):
    env = RuntimeEnv(ctx, mix)
    st_ = _runtime(env, grid, halo, fields, **options)
    st_.run(max_iters)
    out = {"swept": st_.gather_global()}
    for name, mgr in (("plain", None), ("checkpointed", CheckpointManager(ctx, every=every))):
        st_ = _runtime(env, grid, halo, fields, reduce=True, **options)
        res = st_.run_until(max_iters=max_iters, tol=tol, checkpoint=mgr)
        out[name] = (res.iterations, res.residuals, st_.gather_global())
    env.finalize()
    return out


@st.composite
def cases(draw):
    ndim = draw(st.sampled_from([2, 3]))
    halo = draw(st.sampled_from([1, 2]))
    # 12*halo cells give every split axis room for k=2 deep strips on 3 ranks.
    hi = 20 if ndim == 2 else 14
    shape = tuple(draw(st.integers(12 * halo, hi * halo)) for _ in range(ndim))
    return {
        "shape": shape,
        "halo": halo,
        "nodes": draw(st.integers(1, 4)),
        "mix": draw(st.sampled_from(["cpu", "cpu+1gpu", "cpu+2gpu"])),
        "seed": draw(st.integers(0, 2**16)),
        "max_iters": draw(st.integers(1, 7)),
        "every": draw(st.integers(1, 3)),
        "static": draw(st.booleans()),
        "exchange": draw(st.booleans()),
        "options": {
            "time_block": draw(st.sampled_from([1, 2, "auto"])),
            "overlap": draw(st.booleans()),
        },
    }


@settings(max_examples=200, deadline=None)
@given(case=cases(), data=st.data())
def test_engine_toggles_match_references_bitwise(case, data):
    rng = np.random.default_rng(case["seed"])
    grid = rng.random(case["shape"])
    fields = {}
    if case["static"]:
        fields["kappa"] = 0.5 + 0.5 * rng.random(case["shape"])
    if case["exchange"]:
        fields["v"] = rng.random(case["shape"])
    nodes, mix, n = case["nodes"], case["mix"], case["max_iters"]
    head = (grid, case["halo"], fields, mix, n)

    def run(prog, *args, **kwargs):
        res = run_spmd(prog, nodes=nodes, gpus_per_node=2, args=head + args, **kwargs)
        return res.values[0]

    fixed = run(reference_program, None)
    stop = data.draw(st.one_of(st.none(), st.integers(0, n - 1)), label="stop")
    tol = None if stop is None else fixed["residuals"][stop]
    ref = fixed if tol is None else run(reference_program, tol)

    out = run(
        variant_program, tol, case["every"], case["options"], fault_plan=FaultPlan(seed=case["seed"])
    )
    np.testing.assert_array_equal(out["swept"], fixed["grid"])
    for name in ("plain", "checkpointed"):
        iterations, residuals, final = out[name]
        assert iterations == len(ref["residuals"]), name
        assert residuals == ref["residuals"], name  # bitwise, not allclose
        np.testing.assert_array_equal(final, ref["grid"], err_msg=name)
