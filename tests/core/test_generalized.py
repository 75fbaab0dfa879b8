"""Generalized-reduction runtime: correctness across ranks and devices."""

import numpy as np
import pytest

from repro.core.api import GRKernel
from repro.core.env import RuntimeEnv
from repro.core.generalized import BLOCK_ROWS
from repro.core.partition import block_partition
from repro.device.work import WorkModel
from repro.util.errors import ConfigurationError, ValidationError
from tests.conftest import run_spmd

K = 8
WORK = WorkModel(
    name="hist", flops_per_elem=30, bytes_per_elem=24, atomics_per_elem=1, num_reduction_keys=K
)
RNG = np.random.default_rng(11)
DATA = RNG.random((6000, 3))


def _emit(data, index, param):
    keys = np.minimum((data[:, 0] * K).astype(int), K - 1)
    vals = np.concatenate([data, np.ones((len(data), 1))], axis=1)
    return keys, vals


def _kernel():
    return GRKernel(emit_batch=_emit, reduce_op="sum", num_keys=K, value_width=4, work=WORK)


def _reference():
    ref = np.zeros((K, 4))
    keys = np.minimum((DATA[:, 0] * K).astype(int), K - 1)
    np.add.at(ref, keys, np.concatenate([DATA, np.ones((len(DATA), 1))], axis=1))
    return ref


def _program(mix="cpu+2gpu", bcast=True, **gr_opts):
    def prog(ctx):
        env = RuntimeEnv(ctx, mix)
        gr = env.get_GR(**gr_opts)
        gr.set_kernel(_kernel())
        offs = block_partition(len(DATA), ctx.size)
        lo, hi = int(offs[ctx.rank]), int(offs[ctx.rank + 1])
        gr.set_input(DATA[lo:hi], global_start=lo)
        gr.start()
        return gr.get_global_reduction(bcast=bcast)

    return prog


@pytest.mark.parametrize("nodes", [1, 2, 3, 4])
def test_correct_across_rank_counts(nodes):
    res = run_spmd(_program(), nodes=nodes, gpus_per_node=2)
    for v in res.values:
        np.testing.assert_allclose(v, _reference(), rtol=1e-12)


@pytest.mark.parametrize("mix", ["cpu", "1gpu", "2gpu", "cpu+1gpu", "cpu+2gpu"])
def test_correct_across_device_mixes(mix):
    res = run_spmd(_program(mix), nodes=2, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _reference(), rtol=1e-12)


def test_kernel_runs_once_per_block_of_whole_chunks():
    """Chunks set virtual time; the math runs once per BLOCK_ROWS window."""
    calls = []

    def emit(data, index, param):
        calls.append((int(index[0]), len(data)))
        return _emit(data, index, param)

    def prog(ctx):
        gr = RuntimeEnv(ctx, "cpu").get_GR(chunk_elems=16)
        gr.set_kernel(GRKernel(emit, "sum", K, 4, WORK))
        gr.set_input(DATA, global_start=100)
        gr.start()
        return sum(w.chunks for w in gr.last_schedule.workers), gr.get_local_reduction().values

    chunks, got = run_spmd(prog, nodes=1).values[0]
    assert chunks == 375
    assert calls == [(100, BLOCK_ROWS), (100 + BLOCK_ROWS, BLOCK_ROWS), (100 + 2 * BLOCK_ROWS, 1904)]
    np.testing.assert_allclose(got, _reference(), rtol=1e-12)


def test_kernel_must_return_one_pair_per_row():
    def short(data, index, param):
        keys, vals = _emit(data, index, param)
        return keys[:-1], vals[:-1]

    def prog(ctx):
        gr = RuntimeEnv(ctx, "cpu").get_GR()
        gr.set_kernel(GRKernel(short, "sum", K, 4, WORK))
        gr.set_input(DATA[:100])
        gr.start()

    with pytest.raises(ValidationError, match="one key per input row"):
        run_spmd(prog, nodes=1)


def test_bcast_false_returns_only_at_root():
    res = run_spmd(_program(bcast=False), nodes=3, gpus_per_node=2)
    np.testing.assert_allclose(res.values[0], _reference())
    assert res.values[1] is None and res.values[2] is None


def test_localization_override_does_not_change_results():
    on = run_spmd(_program(localized=True), nodes=1, gpus_per_node=2)
    off = run_spmd(_program(localized=False), nodes=1, gpus_per_node=2)
    np.testing.assert_allclose(on.values[0], off.values[0])
    # ... but unlocalized atomics cost more simulated time.
    assert off.makespan > on.makespan


def test_paper_style_elementwise_emit():
    def emit(obj, unit, index, param):
        obj.insert(int(min(unit[0] * K, K - 1)), np.concatenate([unit, [1.0]]))

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        gr = env.get_GR()
        gr.set_emit_func(emit, reduce_op="sum", num_keys=K, value_width=4, work=WORK)
        gr.set_input(DATA[:500])
        gr.start()
        return gr.get_global_reduction()

    got = run_spmd(prog, nodes=1).values[0]
    ref = np.zeros((K, 4))
    keys = np.minimum((DATA[:500, 0] * K).astype(int), K - 1)
    np.add.at(ref, keys, np.concatenate([DATA[:500], np.ones((500, 1))], axis=1))
    np.testing.assert_allclose(got, ref)


def test_runtime_reuse_with_new_kernel():
    """The paper's Moldyn reuses one GR runtime for its KE and AV kernels."""

    def sum_emit(data, index, param):
        return np.zeros(len(data), dtype=np.int64), data[:, 0]

    def max_emit(data, index, param):
        return np.zeros(len(data), dtype=np.int64), data[:, 0]

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        gr = env.get_GR()
        w = WORK.replace(num_reduction_keys=1)
        gr.set_kernel(GRKernel(sum_emit, "sum", 1, 1, w))
        gr.set_input(DATA[:1000])
        gr.start()
        total = gr.get_global_reduction()[0, 0]
        gr.set_kernel(GRKernel(max_emit, "max", 1, 1, w))
        gr.set_input(DATA[:1000])
        gr.start()
        peak = gr.get_global_reduction()[0, 0]
        return total, peak

    total, peak = run_spmd(prog, nodes=1).values[0]
    assert total == pytest.approx(DATA[:1000, 0].sum())
    assert peak == pytest.approx(DATA[:1000, 0].max())


def test_set_reduc_func_changes_op():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        gr = env.get_GR()
        gr.set_kernel(
            GRKernel(
                lambda d, index, p: (np.zeros(len(d), dtype=np.int64), d[:, 0]),
                "sum", 1, 1, WORK.replace(num_reduction_keys=1),
            )
        )
        gr.set_reduc_func("min")
        gr.set_input(DATA[:200])
        gr.start()
        return gr.get_local_reduction().values[0, 0]

    assert run_spmd(prog, nodes=1).values[0] == pytest.approx(DATA[:200, 0].min())


def test_model_scaling_multiplies_time_not_results():
    def prog(ctx, model):
        env = RuntimeEnv(ctx, "cpu")
        gr = env.get_GR()
        gr.set_kernel(_kernel())
        gr.set_input(DATA, model_local_elems=model)
        gr.start()
        return gr.get_local_reduction().values.copy()

    small = run_spmd(prog, nodes=1, kwargs={"model": None})
    big = run_spmd(prog, nodes=1, kwargs={"model": len(DATA) * 50})
    np.testing.assert_allclose(small.values[0], big.values[0])
    # Only the *compute* part scales (per-chunk dispatch overhead does not),
    # so assert a strong directional effect rather than exact linearity.
    assert big.makespan > 10 * small.makespan


def test_errors_for_missing_configuration():
    def no_kernel(ctx):
        RuntimeEnv(ctx, "cpu").get_GR().start()

    with pytest.raises(ConfigurationError, match="kernel"):
        run_spmd(no_kernel, nodes=1)

    def no_input(ctx):
        gr = RuntimeEnv(ctx, "cpu").get_GR()
        gr.set_kernel(_kernel())
        gr.start()

    with pytest.raises(ConfigurationError, match="input"):
        run_spmd(no_input, nodes=1)

    def early_result(ctx):
        gr = RuntimeEnv(ctx, "cpu").get_GR()
        gr.set_kernel(_kernel())
        gr.get_local_reduction()

    with pytest.raises(ConfigurationError, match="result"):
        run_spmd(early_result, nodes=1)


def test_empty_input_rejected():
    def prog(ctx):
        gr = RuntimeEnv(ctx, "cpu").get_GR()
        gr.set_kernel(_kernel())
        gr.set_input(np.zeros((0, 3)))

    with pytest.raises(ConfigurationError):
        run_spmd(prog, nodes=1)
