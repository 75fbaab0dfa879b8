"""User-facing kernel specs, get-functions, and per-element adapters."""

import numpy as np
import pytest

from repro.core.api import (
    GRKernel,
    IRKernel,
    REDUCTION_OPS,
    StencilKernel,
    elementwise_edge_compute,
    elementwise_emit,
    emit_keys_batch,
    elementwise_stencil,
    resolve_op,
    shifted,
)
from repro.core.reduction_object import DenseReductionObject
from repro.device.work import WorkModel
from repro.util.errors import ValidationError

WORK = WorkModel(name="w", flops_per_elem=1, bytes_per_elem=1)


def test_reduction_ops_registry():
    assert set(REDUCTION_OPS) == {"sum", "prod", "min", "max"}
    ufunc, ident = resolve_op("min")
    assert ufunc is np.minimum and ident == np.inf
    with pytest.raises(ValidationError):
        resolve_op("mean")


def test_shifted_view():
    a = np.arange(25.0).reshape(5, 5)
    region = (slice(1, 4), slice(1, 4))
    np.testing.assert_array_equal(shifted(a, region, (0, 0)), a[1:4, 1:4])
    np.testing.assert_array_equal(shifted(a, region, (1, 0)), a[2:5, 1:4])
    np.testing.assert_array_equal(shifted(a, region, (-1, -1)), a[0:3, 0:3])


def test_shifted_bounds_checked():
    a = np.zeros((4, 4))
    with pytest.raises(ValidationError, match="halo"):
        shifted(a, (slice(0, 2), slice(0, 2)), (-1, 0))
    with pytest.raises(ValidationError):
        shifted(a, (slice(2, 4), slice(0, 2)), (1, 0))
    with pytest.raises(ValidationError, match="rank"):
        shifted(a, (slice(0, 2),), (0, 0))


def test_elementwise_emit_equals_batch():
    def emit(obj, unit, index, param):
        obj.insert(int(unit[0] * 4) % 4, float(index) + param)

    batch = elementwise_emit(emit)
    data = np.random.default_rng(0).random((20, 1))
    keys, values = batch(data, np.arange(100, 120), 0.5)
    assert keys.shape == (20,) and values.shape == (20,)
    a = DenseReductionObject(4, 1, "sum")
    a.insert_many(keys, values)
    b = DenseReductionObject(4, 1, "sum")
    for i in range(20):
        emit(b, data[i], 100 + i, 0.5)
    np.testing.assert_allclose(a.values, b.values)


@pytest.mark.parametrize("inserts", [0, 2])
def test_elementwise_emit_requires_one_insert_per_unit(inserts):
    def emit(obj, unit, index, param):
        for _ in range(inserts):
            obj.insert(0, 1.0)

    with pytest.raises(ValidationError, match=f"unit 7 inserted {inserts} times"):
        elementwise_emit(emit)(np.ones((3, 1)), np.arange(7, 10), None)


def test_elementwise_edge_compute_equals_batch():
    def edge_fn(obj, edge, edata, nodes, param):
        obj.insert(int(edge[0]), nodes[edge[1], 0] * (edata if edata is not None else 1.0))

    batch = elementwise_edge_compute(edge_fn)
    edges = np.array([[0, 1], [2, 0], [1, 2]])
    weights = np.array([2.0, 3.0, 4.0])
    nodes = np.arange(6.0).reshape(3, 2)
    a = DenseReductionObject(3, 1, "sum")
    batch(a, edges, weights, nodes, None)
    b = DenseReductionObject(3, 1, "sum")
    for i in range(3):
        edge_fn(b, edges[i], weights[i], nodes, None)
    np.testing.assert_allclose(a.values, b.values)


def test_elementwise_stencil_equals_vectorized():
    def point_fn(src, dst, coord, param):
        y, x = coord
        dst[y, x] = src[y - 1, x] + src[y + 1, x]

    apply = elementwise_stencil(point_fn)
    src = np.random.default_rng(1).random((6, 6))
    dst = np.zeros_like(src)
    region = (slice(1, 5), slice(1, 5))
    apply(src, dst, region, None)
    expected = src[0:4, 1:5] + src[2:6, 1:5]
    np.testing.assert_allclose(dst[region], expected)


def test_grkernel_validation():
    with pytest.raises(ValidationError):
        GRKernel(lambda *a: None, "sum", 0, 1, WORK)
    with pytest.raises(ValidationError):
        GRKernel(lambda *a: None, "nope", 4, 1, WORK)


def test_irkernel_validation():
    with pytest.raises(ValidationError):
        IRKernel(lambda *a: None, "sum", 0, WORK)


def test_stencil_kernel_validation():
    with pytest.raises(ValidationError):
        StencilKernel(lambda *a: None, 0, WORK)
    k = StencilKernel(lambda *a: None, 2, WORK)
    assert k.halo == 2


def test_emit_keys_batch_bit_identical_to_insert_loop():
    # The compatibility contract of the batched dispatch path: inserting a
    # batch into a fresh object yields *bit-identical* state to the
    # per-element insert loop, including duplicate-key combining order and
    # the key-range drop counters.
    rng = np.random.default_rng(7)
    keys = rng.integers(-3, 12, size=200)  # includes out-of-range on both ends
    values = rng.random((200, 2))

    batched = DenseReductionObject(8, 2, "sum")
    emit_keys_batch(batched, keys, values)

    looped = DenseReductionObject(8, 2, "sum")
    for k, v in zip(keys, values):
        looped.insert(int(k), v)

    np.testing.assert_array_equal(batched.as_array(), looped.as_array())
    assert (batched.n_inserts, batched.n_dropped) == (looped.n_inserts, looped.n_dropped)


def test_emit_keys_batch_bit_identical_non_sum_path():
    # Same contract on the ufunc.at scatter path (no bincount fast path).
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 5, size=64)
    values = rng.random(64)

    batched = DenseReductionObject(5, 1, "max")
    emit_keys_batch(batched, keys, values)

    looped = DenseReductionObject(5, 1, "max")
    for k, v in zip(keys, values):
        looped.insert(int(k), float(v))

    np.testing.assert_array_equal(batched.as_array(), looped.as_array())
