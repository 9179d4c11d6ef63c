"""The BLAS assumption behind the simplex's dense prefix.

``_ExplicitInverse`` prices with a BLAS product over the leading ``k`` columns of
its working matrix, ``k`` a multiple of 32, and takes every later (unit)
column's entry as one exact product.  Its pivots, and so every answer, are
the ones the whole-matrix product gave only while ``v @ A[:, :k]`` and
``|v| @ |A[:, :k]|`` equal the first ``k`` entries of the whole products byte
for byte.  An unaligned ``k`` breaks that (the kernel finishes a column count
that is not a multiple of its width with a differently ordered tail), and so
would a BLAS whose kernels depend on the column count in another way: such a
BLAS must fail here first.

The identity is claimed for one BLAS thread, the setting of the benchmark.
With several, OpenBLAS splits a product of more than 460,800 entries between
threads at a column that need not be aligned.  The property therefore runs in
a child process with one BLAS thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from corridor_kit.simplex import _ExplicitInverse

from lp_oracles import columns_of

ONE_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _one_blas_thread() -> bool:
    return all(os.environ.get(var) == "1" for var in ONE_THREAD)


def _structural_then_units(m, n_struct, n_unit, density, seed, lo, hi):
    """Sparse structural block of magnitudes 10**lo..10**hi, then signed unit columns."""
    rng = np.random.default_rng(seed)
    a = np.zeros((m, n_struct + n_unit))
    mask = rng.random((m, n_struct)) < density
    mask[rng.integers(0, m), n_struct - 1] = True  # the last structural column is not a unit column
    vals = rng.choice([-1.0, 1.0], mask.sum()) * 10.0 ** rng.uniform(lo, hi, mask.sum())
    vals[vals == 1.0] = 2.0
    a[:, :n_struct][mask] = vals
    a[rng.integers(0, m, n_unit), n_struct + np.arange(n_unit)] = rng.choice([-1.0, 1.0], n_unit)
    v = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3.0, 3.0, m)
    return a, v


@pytest.mark.skipif(not _one_blas_thread(), reason="run in a child process with one BLAS thread")
@given(
    st.integers(20, 700),
    st.integers(5, 700),
    st.integers(0, 700),
    st.floats(0.002, 0.2),
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 0.0),
    st.floats(0.0, 3.0),
)
def test_prefix_products_are_the_whole_products(m, n_struct, n_unit, density, seed, lo, hi):
    a, v = _structural_then_units(m, n_struct, n_unit, density, seed, lo, hi)
    # The explicit inverse whatever m is: the property pins its prefix, not the size cut.
    factor = _ExplicitInverse(columns_of(a), np.zeros(0, dtype=np.int64), 90)
    k = factor.dense.shape[1]
    assert k == min(-(-n_struct // 32) * 32, a.shape[1])
    assert (v @ a[:, :k]).tobytes() == (v @ a)[:k].tobytes()
    assert (np.abs(v) @ np.abs(a[:, :k])).tobytes() == (np.abs(v) @ np.abs(a))[:k].tobytes()
    assert factor.times_a(v).tobytes() == (v @ a).tobytes()
    magnitude = factor.times_a(np.abs(v), magnitude=True)
    assert magnitude.tobytes() == (np.abs(v) @ np.abs(a)).tobytes()


@pytest.mark.skipif(_one_blas_thread(), reason="the property runs in this process")
def test_prefix_products_on_one_blas_thread():
    node = f"{Path(__file__).resolve()}::test_prefix_products_are_the_whole_products"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
        env={**os.environ, **ONE_THREAD},
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert "1 passed" in proc.stdout
