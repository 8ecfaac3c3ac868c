"""Property: the array walkers end every row bit for bit where that row's
own one-row coroutine walk does, for windows and for lobes, at any row
count and lobe cap."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zetacheck import quad  # noqa: E402
from zetacheck.quad import OscKind, QuadSpec  # noqa: E402

# Per row: exp decay rate, Gaussian-bump onset, frequency.
ROW = st.tuples(st.floats(0.2, 3.0), st.floats(0.0, 30.0),
                st.floats(0.05, 50.0))
# Caps on both sides of the 32-lobe block edges.
MAX_LOBES = st.sampled_from([16, 31, 32, 33, 63, 64, 65, 256])
# Lobe of the first row at which the amplitude steps to 0, so that lobe is
# the row's first small one: none, the last or first lobe of a block, or
# max_lobes - 1 (-1).
STEP = st.sampled_from([None, 31, 32, -1])


def _keys(results):
    return [(complex(r.value), r.error_estimate, r.evaluations, r.converged,
             r.diverged) for r in results]


@seed(20261018)
@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(ROW, min_size=n, max_size=n)), MAX_LOBES, STEP)
def test_array_walkers_equal_coroutine_walkers(params, max_lobes, step):
    rate, onset, nu = (np.array(c) for c in zip(*params))
    n, spec = len(params), QuadSpec()

    def f(x, rows):
        r = rows[:, None]
        return (np.exp(-rate[r] * x) * np.cos(nu[r] * x)
                + np.exp(-(x - onset[r]) ** 2))

    arrays = quad._walk_windows(f, 0.0, spec, quad._WindowRows(n, spec))
    one_rows = [quad._walk_windows(lambda x, rows, i=i: f(x, rows + i), 0.0,
                                   spec, quad._Coroutine(quad._walk(spec)))[0]
                for i in range(n)]
    assert _keys(arrays) == _keys(one_rows)

    # Lobe rows share one amplitude and differ in frequency.
    if step is None:
        def amp(x):
            return np.exp(-rate[0] * x) * (1.0 + np.exp(-(x - onset[0]) ** 2))
    else:
        # Lobe `step` of the first row lies past the step, exactly 0.
        edge = (max_lobes - 1 if step == -1 else step) * math.pi / nu[0]

        def amp(x):
            return np.where(x < edge, 1.0 + np.exp(-rate[0] * x), 0.0)

    arrays = quad._walk_lobes(amp, nu, OscKind.SIN, spec, max_lobes,
                              quad._LobeRows(n, spec, max_lobes))
    one_rows = [quad._walk_lobes(amp, nu[i:i + 1], OscKind.SIN, spec,
                                 max_lobes, quad._Coroutine(quad._lobe_sum(
                                     spec, max_lobes)))[0]
                for i in range(n)]
    assert _keys(arrays) == _keys(one_rows)
