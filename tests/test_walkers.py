"""Property: the array walkers end every row bit for bit where that row's
own one-row coroutine walk does, for windows and for lobes, at any row
count."""

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
MAX_LOBES = 256


def _keys(results):
    return [(complex(r.value), r.error_estimate, r.evaluations, r.converged,
             r.diverged) for r in results]


@seed(20261018)
@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(ROW, min_size=n, max_size=n)))
def test_array_walkers_equal_coroutine_walkers(params):
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
    def amp(x):
        return np.exp(-rate[0] * x) * (1.0 + np.exp(-(x - onset[0]) ** 2))

    arrays = quad._walk_lobes(amp, nu, OscKind.SIN, spec, MAX_LOBES,
                              quad._LobeRows(n, spec, MAX_LOBES))
    one_rows = [quad._walk_lobes(amp, nu[i:i + 1], OscKind.SIN, spec,
                                 MAX_LOBES, quad._Coroutine(quad._lobe_sum(
                                     spec, MAX_LOBES)))[0]
                for i in range(n)]
    assert _keys(arrays) == _keys(one_rows)
