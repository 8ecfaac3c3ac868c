"""Property: a walk of many rows ends every row bit for bit where that
row's own one-row walk does, for windows and for lobes, at any row count
and lobe cap, NaN integrands and epsilon-ended lobe rows included.  A
window row's own walk is its stopping coroutine; a lobe row's is a one-row
lobe walk, and the lobe-at-a-time reference walk ends it there too."""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zetacheck import quad  # noqa: E402
from zetacheck.amplitudes import AmplitudeSpec, Family  # noqa: E402
from zetacheck.quad import OscKind, QuadSpec  # noqa: E402

import reference_routes as routes  # noqa: E402

# Per row: exp decay rate, Gaussian-bump onset, frequency, and the x past
# which its window integrand is NaN (inf: never).
ROW = st.tuples(st.floats(0.2, 3.0), st.floats(0.0, 30.0),
                st.floats(0.05, 50.0),
                st.one_of(st.just(math.inf), st.floats(0.0, 40.0)))
# Lobe caps on both sides of the 32-lobe block edges.
MAX_LOBES = st.sampled_from([16, 31, 32, 33, 63, 64, 65, 256])
# Lobe of the first row at which the amplitude steps to 0, so that lobe is
# the row's first small one: none, the last or first lobe of a block, or
# max_lobes - 1 (-1).
STEP = st.sampled_from([None, 31, 32, -1])
# Lobe of the first row past whose middle the amplitude is NaN: none, early,
# the last or first lobe of a block, or max_lobes - 1 (-1).
NAN_LOBE = st.sampled_from([None, 0, 3, 31, 32, -1])
# Whether the amplitude decays like a power, (1 + x)^-(1 + rate), so that
# epsilon, not a tail stop, ends most rows, at a block edge or max_lobes.
SLOW = st.booleans()


def _keys(results):
    # repr, so that NaN results compare equal too.
    return [repr((complex(r.value), r.error_estimate, r.evaluations,
                  r.converged, r.diverged)) for r in results]


@seed(20261018)
@settings(max_examples=30, deadline=None, database=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(ROW, min_size=n, max_size=n)), MAX_LOBES, STEP,
    NAN_LOBE, SLOW)
def test_array_walkers_equal_coroutine_walkers(params, max_lobes, step,
                                               nan_lobe, slow):
    rate, onset, nu, nan_from = (np.array(c) for c in zip(*params))
    n, spec = len(params), QuadSpec()

    def f(x, rows):
        r = rows[:, None]
        return np.where(x > nan_from[r], np.nan,
                        np.exp(-rate[r] * x) * np.cos(nu[r] * x)
                        + np.exp(-(x - onset[r]) ** 2))

    arrays = quad._walk_windows(f, 0.0, spec, quad._WindowRows(n, spec))
    one_rows = [quad._walk_windows(lambda x, rows, i=i: f(x, rows + i), 0.0,
                                   spec, quad._Coroutine(quad._walk(spec)))[0]
                for i in range(n)]
    assert _keys(arrays) == _keys(one_rows)

    # Lobe rows share one amplitude and differ in frequency.
    if step is None:
        def amp(x):
            decay = ((1.0 + x) ** -(1.0 + rate[0]) if slow
                     else np.exp(-rate[0] * x))
            return decay * (1.0 + np.exp(-(x - onset[0]) ** 2))
    else:
        # Lobe `step` of the first row lies past the step, exactly 0.
        edge = (max_lobes - 1 if step == -1 else step) * math.pi / nu[0]

        def amp(x):
            return np.where(x < edge, 1.0 + np.exp(-rate[0] * x), 0.0)

    if nan_lobe is not None:
        nan_at = ((max_lobes - 1 if nan_lobe == -1 else nan_lobe) + 0.5) \
            * math.pi / nu[0]
        finite_amp = amp

        def amp(x):
            return np.where(x > nan_at, np.nan, finite_amp(x))

    with mock.patch.object(quad, "_MAX_LOBES", max_lobes):
        arrays = quad.oscillatory_rows(lambda x, _: amp(x), nu, OscKind.SIN,
                                       spec)
        one_rows = [quad.oscillatory_raw(amp, x, OscKind.SIN, spec)
                    for x in nu]
        serial = [routes.serial_lobe_sum(amp, x, OscKind.SIN, spec)[0]
                  for x in nu]
    assert _keys(arrays) == _keys(one_rows) == _keys(serial)


@seed(20261020)
@settings(max_examples=20, deadline=None, database=None)
@given(st.integers(1, 24).flatmap(
    lambda n: st.lists(st.tuples(ROW, st.sampled_from(
        [1e-7, 1e-10, 1e-12, 1e-15]), st.booleans()),
        min_size=n, max_size=n)))
def test_window_rows_keep_their_own_tolerances(params):
    # Rows of different absolute tolerances share every block, and each
    # ends where its own one-row walk to that tolerance does.  A row
    # without the decaying head is only the bump, whose climb out of
    # numerical zero meets the divergence watch at its row's floor.
    rows, tols, head = zip(*params)
    rate, onset, nu, nan_from = (np.array(c) for c in zip(*rows))
    head = np.array(head, dtype=float)

    def f(x, rows):
        r = rows[:, None]
        return np.where(x > nan_from[r], np.nan,
                        head[r] * np.exp(-rate[r] * x) * np.cos(nu[r] * x)
                        + np.exp(-(x - onset[r]) ** 2))

    arrays = quad.semi_infinite_rows(f, 0.0, tols)
    one_rows = [quad.integrate_semi_infinite(
        lambda x, i=i: f(x, np.full(x.shape[0], i)), 0.0,
        QuadSpec(abs_tol=t)) for i, t in enumerate(tols)]
    assert _keys(arrays) == _keys(one_rows)


# Amplitudes of the many-row transform: every family, the last two equal to
# earlier ones but distinct objects, so that rows repeat amplitudes both as
# the same object and as equal ones.
AMPLITUDES = (AmplitudeSpec.exponential(0.5), AmplitudeSpec.exponential(2.0),
              AmplitudeSpec.gaussian(1.0), AmplitudeSpec.rational(2.5),
              AmplitudeSpec.rational(1.5), AmplitudeSpec.reciprocal(),
              AmplitudeSpec.inv_sqrt(), AmplitudeSpec.exponential(0.5),
              AmplitudeSpec.rational(2.5))


@seed(20261021)
@settings(max_examples=20, deadline=None, database=None)
@given(st.sampled_from([OscKind.SIN, OscKind.COS]),
       st.lists(st.tuples(st.sampled_from(range(len(AMPLITUDES))),
                          st.sampled_from([0.3, 1.0, 2.5, 7.0, 20.0, 1e3])),
                min_size=1, max_size=8))
def test_transform_rows_equal_serial_transforms(kind, rows):
    # Mixed families, proper and improper, repeated amplitudes and
    # frequencies: row r ends where integrate_oscillatory of its own
    # amplitude and frequency ends, and where one-row routes written out
    # in the tests end.  1/x has no cosine transform.
    pairs = [(AMPLITUDES[i], nu) for i, nu in rows
             if not (kind == OscKind.COS
                     and AMPLITUDES[i].family == Family.RECIPROCAL)]
    if not pairs:
        return
    amps, nus = zip(*pairs)
    spec = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)
    together = quad.integrate_oscillatory_rows(amps, nus, kind, spec)
    one_rows = [quad.integrate_oscillatory(a, nu, kind, spec)
                for a, nu in pairs]
    serial = [routes.serial_transform(a, nu, kind, spec) for a, nu in pairs]
    assert (_transform_keys(together) == _transform_keys(one_rows)
            == _transform_keys(serial))


def _transform_keys(results):
    return [repr((r.value, r.error_estimate, r.evaluations, r.converged))
            for r in results]
