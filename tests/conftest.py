import numpy as np
import pytest

from expsplit.propagators import DiagonalPropagator, SmoothingProfile


class ScalarProblem(DiagonalPropagator):
    """u' = lam*u + g(u) as a one-point grid problem, for oracle tests."""

    def __init__(self, lam=-1.0):
        super().__init__()
        self.lam = lam
        self.eigenvalues = np.array([lam], dtype=complex)
        self.profile_x = SmoothingProfile(c=1.0, alpha=0.0)
        self.profile_w = self.profile_x

    bound_m = 1.0

    def to_modes(self, v):
        return np.asarray(v, dtype=complex)

    def from_modes(self, vh):
        return np.asarray(vh).real

    def zeros(self):
        return np.zeros(1)

    # row-wise, as the Propagator norms are: a stack gives its row norms
    def x_norm(self, v):
        return np.max(np.abs(v), axis=-1)

    v_norm = x_norm
    w_norm = x_norm

    def lp(self, v, p):
        return np.max(np.abs(v), axis=-1)

    def random_field(self, rng):
        return rng.uniform(-1.0, 1.0, size=1)


def random_state(problem, rng):
    """A state in the unit V-ball of problem, at least 0.1 from zero."""
    return problem.sample_in_ball(problem.zeros(), 1.0, rng)


def decode(wave, z):
    """Unpack a WaveProblem's complex modal state into physical (w, wdot)."""
    w = wave._idst(np.real(z) / wave.omega)
    wdot = wave._idst(np.imag(z))
    return w, wdot


def gronwall_hypothesis_holds(a, b, z, slack: float = 0.0) -> bool:
    """Check z_n <= a_n + sum_{j<n} b_j z_j for all n >= 1."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    z = np.asarray(z, dtype=float)
    acc = 0.0
    for n in range(1, len(z)):
        acc += b[n - 1] * z[n - 1]
        if z[n] > a[n] + acc + slack:
            return False
    return True


@pytest.fixture
def scalar_problem():
    return ScalarProblem()


@pytest.fixture
def make_scalar():
    return ScalarProblem


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
