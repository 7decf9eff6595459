import pytest

from phonon_stats.errors import DomainError
from phonon_stats.params import ReducedParams


def test_reduced_params_validation():
    with pytest.raises(DomainError):
        ReducedParams(C=-1.0, n_th=1.0, n_c=1.0, g=1.0, omega_m_eff=1e6,
                      Gamma_opt=1.0, Delta_c=-2e6)
    with pytest.raises(DomainError):
        # detuning must sit on the two-phonon resonance
        ReducedParams(C=1.0, n_th=1.0, n_c=1.0, g=1.0, omega_m_eff=1e6,
                      Gamma_opt=1.0, Delta_c=-1.9e6)
