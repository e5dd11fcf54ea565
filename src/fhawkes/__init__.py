"""Self-exciting point processes with Mittag-Leffler memory kernels.

The library provides:

* ``special`` — Mittag-Leffler / Prabhakar function evaluation, the kernel
  density and its spectral representation, exact variate sampling;
* ``laplace`` — numerical inversion of Laplace transforms on the real time
  axis and forward transforms by quadrature;
* ``analytics`` — closed-form expected intensity and expected event counts;
* ``simulate`` — thinning and branching-cluster samplers of the process;
* ``harness`` — Monte Carlo counting: count matrices, their means with
  standard errors, and count distributions with their references;
* ``io`` — the CSV tables of curves, distributions and events, and the
  JSON validation report;
* ``validation`` — the 12-criterion acceptance suite;
* ``cli`` — the ``fhawkes`` command behind all of the above.
"""

from .analytics import (
    ModelParams,
    asymptote,
    expected_n,
    expected_n_half,
    lambda_exact,
    lambda_exact_half,
    lambda_image,
)
from .errors import (
    AccuracyError,
    BudgetError,
    ContourError,
    ConvergenceWarning,
    DomainError,
    FHawkesError,
    QuadratureError,
)
from .laplace import IltResult, LaplaceImage, forward_lt, ilt, ilt_grid
from .simulate import (
    EventSequence,
    intensity,
    simulate_cluster,
    simulate_thinning,
)
from .special import (
    MLKernelParams,
    erfcx,
    ml_density,
    ml_one,
    ml_sample,
    ml_spectral,
    prabhakar,
)

__version__ = "0.1.0"
