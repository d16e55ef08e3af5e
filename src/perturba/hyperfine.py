"""Hydrogen ground-state hyperfine structure in a constant magnetic field.

The unperturbed Hamiltonian is the electron-proton spin coupling
W sigma_e . sigma_p, whose coupled eigenbasis is the triplet/singlet set

    phi1 = aa,  phi2 = (ab + ba)/sqrt(2),  phi3 = bb,  phi4 = (ab - ba)/sqrt(2)

with eigenvalues (W, W, W, -3W). A uniform field B along +z adds the
electron Zeeman term B mu_e sigma_ez (the proton term is dropped, its
moment being ~660x smaller). In the coupled basis that perturbation is
diagonal (B mu_e, 0, -B mu_e, 0) plus a single off-diagonal coupling
B mu_e between phi2 and phi4.

This module builds that 4x4 problem for the perturbation engine, carries
the closed-form exact and improved solutions, and exposes the three
normalized 2 -> 4 transition-probability curves (exact, improved,
traditional) that the sweep tooling compares:

    pT = sin^2(sqrt(4 W^2 + (mu_e B)^2) t / hbar) / (1 + (mu_e B)^2 / 4 W^2)
    pI = sin^2((2 W + (B mu_e)^2 / 4W - (B mu_e)^4 / (4W)^3) t / hbar)
    p  = sin^2(2 W t / hbar)

Units: energies in eV, time in seconds, fields in tesla. mu_e enters as
a positive magnitude, matching the formulas above (the physical electron
moment is negative; only |mu_e| appears here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.typing import NDArray

from .perturb import PerturbationProblem

TWO_PI = 2.0 * np.pi
_LEAVE_FLOAT64 = "phases leave float64 at |B| <= {:.3g} T, |t| <= {:.3g} s"


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA inputs in SI units plus the derived eV-based quantities.

    Defaults are the 2002 recommended values; every field can be
    overridden (e.g. from a CLI config file) to track revisions. Each,
    and each derived eV quantity, must be finite and positive, else
    ValueError.
    """

    mu_e: float = 9.28476412e-24  # electron magnetic moment magnitude, J/T
    delta_nu_h: float = 1.4204057517667e9  # ground-state hyperfine frequency, Hz
    planck_h: float = 6.6260693e-34  # Planck constant, J s
    elementary_charge: float = 1.60217653e-19  # C

    def __post_init__(self):
        for constant in fields(self):
            value = getattr(self, constant.name)
            if not 0.0 < value < math.inf:  # also false for nan
                raise ValueError(f"{constant.name} must be finite and > 0, got {value}")
        for name in ("mu_e_ev_per_tesla", "hbar_evs", "w_ev"):  # may under- or overflow
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"derived {name} must be finite and > 0, got {value}")

    @property
    def mu_e_ev_per_tesla(self) -> float:
        return self.mu_e / self.elementary_charge

    @property
    def hbar_evs(self) -> float:
        return self.planck_h / TWO_PI / self.elementary_charge

    @property
    def w_ev(self) -> float:
        """Hyperfine coupling W = h * delta_nu / 4 expressed in eV."""
        return self.planck_h * self.delta_nu_h / (4.0 * self.elementary_charge)


@dataclass(frozen=True)
class HyperfineConfig:
    """A field magnitude (tesla, +z direction) plus the constants to use.

    The field, and B mu_e, must be finite and the field >= 0, else ValueError.
    Configs built without ``constants`` share one default ``PhysicalConstants()``,
    validated once at import; it is frozen, so sharing it is safe.
    """

    b_field: float
    constants: PhysicalConstants = PhysicalConstants()

    def __post_init__(self):
        if not 0.0 <= self.b_field < math.inf:  # also false for nan
            raise ValueError(f"b_field must be finite and >= 0, got {self.b_field}")
        if not self.coupling_ev < math.inf:  # B mu_e may overflow
            raise ValueError(f"derived coupling_ev must be finite, got {self.coupling_ev}")

    @property
    def coupling_ev(self) -> float:
        """Zeeman scale B mu_e in eV."""
        return self.constants.mu_e_ev_per_tesla * self.b_field

    @property
    def is_perturbative(self) -> bool:
        """True while B mu_e < 0.1 W, the regime the expansions assume."""
        return self.coupling_ev < 0.1 * self.constants.w_ev


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def pauli_operators() -> tuple[NDArray, NDArray, NDArray]:
    """The 4x4 product-basis operators sigma_e . sigma_p, sigma_ez, sigma_pz."""
    spin_dot = (
        np.kron(_SIGMA_X, _SIGMA_X)
        + np.kron(_SIGMA_Y, _SIGMA_Y)
        + np.kron(_SIGMA_Z, _SIGMA_Z)
    )
    if np.any(spin_dot.imag != 0.0):
        raise RuntimeError("sigma_e . sigma_p has a nonzero imaginary entry")
    eye = np.eye(2)
    return spin_dot.real, np.kron(_SIGMA_Z.real, eye), np.kron(eye, _SIGMA_Z.real)


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


# the unnormalized integer coupled-basis columns (phi1..phi4 times 1,
# sqrt(2), 1, sqrt(2)) and the exact rescale by their norms
_BASIS_INT, _RESCALE = _read_only(
    np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    ),
    np.sqrt(np.multiply.outer([1.0, 2.0, 1.0, 2.0], [1.0, 2.0, 1.0, 2.0])),
)


# sigma_e . sigma_p and sigma_ez in the coupled basis, built once: H = W E0 + x Z.
# The integer columns and the exact rescale divide every nonzero entry by
# exactly 1 or 2, so no 1/sqrt(2) roundoff leaks into the matrices.
_H0, _ZEEMAN = (_BASIS_INT.T @ op @ _BASIS_INT / _RESCALE for op in pauli_operators()[:2])
if np.any(_H0 != np.diag(np.diag(_H0))):
    raise RuntimeError("the coupled basis does not diagonalize sigma_e . sigma_p")
_E0, _ZEEMAN = _read_only(np.diag(_H0).copy(), _ZEEMAN)


@np.errstate(over="ignore")  # a -3W past float64 is PerturbationProblem's to refuse
def build_problem(config: HyperfineConfig) -> PerturbationProblem:
    """The 4x4 hyperfine + Zeeman problem in the coupled basis: e0 = W E0, h1 = x Z.

    E0 = (1, 1, 1, -3) and Z (diagonal (1, 0, -1, 0), one phi2/phi4 coupling)
    are computed from Pauli algebra, not hard-coded. Scaling them gives the
    same bits as transforming W sigma_e . sigma_p and x sigma_ez directly;
    the + 0.0 turns the -0.0 that x = 0 leaves at Z[2, 2] into +0.0.
    """
    return PerturbationProblem(
        e0=config.constants.w_ev * _E0, h1=config.coupling_ev * _ZEEMAN + 0.0
    )


def _gaps(w: float, x):
    """(exact, improved) = (sqrt(4W^2 + x^2), 2W + x^2/4W - x^4/(4W)^3), x = B mu_e."""
    try:
        cube = (4.0 * w) ** 3
    except OverflowError:  # W > 1.4e102 eV: a finite x^4 / (4W)^3 < 1 is lost in 2W
        cube = math.inf
    improved = 2.0 * w + x * x / (4.0 * w) - x**4 / cube
    return np.sqrt(4.0 * w * w + x * x), improved


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _checked_gaps(constants: PhysicalConstants, b_field, t_max: float = 0.0):
    """The curves' (exact, improved) gaps at fields ``b_field`` (tesla), x the float64
    array ``_normalized_triple`` makes (0-d for a scalar), and the fastest rate max |gap| / hbar.
    The one float64 rule: ValueError when that rate, or the phase fl(fl(max |gap| t_max) / hbar)
    of |t| <= t_max, is not finite. No curve's rate or phase is larger: the exact gap is >= 2W,
    as 4W^2 underflows only where (4W)^3 = 0 and the improved gap is not finite."""
    b = np.asarray(b_field, dtype=np.float64)
    gaps = _gaps(constants.w_ev, np.asarray(constants.mu_e_ev_per_tesla * b))
    gap, hbar = float(np.abs(gaps).max(initial=0.0)), constants.hbar_evs  # nan if any is
    if not (math.isfinite(gap / hbar) and math.isfinite(gap * t_max / hbar)):  # floats never warn
        raise ValueError(_LEAVE_FLOAT64.format(np.abs(b).max(initial=0.0), t_max))
    return gaps, gap / hbar


def exact_eigensystem_closed_form(
    config: HyperfineConfig,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Closed-form eigenvalues and eigenvectors of the full 4x4 Hamiltonian.

    Returned in conventional label order (not ascending):

        E1 = W + B mu_e          Psi1 = phi1
        E2 = -W + sqrt(4W^2 + (mu_e B)^2)
        E3 = W - B mu_e          Psi3 = phi3
        E4 = -W - sqrt(4W^2 + (mu_e B)^2)

    Eigenvector columns hold components along phi1..phi4 (the coupled
    basis the 4x4 problem is written in). Psi2 and Psi4 are the
    normalized phi2/phi4 superpositions written in terms of
    omega42 = -4W and omega42_exact = E4 - E2. At B = 0 those formulas
    degenerate to 0/0 and the unperturbed limits phi2, phi4 are returned
    instead. A gap past ``_checked_gaps``' rule, or a norm of Psi2 or Psi4
    that is 0 or not finite, raises its ValueError.
    """
    w = config.constants.w_ev
    x = config.coupling_ev
    s = float(_checked_gaps(config.constants, config.b_field)[0][0])
    energies = np.array([w + x, -w + s, w - x, -w - s])
    vectors = np.eye(4)
    if x != 0.0:
        omega42 = -4.0 * w
        omega42_exact = -2.0 * s
        a2 = omega42 + omega42_exact
        a4 = omega42 - omega42_exact
        norm2 = math.sqrt(a2 * a2 + 4.0 * x * x)  # Python floats: inf, not a warning
        norm4 = math.sqrt(a4 * a4 + 4.0 * x * x)
        if not (0.0 < norm2 < math.inf and 0.0 < norm4 < math.inf):
            raise ValueError(_LEAVE_FLOAT64.format(config.b_field, 0.0))
        # columns are (phi2, phi4) components of Psi2 and Psi4
        vectors[1, 1] = a2 / norm2
        vectors[3, 1] = -2.0 * x / norm2
        vectors[1, 3] = a4 / norm4
        vectors[3, 3] = -2.0 * x / norm4
    return energies, vectors


def improved_energies_closed_form(config: HyperfineConfig) -> NDArray[np.float64]:
    """The four improved energies, label order matching the exact system.

    E~1 = W + B mu_e and E~3 = W - B mu_e are exact; levels 2 and 4 are -W +-
    the improved gap 2W + (B mu_e)^2 / 4W - (B mu_e)^4 / (4W)^3, as the exact
    system has -W +- the exact gap. Gaps past ``_checked_gaps``' rule raise.
    """
    w = config.constants.w_ev
    x = config.coupling_ev
    improved = _checked_gaps(config.constants, config.b_field)[0][1]
    return np.array([w + x, -w + improved, w - x, -w - improved])


def angular_rates(constants: PhysicalConstants, b_field):
    """Angular rates (rad/s) of the three normalized curves; b_field may be an array.

    Returns (exact, improved, traditional) where each curve is
    sin^2(rate * t) apart from the exact curve's amplitude denominator.
    The traditional rate 2W/hbar does not depend on the field. A rate
    beyond float64 raises ``_checked_gaps``' ValueError, never a numpy warning.
    """
    (exact, improved), _ = _checked_gaps(constants, b_field)
    hbar = constants.hbar_evs
    return exact / hbar, improved / hbar, 2.0 * constants.w_ev / hbar


def _normalized_triple(w: float, x, hbar: float, t, *, improved=True, traditional=True):
    """Vectorized (pT, pI, p); x and t broadcast against each other. A
    curve switched off by ``improved`` or ``traditional`` comes back None."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    u = (x * x) / (4.0 * w * w)
    exact, gap = _gaps(w, x)
    p_exact = np.sin(exact * t / hbar) ** 2 / (1.0 + u)
    p_improved = np.sin(gap * t / hbar) ** 2 if improved else None
    p_traditional = np.sin(2.0 * w * t / hbar) ** 2 if traditional else None
    if traditional and p_traditional.shape != p_exact.shape:
        # field-independent by construction: broadcasting replicates the same bits
        p_traditional = np.broadcast_to(p_traditional, p_exact.shape).copy()
    return p_exact, p_improved, p_traditional


_EPS = float(np.finfo(np.float64).eps)  # 2**-52; one rounding errs by at most _EPS / 2
#: ulps within which numpy's float64 sin meets the sine of its float
#: argument (numpy's own accuracy suite holds it to 1)
_SIN_ULPS = 4
#: the floor's rounding allowance in units of _EPS, derived in _deviation_envelope
_FLOOR_EPS = 4 * _SIN_ULPS + 8
#: no computed deviation exceeds this, derived in _deviation_envelope
_DEVIATION_CAP = 1.0 + (2 * _SIN_ULPS + 2) * _EPS
#: ulps within which math.asin, the C library's asin, meets the arcsine
#: of its argument
_ASIN_ULPS = 4


@np.errstate(over="ignore")  # an infinite rate only shrinks the certified run
def _deviation_envelope(w: float, x: float, hbar: float):
    """Certified envelope of the deviations ``_normalized_triple`` yields at a scalar x.

    Returns ``(rates, floor)``, rates ordered (traditional, improved). For
    curve i, every deviation |p_i - p_exact| computed in float64 from
    ``_normalized_triple(w, x, hbar, t)`` obeys

        dev <= min(_DEVIATION_CAP, sin(min(rates[i] |t|, pi/2)) + floor).

    With e = 2**-52, u = x^2 / 4W^2, and A, B the phases the exact and
    the other curve compute, the identity

        sin^2 A / (1 + u) - sin^2 B = sin(A - B) sin(A + B) - u/(1 + u) sin^2 A

    bounds the deviation at those float phases by |sin(A - B)| + u/(1 + u).
    |A - B| <= rates[i] |t| below, and sin rises on [0, pi/2], so
    |sin(A - B)| <= sin(min(rates[i] |t|, pi/2)); ``_safe_time`` inverts that.

    Phases: each is fl(fl(gap t) / hbar), two roundings of gap t / hbar, so
    |A - B| <= |t| (|gap_exact - gap_other| + (e + e^2/4)(gap_exact + gap_other)) / hbar.
    ``rates`` evaluates this with e in place of e + e^2/4 and scales it by
    1 + 4e, which outweighs the four roundings of the evaluation and the
    e^2/4 term, so it rounds up. (A product gap t below the normal range
    errs by at most 2**-1075 absolutely, which the floor's slack covers.)

    Curve arithmetic, absolutely, with s = _SIN_ULPS: sin errs by s e
    (|sin| <= 1) and squaring by e/2 more, so each sin^2 errs by (2s + 1/2) e.
    The exact curve divides by fl(1 + fl(fl(x x) / fl(4W W))), which is off
    by 2e relatively (3e/2 from u, e/2 from the sum), and the quotient
    rounds once more, so it errs by (2s + 3) e. Subtracting two values in
    [0, 1] adds e/2: dev <= min(1, |A - B|) + u/(1 + u) + (4s + 4) e.

    Floor: u/(1 + u) evaluated in float64 errs by 5e/2, adding k e by e/2
    more, and the neglected e^2 terms stay below e, so
    floor = fl(u/(1 + u) + k e) with k = 4s + 8 = _FLOOR_EPS.

    Cap: each curve lies in [0, 1 + (2s + 1) e] once computed: the sin^2
    bound above, then the exact curve's divisor is at least 1 and its
    quotient rounds up by at most e/2. A difference of two such values
    rounds by e/2 relatively more, and the e^2 terms stay below e/2, so
    dev <= 1 + c e with c = 2s + 2, and _DEVIATION_CAP = 1 + c e is exact.

    Inverse: dev <= threshold for certain while rates[i] |t| <= asin(m)
    with m = threshold - floor in [0, 1). Near m = 1 the slope of asin
    grows without bound, so a margin rounded up could move the cutoff by
    far more than its own rounding: ``_safe_time`` rounds fl(m) one step
    toward 0, which puts it at or below m. Then asin errs by at most
    _ASIN_ULPS ulps, the quotient and the scaling by e/2 relatively each,
    and 1 - (_ASIN_ULPS + 4) e outweighs all three. A quotient below the
    normal range errs by at most 2**-1074 absolutely, which is subtracted.
    """
    exact, improved = _gaps(w, np.asarray(x, dtype=np.float64))  # the curves' own bits
    others = np.array([2.0 * w, improved])
    rates = (np.abs(exact - others) + _EPS * (exact + others)) / hbar * (1.0 + 4.0 * _EPS)
    u = (x * x) / (4.0 * w * w)
    return rates, float(u / (1.0 + u) + _FLOOR_EPS * _EPS)


@np.errstate(over="ignore", divide="ignore")
def _safe_time(rate: float, floor: float, threshold: float) -> float:
    """A |t| up to which sin(min(rate |t|, pi/2)) + floor <= threshold
    holds for certain, by the rounding argument of ``_deviation_envelope``:
    inf when no computed deviation can exceed it or asin(margin) / rate
    overflows, -inf when not even at t = 0. ``floor`` comes from the envelope,
    so it is at least _FLOOR_EPS eps and the margin below the cap is < 1."""
    if threshold >= _DEVIATION_CAP:
        return math.inf
    margin = math.nextafter(threshold - floor, 0.0)
    if not margin > 0.0:
        return -math.inf
    return math.asin(margin) / rate * (1.0 - (_ASIN_ULPS + 4) * _EPS) - 2.0**-1074


def normalized_probabilities(config: HyperfineConfig, t):
    """The three dimensionless 2 -> 4 comparison curves at time(s) ``t``.

    Each is the raw transition probability rescaled by the common factor
    (omega42 / 2)^2 / (mu_e B)^2 = (2W / B mu_e)^2, which strips the
    shared envelope so the phase behavior can be compared directly.
    Returns (exact, improved, traditional); scalars in, scalars out.
    A rate or phase beyond float64, or a time that is not finite, raises
    ``_checked_gaps``' ValueError before any curve is evaluated.
    """
    _checked_gaps(config.constants, config.b_field, float(np.max(np.abs(t), initial=0.0)))
    pT, pI, p = _normalized_triple(
        config.constants.w_ev, config.coupling_ev, config.constants.hbar_evs, t
    )
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(pT), float(pI), float(p)
    return pT, pI, p

