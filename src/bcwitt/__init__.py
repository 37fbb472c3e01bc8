"""Exact arithmetic for Bost-Connes structures on Grothendieck rings.

The package covers the integral group ring of Q/Z with its semigroup maps,
big Witt vectors with Frobenius and Verschiebung, torified Grothendieck
classes, their one-element-field and finite-field zeta functions, the
endomorphism-category model of rational Witt vectors, dynamical zeta
functions of quasi-unipotent toral maps, and a finite model of equivariant
relative classes.  Everything is exact: integers, Fractions, and integer
polynomials only.
"""

from .arith import Polynomial, cyclotomic, cyclotomic_factor, moebius, stirling2, totient
from .errors import (
    DegenerateIterate,
    DomainError,
    HalfTwistPresent,
    NotDivisible,
    NotEffectivelyTorified,
    NotQuasiUnipotent,
    NotSplit,
    TruncationTooSmall,
)
from .qz import QZElement, SplitQZElement, pi_n_times_n, rho, sigma, split, unsplit
from .witt import (
    GhostVector,
    RationalWitt,
    WittVector,
    frobenius,
    ghost,
    ghost_divide,
    rational_div,
    teichmuller,
    unghost,
    verschiebung,
    witt_add,
    witt_mul,
)
from .torified import (
    LClass,
    LeveledClass,
    TorifiedClass,
    bb_assemble,
    euler_characteristic,
    f1m_points,
    l_to_t,
    t_to_l,
    virtual_motive,
)
from .zeta import f1_zeta, hw_quotient_check, hw_zeta, polylog_rational, q_to_1_limit, z0, z1
from .endo import (
    EndoObject,
    GradedEndoObject,
    delta,
    direct_sum,
    endo_frobenius,
    endo_verschiebung,
    l_map,
    phi_mu,
    tensor,
)
from .dynamical import (
    LefschetzZeta,
    ToralMap,
    artin_mazur_series,
    lefschetz_numbers,
    lefschetz_zeta_closed,
    lefschetz_zeta_series,
    spectral_euler,
    torified_dynamical_zeta,
    verschiebung_block,
)
from .equivariant import (
    CyclicAction,
    RelativeObject,
    euler_char,
    periodic_points,
    sigma_action,
    verschiebung_action,
)

__version__ = "0.1.0"
