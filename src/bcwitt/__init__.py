"""Exact arithmetic for Bost-Connes structures on Grothendieck rings.

The package covers the integral group ring of Q/Z with its semigroup maps,
big Witt vectors with Frobenius and Verschiebung, torified Grothendieck
classes, their one-element-field and finite-field zeta functions, the
endomorphism-category model of rational Witt vectors, dynamical zeta
functions of quasi-unipotent toral maps, and a finite model of equivariant
relative classes.  Everything is exact: integers, Fractions, and integer
polynomials only.

Importing the package loads none of its modules: each public name below
(and each submodule) is imported on first access (PEP 562), so a caller
that needs one module pays for that module only.  ``_EXPORTS`` is the one
map from a module to the names it exports; the CLI's handlers resolve
library names through it too.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("Polynomial", "cyclotomic", "cyclotomic_factor", "moebius", "totient"),
    "errors": ("DegenerateIterate", "DomainError", "HalfTwistPresent", "LimitExceeded",
               "NotDivisible", "NotEffectivelyTorified", "NotQuasiUnipotent", "NotSplit",
               "OutOfMemory", "TruncationTooSmall"),
    "qz": ("QZElement", "SplitQZElement", "pi_n_times_n", "rho", "sigma", "split", "unsplit"),
    "witt": ("GhostVector", "RationalWitt", "WittVector", "frobenius", "ghost", "ghost_divide",
             "rational_div", "teichmuller", "unghost", "verschiebung", "witt_add", "witt_mul"),
    "torified": ("LClass", "LeveledClass", "TorifiedClass", "bb_assemble",
                 "euler_characteristic", "f1m_points", "l_to_t", "t_to_l", "virtual_motive"),
    "zeta": ("f1_zeta", "hw_quotient_check", "hw_zeta", "polylog_rational", "q_to_1_limit",
             "z0", "z1"),
    "endo": ("EndoObject", "GradedEndoObject", "delta", "direct_sum", "endo_frobenius",
             "endo_verschiebung", "l_map", "phi_mu", "tensor"),
    "dynamical": ("LefschetzZeta", "ToralMap", "artin_mazur_series", "lefschetz_numbers",
                  "lefschetz_zeta_closed", "lefschetz_zeta_series", "spectral_euler",
                  "torified_dynamical_zeta", "verschiebung_block", "zeta_ghosts"),
    "equivariant": ("CyclicAction", "RelativeObject", "euler_char", "periodic_points",
                    "sigma_action", "verschiebung_action"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "linalg", "record"))

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
