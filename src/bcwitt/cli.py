"""Command-line surface: every module behind JSON-in/JSON-out subcommands.

Output is deterministic: payloads are built in canonical field order and
printed compactly, numbers that can exceed native precision travel as
strings, and domain failures exit 1 with ``{"error": {"kind", "detail"}}``
on stdout.  Malformed invocations and payloads exit 2 with a message on
stderr, matching argparse's own convention; payload numbers must be JSON
integers or strings, so floats and booleans are malformed.

Every subcommand is declared once, in ``COMMANDS``: its plain flags, its
JSON payload flags and its handler.  Any payload flag accepts ``@FILE`` to
read its JSON from a file, and ``--input FILE`` supplies missing payload
flags from a single JSON object keyed by flag name.  ``--trunc`` defaults
to 12, overridable with the BCWITT_TRUNC environment variable.

A handler imports the library modules it runs when it runs, and only the
invoked group's subcommand parsers are built, so one call loads and builds
only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import DomainError

DEFAULT_TRUNC = 12


class UsageError(Exception):
    pass


def _default_trunc() -> int:
    env = os.environ.get("BCWITT_TRUNC")
    if env is None:
        return DEFAULT_TRUNC
    try:
        value = int(env)
        if value < 1:
            raise ValueError
        return value
    except ValueError:
        raise UsageError(f"BCWITT_TRUNC must be a positive integer, not {env!r}")


def _decode(text: str, source: str) -> dict | list:
    """Parse JSON whose numbers are all integers: floats and booleans are rejected."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON for {source}: {exc}")
    except RecursionError:
        raise UsageError(f"JSON for {source} is nested too deeply")
    stack = [data]
    while stack:
        x = stack.pop()
        if isinstance(x, (bool, float)):
            raise UsageError(f"{source} holds {json.dumps(x)}; "
                             "numbers must be JSON integers or strings")
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
    return data


def _load_payload(raw: str | None, name: str, inputs: dict) -> dict | list:
    if raw is None:
        if name in inputs:
            return inputs[name]
        raise UsageError(f"missing payload --{name}")
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    return _decode(raw, f"--{name}")


def _numstr(x) -> str:
    return str(Fraction(x))


def _ghost_json(g) -> list:
    from .arith import Polynomial
    out = []
    for v in g.values:
        if isinstance(v, Polynomial):
            out.append([int(c) for c in v.coeffs])
        else:
            out.append(_numstr(v))
    return out


def _series_json(w) -> list:
    return [_numstr(c) for c in w.coeffs]


def _series_out(series) -> dict:
    from .witt import ghost
    return {"ghost": _ghost_json(ghost(series)), "series": _series_json(series)}


def _q(text: str):
    """--q: an integer, or 'q' (also 'sym', 'symbolic') for the symbolic parameter."""
    return text if text in ("q", "sym", "symbolic") else int(text)


def _parse_class(data: dict):
    from . import torified
    if "T" in data:
        return torified.TorifiedClass.from_json(data)
    if "L" in data:
        return torified.l_to_t(torified.LClass.from_json(data))
    raise UsageError("a class payload needs a 'T' or 'L' key")


def _plain_action(args, data: dict):
    from .equivariant import CyclicAction
    if "total" in data:
        raise UsageError(f"equivariant {args.subcommand} expects a plain action payload")
    return CyclicAction.from_json(data)


# ---------------------------------------------------------------- handlers

def _qz_sigma(args, elem: dict) -> dict:
    from .qz import QZElement, sigma
    return sigma(args.n, QZElement.from_json(elem)).to_json()


def _qz_rho(args, elem: dict) -> dict:
    from .qz import QZElement, rho
    return rho(args.n, QZElement.from_json(elem)).to_json()


def _qz_mul(args, a: dict, b: dict) -> dict:
    from .qz import QZElement
    return (QZElement.from_json(a) * QZElement.from_json(b)).to_json()


def _qz_split(args, elem: dict) -> dict:
    from . import qz
    elem = qz.QZElement.from_json(elem)
    try:
        primes = [int(p) for p in args.primes.split(",") if p]
    except ValueError:
        raise UsageError(f"--primes must be a comma list of primes, not {args.primes!r}")
    return qz.split(primes, elem).to_json()


def _witt_add(args, a: dict, b: dict) -> dict:
    from .witt import WittVector, witt_add
    return witt_add(WittVector.from_json(a), WittVector.from_json(b)).to_json()


def _witt_mul(args, a: dict, b: dict) -> dict:
    from .witt import WittVector, witt_mul
    return witt_mul(WittVector.from_json(a), WittVector.from_json(b)).to_json()


def _witt_frobenius(args, w: dict) -> dict:
    from .witt import WittVector, frobenius
    return frobenius(args.n, WittVector.from_json(w)).to_json()


def _witt_verschiebung(args, w: dict) -> dict:
    from .witt import WittVector, verschiebung
    return verschiebung(args.n, WittVector.from_json(w)).to_json()


def _witt_ghost(args, w: dict) -> dict:
    from .witt import WittVector, ghost
    g = ghost(WittVector.from_json(w))
    return {"trunc": g.trunc, "ghost": _ghost_json(g)}


def _class_convert(args, data: dict) -> dict:
    from .torified import t_to_l
    cls = _parse_class(data)
    return (t_to_l(cls) if "T" in data else cls).to_json()


def _class_points(args, cls: dict) -> dict:
    from .torified import f1m_points
    return {"count": str(f1m_points(_parse_class(cls), args.m))}


def _class_bb(args, pieces: list) -> dict:
    from .torified import bb_assemble
    return bb_assemble([(_parse_class(p["class"]), int(p["d"])) for p in pieces]).to_json()


def _class_virtual(args, cls: dict) -> dict:
    from .torified import LClass, virtual_motive
    return virtual_motive(LClass.from_json(cls), args.dim).to_json()


def _zeta_f1(args, cls: dict) -> dict:
    from .zeta import f1_zeta
    z = f1_zeta(_parse_class(cls), args.trunc)
    return {"ghost": _ghost_json(z.ghost), "series": _series_json(z.witt)}


def _zeta_hw(args, cls: dict) -> dict:
    from .zeta import hw_zeta
    z = hw_zeta(_parse_class(cls), _q(args.q), args.trunc)
    out = {"ghost": _ghost_json(z.ghost)}
    if z.rational is not None:
        out["series"] = _series_json(z.rational.expand(args.trunc))
        out["rational"] = z.rational.to_json()
    return out


def _zeta_lefschetz(args, matrix: dict) -> dict:
    from . import dynamical
    f = dynamical.ToralMap.from_json(matrix)
    if args.closed:
        return dynamical.lefschetz_zeta_closed(f).to_json()
    return _series_out(dynamical.lefschetz_zeta_series(f, args.trunc))


def _zeta_artin_mazur(args, matrix: dict) -> dict:
    from .dynamical import ToralMap, artin_mazur_series
    return _series_out(artin_mazur_series(ToralMap.from_json(matrix), args.trunc))


def _zeta_quotient_check(args) -> dict:
    from .zeta import hw_quotient_check
    return {"ghost": _ghost_json(hw_quotient_check(args.k, _q(args.q), args.trunc))}


def _endo_lmap(args, matrix: dict) -> dict:
    from .endo import EndoObject, l_map
    return l_map(EndoObject.from_json(matrix)).to_json()


def _endo_frobenius(args, matrix: dict) -> dict:
    from .endo import EndoObject, endo_frobenius
    return endo_frobenius(args.n, EndoObject.from_json(matrix)).to_json()


def _endo_verschiebung(args, matrix: dict) -> dict:
    from .endo import EndoObject, endo_verschiebung
    return endo_verschiebung(args.n, EndoObject.from_json(matrix)).to_json()


def _endo_delta(args, plus: dict, minus: dict) -> dict:
    from .endo import EndoObject, GradedEndoObject, delta
    return delta(GradedEndoObject(EndoObject.from_json(plus),
                                  EndoObject.from_json(minus))).to_json()


def _endo_phimu(args, rational: dict) -> dict:
    from .endo import phi_mu
    from .witt import RationalWitt
    g = phi_mu(RationalWitt.from_json(rational))
    return {"plus": g.plus.to_json(), "minus": g.minus.to_json()}


def _euler_spectral(args, matrix: dict) -> dict:
    from .dynamical import ToralMap, spectral_euler
    return spectral_euler(ToralMap.from_json(matrix)).to_json()


def _equivariant_sigma(args, data: dict) -> dict:
    """sigma_n on a plain action, or on a relative object ('total' key)."""
    from .equivariant import CyclicAction, RelativeObject, bc_sigma, sigma_action
    if "total" in data:
        return bc_sigma(args.n, RelativeObject.from_json(data)).to_json()
    return sigma_action(args.n, CyclicAction.from_json(data)).to_json()


def _equivariant_rho(args, data: dict) -> dict:
    """rho_n on a plain action, or on a relative object ('total' key)."""
    from .equivariant import CyclicAction, RelativeObject, bc_rho, verschiebung_action
    if "total" in data:
        return bc_rho(args.n, RelativeObject.from_json(data)).to_json()
    return verschiebung_action(args.n, CyclicAction.from_json(data)).to_json()


def _equivariant_periodic(args, action: dict) -> dict:
    from .equivariant import periodic_points
    return {"points": sorted(periodic_points(_plain_action(args, action), args.k))}


def _equivariant_euler(args, action: dict) -> dict:
    from .equivariant import euler_char
    return euler_char(_plain_action(args, action)).to_json()


def _equivariant_check(args, data: dict) -> dict:
    from . import equivariant, qz
    a, n, kmax = _plain_action(args, data), args.n, args.kmax
    shifted = equivariant.sigma_action(n, a)
    spread = equivariant.verschiebung_action(n, a)
    for k in range(1, kmax + 1):
        if equivariant.periodic_points(shifted, k) != equivariant.periodic_points(a, n * k):
            return {"ok": False, "failed": f"sigma periodic points at k={k}"}
        pp = equivariant.periodic_points(spread, k)
        if k % n:
            expected = frozenset()
        else:
            base = equivariant.periodic_points(a, k // n)
            expected = frozenset(j * a.size + s for j in range(n) for s in base)
        if pp != expected:
            return {"ok": False, "failed": f"verschiebung periodic points at k={k}"}
    base_euler = equivariant.euler_char(a)
    if equivariant.euler_char(shifted) != qz.sigma(n, base_euler):
        return {"ok": False, "failed": "sigma euler intertwining"}
    if equivariant.euler_char(spread) != qz.rho(n, base_euler):
        return {"ok": False, "failed": "verschiebung euler intertwining"}
    return {"ok": True, "n": n, "kmax": kmax}


# Plain (non-payload) flags by name; "a|b" in a subcommand's flags makes a
# mutually exclusive pair.  --series selects the default and is kept so
# that explicit calls stay valid.
_FLAGS = {
    **dict.fromkeys(("n", "m", "k", "dim"), {"type": int, "required": True}),
    "kmax": {"type": int, "default": 24},
    "trunc": {"type": int},
    "primes": {"required": True, "help": "comma-separated primes, e.g. 2,3"},
    "q": {"required": True, "help": "integer >= 2, or 'q' for symbolic"},
    **dict.fromkeys(("closed", "series"), {"action": "store_true"}),
}

# group -> (help, subcommand -> (plain flags, payload flags, handler)).  A
# handler takes the parsed args and the decoded payloads in declared order
# and returns the JSON object to print.
COMMANDS = {
    "qz": ("group ring of Q/Z", {
        "sigma": (("n",), ("elem",), _qz_sigma),
        "rho": (("n",), ("elem",), _qz_rho),
        "mul": ((), ("a", "b"), _qz_mul),
        "split": (("primes",), ("elem",), _qz_split),
    }),
    "witt": ("big Witt vectors", {
        "add": ((), ("a", "b"), _witt_add),
        "mul": ((), ("a", "b"), _witt_mul),
        "frobenius": (("n",), ("witt",), _witt_frobenius),
        "verschiebung": (("n",), ("witt",), _witt_verschiebung),
        "ghost": ((), ("witt",), _witt_ghost),
    }),
    "class": ("torified Grothendieck classes", {
        "convert": ((), ("class",), _class_convert),
        "points": (("m",), ("class",), _class_points),
        "bb": ((), ("pieces",), _class_bb),
        "virtual": (("dim",), ("class",), _class_virtual),
    }),
    "zeta": ("zeta functions", {
        "f1": (("trunc",), ("class",), _zeta_f1),
        "hw": (("q", "trunc"), ("class",), _zeta_hw),
        "lefschetz": (("closed|series", "trunc"), ("matrix",), _zeta_lefschetz),
        "artin-mazur": (("trunc",), ("matrix",), _zeta_artin_mazur),
        "quotient-check": (("k", "q", "trunc"), (), _zeta_quotient_check),
    }),
    "endo": ("endomorphism-category classes", {
        "lmap": ((), ("matrix",), _endo_lmap),
        "frobenius": (("n",), ("matrix",), _endo_frobenius),
        "verschiebung": (("n",), ("matrix",), _endo_verschiebung),
        "delta": ((), ("plus", "minus"), _endo_delta),
        "phimu": ((), ("rational",), _endo_phimu),
    }),
    "euler": ("Euler characteristics", {
        "spectral": ((), ("matrix",), _euler_spectral),
    }),
    "equivariant": ("finite cyclic-action model", {
        "sigma": (("n",), ("action",), _equivariant_sigma),
        "rho": (("n",), ("action",), _equivariant_rho),
        "periodic": (("k",), ("action",), _equivariant_periodic),
        "euler": ((), ("action",), _equivariant_euler),
        "check": (("n", "kmax"), ("action",), _equivariant_check),
    }),
}


# ------------------------------------------------------------------ parser

def build_parser(only: str | None) -> argparse.ArgumentParser:
    """The parser for every group, with the subcommand parsers of group
    ``only`` alone: one parse never reaches another group's."""
    parser = argparse.ArgumentParser(
        prog="bcwitt",
        description="Exact Bost-Connes / Witt / torified-class computations with JSON I/O.")
    groups = parser.add_subparsers(dest="command", required=True)
    for group, (help_text, subcommands) in COMMANDS.items():
        sub = groups.add_parser(group, help=help_text)
        if group != only:
            continue
        sub = sub.add_subparsers(dest="subcommand", required=True)
        for name, (flags, payloads, _) in subcommands.items():
            p = sub.add_parser(name)
            for payload in payloads:
                p.add_argument(f"--{payload}")
            for flag in flags:
                target = p.add_mutually_exclusive_group() if "|" in flag else p
                for f in flag.split("|"):
                    target.add_argument(f"--{f}", **_FLAGS[f])
            p.add_argument("--input", help="JSON file supplying missing payload flags by name")
    return parser


def run(argv: list[str]) -> int:
    # The top-level parser has no option that takes a value, so the first
    # argument not starting with "-" is the group, if any is valid.
    group = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(group).parse_args(argv)
    flags, payloads, handler = COMMANDS[args.command][1][args.subcommand]
    inputs: dict = {}
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            inputs = _decode(fh.read(), "--input")
        if not isinstance(inputs, dict):
            raise UsageError("--input file must contain a JSON object")
    if "trunc" in flags and args.trunc is None:
        args.trunc = _default_trunc()
    data = [_load_payload(getattr(args, name), name, inputs) for name in payloads]
    print(json.dumps(handler(args, *data), separators=(",", ":")))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except UsageError as exc:
        print(f"bcwitt: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError, KeyError, TypeError, AttributeError) as exc:
        print(f"bcwitt: invalid input: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": exc.detail}},
                         separators=(",", ":")))
        return 1


if __name__ == "__main__":
    sys.exit(main())
