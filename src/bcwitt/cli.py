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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import dynamical, endo, equivariant, qz, torified, witt, zeta
from .arith import Polynomial
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
    out = []
    for v in g.values:
        if isinstance(v, Polynomial):
            out.append([int(c) for c in v.coeffs])
        else:
            out.append(_numstr(v))
    return out


def _series_json(w: witt.WittVector) -> list:
    return [_numstr(c) for c in w.coeffs]


def _series_out(series: witt.WittVector) -> dict:
    return {"ghost": _ghost_json(witt.ghost(series)), "series": _series_json(series)}


def _q(text: str):
    """--q: an integer, or 'q' (also 'sym', 'symbolic') for the symbolic parameter."""
    return text if text in ("q", "sym", "symbolic") else int(text)


def _parse_class(data: dict) -> torified.TorifiedClass:
    if "T" in data:
        return torified.TorifiedClass.from_json(data)
    if "L" in data:
        return torified.l_to_t(torified.LClass.from_json(data))
    raise UsageError("a class payload needs a 'T' or 'L' key")


def _plain_action(args, data: dict) -> equivariant.CyclicAction:
    if "total" in data:
        raise UsageError(f"equivariant {args.subcommand} expects a plain action payload")
    return equivariant.CyclicAction.from_json(data)


# ---------------------------------------------------------------- handlers

def _by_n(fn, parse):
    """Handler for fn(--n, payload) on one parsed payload."""
    return lambda args, data: fn(args.n, parse(data)).to_json()


def _qz_split(args, elem: dict) -> dict:
    elem = qz.QZElement.from_json(elem)
    try:
        primes = [int(p) for p in args.primes.split(",") if p]
    except ValueError:
        raise UsageError(f"--primes must be a comma list of primes, not {args.primes!r}")
    return qz.split(primes, elem).to_json()


def _witt_ghost(args, w: dict) -> dict:
    g = witt.ghost(witt.WittVector.from_json(w))
    return {"trunc": g.trunc, "ghost": _ghost_json(g)}


def _class_convert(args, data: dict) -> dict:
    cls = _parse_class(data)
    return (torified.t_to_l(cls) if "T" in data else cls).to_json()


def _zeta_f1(args, cls: dict) -> dict:
    z = zeta.f1_zeta(_parse_class(cls), args.trunc)
    return {"ghost": _ghost_json(z.ghost), "series": _series_json(z.witt)}


def _zeta_hw(args, cls: dict) -> dict:
    z = zeta.hw_zeta(_parse_class(cls), _q(args.q), args.trunc)
    out = {"ghost": _ghost_json(z.ghost)}
    if z.rational is not None:
        out["series"] = _series_json(z.rational.expand(args.trunc))
        out["rational"] = z.rational.to_json()
    return out


def _zeta_lefschetz(args, matrix: dict) -> dict:
    f = dynamical.ToralMap.from_json(matrix)
    if args.closed:
        return dynamical.lefschetz_zeta_closed(f).to_json()
    return _series_out(dynamical.lefschetz_zeta_series(f, args.trunc))


def _endo_phimu(args, rational: dict) -> dict:
    g = endo.phi_mu(witt.RationalWitt.from_json(rational))
    return {"plus": g.plus.to_json(), "minus": g.minus.to_json()}


def _equivariant_by_n(plain, relative):
    """Handler for --n maps that also act on relative objects ('total' key)."""
    def handler(args, data: dict) -> dict:
        if "total" in data:
            return relative(args.n, equivariant.RelativeObject.from_json(data)).to_json()
        return plain(args.n, equivariant.CyclicAction.from_json(data)).to_json()
    return handler


def _equivariant_check(args, data: dict) -> dict:
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
        "sigma": (("n",), ("elem",), _by_n(qz.sigma, qz.QZElement.from_json)),
        "rho": (("n",), ("elem",), _by_n(qz.rho, qz.QZElement.from_json)),
        "mul": ((), ("a", "b"), lambda args, a, b: (
            qz.QZElement.from_json(a) * qz.QZElement.from_json(b)).to_json()),
        "split": (("primes",), ("elem",), _qz_split),
    }),
    "witt": ("big Witt vectors", {
        "add": ((), ("a", "b"), lambda args, a, b: witt.witt_add(
            witt.WittVector.from_json(a), witt.WittVector.from_json(b)).to_json()),
        "mul": ((), ("a", "b"), lambda args, a, b: witt.witt_mul(
            witt.WittVector.from_json(a), witt.WittVector.from_json(b)).to_json()),
        "frobenius": (("n",), ("witt",), _by_n(witt.frobenius, witt.WittVector.from_json)),
        "verschiebung": (("n",), ("witt",), _by_n(witt.verschiebung, witt.WittVector.from_json)),
        "ghost": ((), ("witt",), _witt_ghost),
    }),
    "class": ("torified Grothendieck classes", {
        "convert": ((), ("class",), _class_convert),
        "points": (("m",), ("class",), lambda args, cls: {
            "count": str(torified.f1m_points(_parse_class(cls), args.m))}),
        "bb": ((), ("pieces",), lambda args, pieces: torified.bb_assemble(
            [(_parse_class(p["class"]), int(p["d"])) for p in pieces]).to_json()),
        "virtual": (("dim",), ("class",), lambda args, cls: torified.virtual_motive(
            torified.LClass.from_json(cls), args.dim).to_json()),
    }),
    "zeta": ("zeta functions", {
        "f1": (("trunc",), ("class",), _zeta_f1),
        "hw": (("q", "trunc"), ("class",), _zeta_hw),
        "lefschetz": (("closed|series", "trunc"), ("matrix",), _zeta_lefschetz),
        "artin-mazur": (("trunc",), ("matrix",), lambda args, matrix: _series_out(
            dynamical.artin_mazur_series(dynamical.ToralMap.from_json(matrix), args.trunc))),
        "quotient-check": (("k", "q", "trunc"), (), lambda args: {
            "ghost": _ghost_json(zeta.hw_quotient_check(args.k, _q(args.q), args.trunc))}),
    }),
    "endo": ("endomorphism-category classes", {
        "lmap": ((), ("matrix",), lambda args, matrix: endo.l_map(
            endo.EndoObject.from_json(matrix)).to_json()),
        "frobenius": (("n",), ("matrix",), _by_n(endo.endo_frobenius, endo.EndoObject.from_json)),
        "verschiebung": (("n",), ("matrix",),
                         _by_n(endo.endo_verschiebung, endo.EndoObject.from_json)),
        "delta": ((), ("plus", "minus"), lambda args, plus, minus: endo.delta(endo.GradedEndoObject(
            endo.EndoObject.from_json(plus), endo.EndoObject.from_json(minus))).to_json()),
        "phimu": ((), ("rational",), _endo_phimu),
    }),
    "euler": ("Euler characteristics", {
        "spectral": ((), ("matrix",), lambda args, matrix: dynamical.spectral_euler(
            dynamical.ToralMap.from_json(matrix)).to_json()),
    }),
    "equivariant": ("finite cyclic-action model", {
        "sigma": (("n",), ("action",),
                  _equivariant_by_n(equivariant.sigma_action, equivariant.bc_sigma)),
        "rho": (("n",), ("action",),
                _equivariant_by_n(equivariant.verschiebung_action, equivariant.bc_rho)),
        "periodic": (("k",), ("action",), lambda args, action: {
            "points": sorted(equivariant.periodic_points(_plain_action(args, action), args.k))}),
        "euler": ((), ("action",), lambda args, action: equivariant.euler_char(
            _plain_action(args, action)).to_json()),
        "check": (("n", "kmax"), ("action",), _equivariant_check),
    }),
}


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcwitt",
        description="Exact Bost-Connes / Witt / torified-class computations with JSON I/O.")
    groups = parser.add_subparsers(dest="command", required=True)
    for group, (help_text, subcommands) in COMMANDS.items():
        sub = groups.add_parser(group, help=help_text)
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
    args = build_parser().parse_args(argv)
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
