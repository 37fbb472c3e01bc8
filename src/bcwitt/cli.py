"""Command-line surface: every module behind JSON-in/JSON-out subcommands.

Output is deterministic: payloads are built in canonical field order and
printed compactly, numbers that can exceed native precision travel as
strings, and domain failures exit 1 with ``{"error": {"kind", "detail"}}``
on stdout.  Malformed invocations and payloads exit 2 with a message on
stderr, matching argparse's own convention.

Any payload flag accepts ``@FILE`` to read its JSON from a file, and
``--input FILE`` supplies missing payload flags from a single JSON object
keyed by flag name.  ``--trunc`` defaults to 12, overridable with the
BCWITT_TRUNC environment variable.
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


def _load_payload(raw: str | None, name: str, inputs: dict) -> dict | list:
    if raw is None:
        if name in inputs:
            return inputs[name]
        raise UsageError(f"missing payload --{name}")
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON for --{name}: {exc}")


def _emit(data: dict) -> int:
    print(json.dumps(data, separators=(",", ":")))
    return 0


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


def _parse_class(data: dict) -> torified.TorifiedClass:
    if "T" in data:
        return torified.TorifiedClass.from_json(data)
    if "L" in data:
        return torified.l_to_t(torified.LClass.from_json(data))
    raise UsageError("a class payload needs a 'T' or 'L' key")


# ---------------------------------------------------------------- handlers

def _run_qz(args, inputs) -> int:
    if args.action in ("sigma", "rho"):
        elem = qz.QZElement.from_json(_load_payload(args.elem, "elem", inputs))
        fn = qz.sigma if args.action == "sigma" else qz.rho
        return _emit(fn(args.n, elem).to_json())
    if args.action == "mul":
        a = qz.QZElement.from_json(_load_payload(args.a, "a", inputs))
        b = qz.QZElement.from_json(_load_payload(args.b, "b", inputs))
        return _emit((a * b).to_json())
    if args.action == "split":
        elem = qz.QZElement.from_json(_load_payload(args.elem, "elem", inputs))
        try:
            primes = [int(p) for p in args.primes.split(",") if p]
        except ValueError:
            raise UsageError(f"--primes must be a comma list of primes, not {args.primes!r}")
        return _emit(qz.split(primes, elem).to_json())
    raise UsageError(f"unknown qz action {args.action}")


def _run_witt(args, inputs) -> int:
    if args.action in ("add", "mul"):
        a = witt.WittVector.from_json(_load_payload(args.a, "a", inputs))
        b = witt.WittVector.from_json(_load_payload(args.b, "b", inputs))
        fn = witt.witt_add if args.action == "add" else witt.witt_mul
        return _emit(fn(a, b).to_json())
    w = witt.WittVector.from_json(_load_payload(args.witt, "witt", inputs))
    if args.action == "frobenius":
        return _emit(witt.frobenius(args.n, w).to_json())
    if args.action == "verschiebung":
        return _emit(witt.verschiebung(args.n, w).to_json())
    if args.action == "ghost":
        g = witt.ghost(w)
        return _emit({"trunc": g.trunc, "ghost": _ghost_json(g)})
    raise UsageError(f"unknown witt action {args.action}")


def _run_class(args, inputs) -> int:
    if args.action == "convert":
        data = _load_payload(args.cls, "class", inputs)
        if "T" in data:
            return _emit(torified.t_to_l(torified.TorifiedClass.from_json(data)).to_json())
        if "L" in data:
            return _emit(torified.l_to_t(torified.LClass.from_json(data)).to_json())
        raise UsageError("a class payload needs a 'T' or 'L' key")
    if args.action == "points":
        cls = _parse_class(_load_payload(args.cls, "class", inputs))
        return _emit({"count": str(torified.f1m_points(cls, args.m))})
    if args.action == "bb":
        pieces_data = _load_payload(args.pieces, "pieces", inputs)
        pieces = [(_parse_class(p["class"]), int(p["d"])) for p in pieces_data]
        return _emit(torified.bb_assemble(pieces).to_json())
    if args.action == "virtual":
        lcls = torified.LClass.from_json(_load_payload(args.cls, "class", inputs))
        return _emit(torified.virtual_motive(lcls, args.dim).to_json())
    raise UsageError(f"unknown class action {args.action}")


def _run_zeta(args, inputs) -> int:
    trunc = args.trunc if args.trunc is not None else _default_trunc()
    if args.action == "f1":
        cls = _parse_class(_load_payload(args.cls, "class", inputs))
        z = zeta.f1_zeta(cls, trunc)
        return _emit({"ghost": _ghost_json(z.ghost),
                      "series": [_numstr(c) for c in z.witt.coeffs]})
    if args.action == "hw":
        cls = _parse_class(_load_payload(args.cls, "class", inputs))
        q = args.q if args.q in ("q", "sym", "symbolic") else int(args.q)
        z = zeta.hw_zeta(cls, q, trunc)
        out = {"ghost": _ghost_json(z.ghost)}
        if z.rational is not None:
            out["series"] = [_numstr(c) for c in z.rational.expand(trunc).coeffs]
            out["rational"] = z.rational.to_json()
        return _emit(out)
    if args.action in ("lefschetz", "artin-mazur"):
        f = dynamical.ToralMap.from_json(_load_payload(args.matrix, "matrix", inputs))
        if args.action == "lefschetz" and args.closed:
            return _emit(dynamical.lefschetz_zeta_closed(f).to_json())
        series = (dynamical.lefschetz_zeta_series if args.action == "lefschetz"
                  else dynamical.artin_mazur_series)(f, trunc)
        g = witt.ghost(series)
        return _emit({"ghost": _ghost_json(g),
                      "series": [_numstr(c) for c in series.coeffs]})
    if args.action == "quotient-check":
        q = args.q if args.q in ("q", "sym", "symbolic") else int(args.q)
        g = zeta.hw_quotient_check(args.k, q, trunc)
        return _emit({"ghost": _ghost_json(g)})
    raise UsageError(f"unknown zeta action {args.action}")


def _run_endo(args, inputs) -> int:
    if args.action == "lmap":
        e = endo.EndoObject.from_json(_load_payload(args.matrix, "matrix", inputs))
        return _emit(endo.l_map(e).to_json())
    if args.action in ("frobenius", "verschiebung"):
        e = endo.EndoObject.from_json(_load_payload(args.matrix, "matrix", inputs))
        fn = endo.endo_frobenius if args.action == "frobenius" else endo.endo_verschiebung
        return _emit(fn(args.n, e).to_json())
    if args.action == "delta":
        plus = endo.EndoObject.from_json(_load_payload(args.plus, "plus", inputs))
        minus = endo.EndoObject.from_json(_load_payload(args.minus, "minus", inputs))
        return _emit(endo.delta(endo.GradedEndoObject(plus, minus)).to_json())
    if args.action == "phimu":
        z = witt.RationalWitt.from_json(_load_payload(args.rational, "rational", inputs))
        g = endo.phi_mu(z)
        return _emit({"plus": g.plus.to_json(), "minus": g.minus.to_json()})
    raise UsageError(f"unknown endo action {args.action}")


def _run_euler(args, inputs) -> int:
    if args.action == "spectral":
        f = dynamical.ToralMap.from_json(_load_payload(args.matrix, "matrix", inputs))
        return _emit(dynamical.spectral_euler(f).to_json())
    raise UsageError(f"unknown euler action {args.action}")


def _parse_equivariant(data: dict):
    if "total" in data:
        return equivariant.RelativeObject.from_json(data)
    return equivariant.CyclicAction.from_json(data)


def _run_equivariant(args, inputs) -> int:
    obj = _parse_equivariant(_load_payload(args.action_payload, "action", inputs))
    relative = isinstance(obj, equivariant.RelativeObject)
    if args.action in ("sigma", "rho"):
        if relative:
            fn = equivariant.bc_sigma if args.action == "sigma" else equivariant.bc_rho
        else:
            fn = (equivariant.sigma_action if args.action == "sigma"
                  else equivariant.verschiebung_action)
        return _emit(fn(args.n, obj).to_json())
    if relative:
        raise UsageError(f"equivariant {args.action} expects a plain action payload")
    if args.action == "periodic":
        points = sorted(equivariant.periodic_points(obj, args.k))
        return _emit({"points": points})
    if args.action == "euler":
        return _emit(equivariant.euler_char(obj).to_json())
    if args.action == "check":
        return _emit(_equivariant_check(obj, args.n, args.kmax))
    raise UsageError(f"unknown equivariant action {args.action}")


def _equivariant_check(a: equivariant.CyclicAction, n: int, kmax: int) -> dict:
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


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcwitt",
        description="Exact Bost-Connes / Witt / torified-class computations with JSON I/O.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", help="JSON file supplying missing payload flags by name")

    qz_p = sub.add_parser("qz", help="group ring of Q/Z")
    qz_sub = qz_p.add_subparsers(dest="action", required=True)
    for name in ("sigma", "rho"):
        p = qz_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--elem")
        add_common(p)
    p = qz_sub.add_parser("mul")
    p.add_argument("--a")
    p.add_argument("--b")
    add_common(p)
    p = qz_sub.add_parser("split")
    p.add_argument("--primes", required=True, help="comma-separated primes, e.g. 2,3")
    p.add_argument("--elem")
    add_common(p)

    witt_p = sub.add_parser("witt", help="big Witt vectors")
    witt_sub = witt_p.add_subparsers(dest="action", required=True)
    for name in ("add", "mul"):
        p = witt_sub.add_parser(name)
        p.add_argument("--a")
        p.add_argument("--b")
        add_common(p)
    for name in ("frobenius", "verschiebung"):
        p = witt_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--witt")
        add_common(p)
    p = witt_sub.add_parser("ghost")
    p.add_argument("--witt")
    add_common(p)

    class_p = sub.add_parser("class", help="torified Grothendieck classes")
    class_sub = class_p.add_subparsers(dest="action", required=True)
    p = class_sub.add_parser("convert")
    p.add_argument("--class", dest="cls")
    add_common(p)
    p = class_sub.add_parser("points")
    p.add_argument("--class", dest="cls")
    p.add_argument("--m", type=int, required=True)
    add_common(p)
    p = class_sub.add_parser("bb")
    p.add_argument("--pieces")
    add_common(p)
    p = class_sub.add_parser("virtual")
    p.add_argument("--class", dest="cls")
    p.add_argument("--dim", type=int, required=True)
    add_common(p)

    zeta_p = sub.add_parser("zeta", help="zeta functions")
    zeta_sub = zeta_p.add_subparsers(dest="action", required=True)
    p = zeta_sub.add_parser("f1")
    p.add_argument("--class", dest="cls")
    p.add_argument("--trunc", type=int)
    add_common(p)
    p = zeta_sub.add_parser("hw")
    p.add_argument("--class", dest="cls")
    p.add_argument("--q", required=True, help="integer >= 2, or 'q' for symbolic")
    p.add_argument("--trunc", type=int)
    add_common(p)
    p = zeta_sub.add_parser("lefschetz")
    p.add_argument("--matrix")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--closed", action="store_true")
    group.add_argument("--series", action="store_true")
    p.add_argument("--trunc", type=int)
    add_common(p)
    p = zeta_sub.add_parser("artin-mazur")
    p.add_argument("--matrix")
    p.add_argument("--trunc", type=int)
    add_common(p)
    p = zeta_sub.add_parser("quotient-check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--trunc", type=int)
    add_common(p)

    endo_p = sub.add_parser("endo", help="endomorphism-category classes")
    endo_sub = endo_p.add_subparsers(dest="action", required=True)
    p = endo_sub.add_parser("lmap")
    p.add_argument("--matrix")
    add_common(p)
    for name in ("frobenius", "verschiebung"):
        p = endo_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--matrix")
        add_common(p)
    p = endo_sub.add_parser("delta")
    p.add_argument("--plus")
    p.add_argument("--minus")
    add_common(p)
    p = endo_sub.add_parser("phimu")
    p.add_argument("--rational")
    add_common(p)

    euler_p = sub.add_parser("euler", help="Euler characteristics")
    euler_sub = euler_p.add_subparsers(dest="action", required=True)
    p = euler_sub.add_parser("spectral")
    p.add_argument("--matrix")
    add_common(p)

    eq_p = sub.add_parser("equivariant", help="finite cyclic-action model")
    eq_sub = eq_p.add_subparsers(dest="action", required=True)
    for name in ("sigma", "rho"):
        p = eq_sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--action", dest="action_payload")
        add_common(p)
    p = eq_sub.add_parser("periodic")
    p.add_argument("--action", dest="action_payload")
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p = eq_sub.add_parser("euler")
    p.add_argument("--action", dest="action_payload")
    add_common(p)
    p = eq_sub.add_parser("check")
    p.add_argument("--action", dest="action_payload")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=24)
    add_common(p)

    return parser


_RUNNERS = {
    "qz": _run_qz,
    "witt": _run_witt,
    "class": _run_class,
    "zeta": _run_zeta,
    "endo": _run_endo,
    "euler": _run_euler,
    "equivariant": _run_equivariant,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    inputs: dict = {}
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            inputs = json.load(fh)
        if not isinstance(inputs, dict):
            raise UsageError("--input file must contain a JSON object")
    return _RUNNERS[args.command](args, inputs)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except UsageError as exc:
        print(f"bcwitt: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        print(f"bcwitt: invalid input: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": exc.detail}},
                         separators=(",", ":")))
        return 1


if __name__ == "__main__":
    sys.exit(main())
