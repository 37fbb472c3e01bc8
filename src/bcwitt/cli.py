"""Command-line surface: every module behind JSON-in/JSON-out subcommands.

Output is deterministic: payloads are built in canonical field order and
printed compactly, numbers that can exceed native precision travel as
strings, and domain failures exit 1 with ``{"error": {"kind", "detail"}}``
on stdout.  Malformed invocations and payloads exit 2 with a message on
stderr, matching argparse's own convention.  Exact numbers have one parser
and one printer, ``errors._number`` and ``errors._numstr``, used by every
library ``from_json``/``to_json`` and the helpers here: a payload number is
a JSON integer or a string ``-?digits(/digits)?``, and an output number
past bcwitt's digit limit (``errors._MAX_STR_DIGITS``, set by ``main``) is
the domain failure LimitExceeded (at the final ``json.dumps`` for an int).

Every subcommand is declared once, in ``COMMANDS``: its plain flags, its
JSON payload flags and its handler.  Any payload flag accepts ``@FILE`` to
read its JSON from a file, and ``--input FILE`` supplies missing payload
flags from a single JSON object keyed by flag name.  ``--trunc`` defaults
to 12.  argv is the only input: no environment variable changes an output.
A MemoryError ends as the domain failure OutOfMemory, so every call ends in
one of the three ways above, never in a traceback.

Handlers reach the library through the package (``lib``), whose lazy name
table ``bcwitt._EXPORTS`` loads each module on first use, and only the
invoked group's subcommand parsers are built, so one call loads and builds
only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys

import bcwitt as lib
from .errors import DomainError, OutOfMemory, _integer, _numstr, _too_long


class UsageError(Exception):
    pass


def _decode(text: str, source: str) -> dict | list:
    """Parse JSON whose numbers are all integers: floats and booleans are rejected."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON for {source}: {exc}")
    except RecursionError:
        raise UsageError(f"JSON for {source} is nested too deeply")
    for x in _leaves(data):
        if isinstance(x, (bool, float)):
            raise UsageError(f"{source} holds {json.dumps(x)}; "
                             "numbers must be JSON integers or strings")
    return data


def _leaves(data):
    """The values in a JSON tree that are neither objects nor lists."""
    stack = [data]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        else:
            yield x


def _load_payload(raw: str | None, name: str, inputs: dict) -> dict | list:
    if raw is None:
        if name in inputs:
            return inputs[name]
        raise UsageError(f"missing payload --{name}")
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    return _decode(raw, f"--{name}")


def _ghost_json(g) -> list:
    poly = lib.Polynomial
    return [[int(c) for c in v.coeffs] if isinstance(v, poly) else _numstr(v) for v in g.values]


def _series_out(ghosts) -> dict:
    # The ghost field prints first and is built first: past the digit limit, no unghost runs.
    return {"ghost": _ghost_json(ghosts), "series": lib.unghost(ghosts).to_json()["coeffs"]}


def _q(text: str):
    """--q: the int of a digit string, else the text, for zeta to accept or reject."""
    return int(text) if text.isascii() and text.isdigit() else text


def _parse_class(data: dict):
    if "T" in data:
        return lib.TorifiedClass.from_json(data)
    if "L" in data:
        return lib.l_to_t(lib.LClass.from_json(data))
    raise UsageError("a class payload needs a 'T' or 'L' key")


def _plain_action(args, data: dict):
    if "total" in data:
        raise UsageError(f"equivariant {args.subcommand} expects a plain action payload")
    return lib.CyclicAction.from_json(data)


# ---------------------------------------------------------------- handlers
# Library names are strings resolved when a handler runs, so building the
# table below loads no module.

def _apply(fn: str, parse: str):
    """Handler for lib.<fn> on the payloads, each read by lib.<parse>.from_json."""
    return lambda args, *data: getattr(lib, fn)(
        *map(getattr(lib, parse).from_json, data)).to_json()


def _by_n(fn: str, parse: str):
    """Handler for lib.<fn>(--n, payload), the payload read by lib.<parse>.from_json."""
    return lambda args, data: getattr(lib, fn)(
        args.n, getattr(lib, parse).from_json(data)).to_json()


def _equivariant_by_n(plain: str, relative: str):
    """Handler for --n maps on a plain action, or on a relative object ('total'
    key) by the equivariant module's own ``relative`` map."""
    def handler(args, data: dict) -> dict:
        if "total" in data:
            return getattr(lib.equivariant, relative)(
                args.n, lib.RelativeObject.from_json(data)).to_json()
        return getattr(lib, plain)(args.n, lib.CyclicAction.from_json(data)).to_json()
    return handler


def _qz_mul(args, a: dict, b: dict) -> dict:
    return (lib.QZElement.from_json(a) * lib.QZElement.from_json(b)).to_json()


def _qz_split(args, elem: dict) -> dict:
    elem = lib.QZElement.from_json(elem)
    try:
        primes = [int(p) for p in args.primes.split(",") if p]
    except ValueError:
        raise UsageError(f"--primes must be a comma list of primes, not {args.primes!r}")
    return lib.split(primes, elem).to_json()


def _witt_ghost(args, w: dict) -> dict:
    g = lib.ghost(lib.WittVector.from_json(w))
    return {"trunc": g.trunc, "ghost": _ghost_json(g)}


def _class_convert(args, data: dict) -> dict:
    cls = _parse_class(data)
    return (lib.t_to_l(cls) if "T" in data else cls).to_json()


def _class_points(args, cls: dict) -> dict:
    return {"count": _numstr(lib.f1m_points(_parse_class(cls), args.m))}


def _class_bb(args, data: list) -> dict:
    return lib.bb_assemble([(_parse_class(p["class"]), _integer(p["d"])) for p in data]).to_json()


def _class_virtual(args, cls: dict) -> dict:
    return lib.virtual_motive(lib.LClass.from_json(cls), args.dim).to_json()


def _zeta_f1(args, cls: dict) -> dict:
    z = lib.f1_zeta(_parse_class(cls), args.trunc)
    return {"ghost": _ghost_json(z.ghost), "series": z.witt.to_json()["coeffs"]}


def _zeta_hw(args, cls: dict) -> dict:
    z = lib.hw_zeta(_parse_class(cls), _q(args.q), args.trunc)
    out = {"ghost": _ghost_json(z.ghost)}
    if z.rational is not None:
        out["series"] = z.rational.expand(args.trunc).to_json()["coeffs"]
        out["rational"] = z.rational.to_json()
    return out


def _zeta_lefschetz(args, matrix: dict) -> dict:
    f = lib.ToralMap.from_json(matrix)
    if args.closed:
        return lib.lefschetz_zeta_closed(f).to_json()
    return _series_out(lib.zeta_ghosts(f, args.trunc))


def _zeta_artin_mazur(args, matrix: dict) -> dict:
    return _series_out(lib.zeta_ghosts(lib.ToralMap.from_json(matrix), args.trunc, "artin_mazur"))


def _zeta_quotient_check(args) -> dict:
    return {"ghost": _ghost_json(lib.hw_quotient_check(args.k, _q(args.q), args.trunc))}


def _endo_delta(args, plus: dict, minus: dict) -> dict:
    return lib.delta(lib.GradedEndoObject(lib.EndoObject.from_json(plus),
                                          lib.EndoObject.from_json(minus))).to_json()


def _endo_phimu(args, rational: dict) -> dict:
    g = lib.phi_mu(lib.RationalWitt.from_json(rational))
    return {"plus": g.plus.to_json(), "minus": g.minus.to_json()}


def _equivariant_periodic(args, action: dict) -> dict:
    return {"points": sorted(lib.periodic_points(_plain_action(args, action), args.k))}


def _equivariant_euler(args, action: dict) -> dict:
    return lib.euler_char(_plain_action(args, action)).to_json()


def _equivariant_check(args, data: dict) -> dict:
    return lib.equivariant.check_relations(args.n, _plain_action(args, data), args.kmax)


# Plain (non-payload) flags by name; "a|b" in a subcommand's flags makes a
# mutually exclusive pair.  --series selects the default and is kept so
# that explicit calls stay valid.
_FLAGS = {
    **dict.fromkeys(("n", "m", "k", "dim"), {"type": int, "required": True}),
    "kmax": {"type": int, "default": 24},
    "trunc": {"type": int, "default": 12},
    "primes": {"required": True, "help": "comma-separated primes, e.g. 2,3"},
    "q": {"required": True, "help": "integer >= 2, or 'q' for symbolic"},
    **dict.fromkeys(("closed", "series"), {"action": "store_true"}),
}

# group -> (help, subcommand -> (plain flags, payload flags, handler)).  A
# handler takes the parsed args and the decoded payloads in declared order
# and returns the JSON object to print.
COMMANDS = {
    "qz": ("group ring of Q/Z", {
        "sigma": (("n",), ("elem",), _by_n("sigma", "QZElement")),
        "rho": (("n",), ("elem",), _by_n("rho", "QZElement")),
        "mul": ((), ("a", "b"), _qz_mul),
        "split": (("primes",), ("elem",), _qz_split),
    }),
    "witt": ("big Witt vectors", {
        "add": ((), ("a", "b"), _apply("witt_add", "WittVector")),
        "mul": ((), ("a", "b"), _apply("witt_mul", "WittVector")),
        "frobenius": (("n",), ("witt",), _by_n("frobenius", "WittVector")),
        "verschiebung": (("n",), ("witt",), _by_n("verschiebung", "WittVector")),
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
        "lmap": ((), ("matrix",), _apply("l_map", "EndoObject")),
        "frobenius": (("n",), ("matrix",), _by_n("endo_frobenius", "EndoObject")),
        "verschiebung": (("n",), ("matrix",), _by_n("endo_verschiebung", "EndoObject")),
        "delta": ((), ("plus", "minus"), _endo_delta),
        "phimu": ((), ("rational",), _endo_phimu),
    }),
    "euler": ("Euler characteristics", {
        "spectral": ((), ("matrix",), _apply("spectral_euler", "ToralMap")),
    }),
    "equivariant": ("finite cyclic-action model", {
        "sigma": (("n",), ("action",), _equivariant_by_n("sigma_action", "bc_sigma")),
        "rho": (("n",), ("action",), _equivariant_by_n("verschiebung_action", "bc_rho")),
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
    _, payloads, handler = COMMANDS[args.command][1][args.subcommand]
    inputs: dict = {}
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            inputs = _decode(fh.read(), "--input")
        if not isinstance(inputs, dict):
            raise UsageError("--input file must contain a JSON object")
    data = [_load_payload(getattr(args, name), name, inputs) for name in payloads]
    out = handler(args, *data)
    try:
        text = json.dumps(out, separators=(",", ":"))
    except ValueError:
        raise _too_long(x for x in _leaves(out) if type(x) is int) from None
    print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(lib.errors._MAX_STR_DIGITS)
        return run(argv)
    except UsageError as exc:
        print(f"bcwitt: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError, KeyError, TypeError, AttributeError) as exc:
        print(f"bcwitt: invalid input: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = OutOfMemory("the call ran out of memory")
        print(json.dumps({"error": {"kind": exc.kind, "detail": exc.detail}},
                         separators=(",", ":")))
        return 1
    finally:
        sys.set_int_max_str_digits(old)


if __name__ == "__main__":
    sys.exit(main())
