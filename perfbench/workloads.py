"""The three benchmark workloads: their fixed op shapes, seeded inputs and
in-process executors, and the canonical digest of an operation's output.

A workload is a fixed list of op *shapes*: the kind of operation and its
sizes (truncation, matrix dimension, coefficient field).  Each shape has
``VARIANTS`` concrete inputs, generated from a string seed that names the
shape and the variant, so they are the same on every machine and Python
3.x.  A run's ``--seed`` picks one variant per shape and the order of the
shapes; it never changes the sizes.  That keeps the work per round the same
from seed to seed, and it keeps every input a run can meet inside the
golden record, which holds one output digest per (shape, variant).

Inputs are built from plain integers and Fractions here, with a cyclotomic
generator of the benchmark's own, so a change to the library can change
outputs but never the inputs it is given.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable

VARIANTS = 8
WORKLOADS = ("witt-ghost", "toral-spectral", "cli-mix")


@dataclass
class Op:
    """One slot of a workload round: a shape with the variant the seed chose."""

    key: str                 # "<shape id>/<variant>", the golden-record key
    kind: str
    props: dict              # input properties for the run record
    data: Any                # plain generated input (hashed into the input digest)
    run: Callable[[], Any] | None = None   # in-process executor, bound in bind()


# ------------------------------------------------------------ plain helpers

def _totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def _cyclo(m: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the m-th cyclotomic polynomial."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _exact_div(num, list(_cyclo(d)))
    return tuple(num)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]     # den is monic
        q[k] = c
        for j, b in enumerate(den):
            num[k + j] -= c * b
    return q


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _companion(p: list[int]) -> list[list[int]]:
    """Companion matrix of the monic ascending polynomial p."""
    d = len(p) - 1
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p[i]
    return rows


def _block_sum(blocks: list[list[list[int]]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[off + i][off:off + len(row)] = row
        off += len(b)
    return rows


def _cyclotomic_indices(rng: random.Random, dim: int, max_index: int = 60) -> list[int]:
    """A random multiset of indices m <= max_index whose totients sum to dim."""
    out, left = [], dim
    while left:
        cands = [m for m in range(1, max_index + 1) if _totient(m) <= left]
        m = rng.choice(cands)
        out.append(m)
        left -= _totient(m)
    return sorted(out)


def _qu_matrix(rng: random.Random, dim: int, structure: str) -> tuple[list[list[int]], list[int]]:
    """A quasi-unipotent integer matrix: one companion of a product of
    cyclotomics, or a block sum of the factors' companions."""
    idx = _cyclotomic_indices(rng, dim)
    if structure == "companion":
        p = [1]
        for m in idx:
            p = _poly_mul(p, list(_cyclo(m)))
        return _companion(p), idx
    return _block_sum([_companion(list(_cyclo(m))) for m in idx]), idx


def _random_matrix(rng: random.Random, dim: int, lo: int = -3, hi: int = 3) -> list[list[int]]:
    return [[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)]


def _coeffs(fixed: random.Random, rng: random.Random, count: int, rational: bool) -> list:
    """Integers in [-9, 9], or rationals whose denominators in [1, 9] are
    fixed by the shape (the denominators set how fast rationals grow)."""
    if not rational:
        return [rng.randint(-9, 9) for _ in range(count)]
    return [Fraction(rng.randint(-9, 9), fixed.randint(1, 9)) for _ in range(count)]


def _torified(rng: random.Random, degree: int) -> list[int]:
    """Coefficients in [1, 5]: a zero would skip a term and change the cost."""
    return [rng.randint(1, 5) for _ in range(degree + 1)]


# ------------------------------------------------------------------ shapes

def shapes(workload: str) -> list[tuple[str, str, dict]]:
    """The fixed round of a workload: (shape id, kind, size parameters)."""
    out: list[tuple[str, str, dict]] = []
    if workload == "witt-ghost":
        # One Witt-vector input in three is rational; one op in eight runs
        # at truncation 120, the rest at 36.
        for kind in ("add", "sub", "mul", "scale", "frobenius", "verschiebung", "roundtrip"):
            for t, trunc in enumerate((36,) * 7 + (120,)):
                for field_ in ("int", "int", "rat"):
                    out.append((f"{kind}.{trunc}.{field_}.{t}.{len(out)}", kind,
                                {"trunc": trunc, "rational": field_ == "rat"}))
        for kind in ("f1_zeta", "hw_zeta_int", "hw_zeta_sym", "l_map_ghosts"):
            for t, trunc in enumerate((36,) * 7 + (120,)):
                rational = kind == "l_map_ghosts" and t % 3 == 2
                out.append((f"{kind}.{trunc}.{t}", kind,
                            {"trunc": trunc, "rational": rational, "d": 1 + t % 3}))
    elif workload == "toral-spectral":
        # Each kind appears a few times, so a 30 s run repeats every op about
        # twenty times and the least of its repeats is steady on a shared
        # machine; no single op costs more than a few per cent of a round.
        for k, dim in enumerate((8, 12, 16, 20, 24)):
            for structure in ("companion", "block"):
                out.append(("closed", "closed", {"dim": dim, "structure": structure}))
            for _ in range(2 if dim <= 12 else 1):
                out.append(("closed_nqu", "closed_nqu", {"dim": dim}))
            n, structure = 2 + k % 2, ("companion", "block")[k % 2]
            out.append(("spectral_pow", "spectral_pow", {"dim": dim, "n": n, "structure": structure}))
            out.append(("l_map_sum", "l_map_sum", {"dim": dim, "structure": structure}))
            out.append(("euler_ver", "euler_ver", {"dim": dim, "n": n}))
        for dim in (8, 12):
            for trunc in (24, 36, 48):
                # Companion powers grow faster than block sums; give each
                # series both structures across the truncations.
                lef, am = ("block", "companion") if trunc == 36 else ("companion", "block")
                for kind, structure in (("lefschetz_series", lef), ("artin_mazur_series", am)):
                    out.append((kind, kind, {"dim": dim, "trunc": trunc, "structure": structure}))
        for dim, n in ((8, 2), (8, 3), (12, 2)):
            out.append(("spectral_ver", "spectral_ver", {"dim": dim, "n": n}))
        for a, b in ((2, 4), (3, 3), (4, 4), (3, 4), (2, 3)):
            out.append(("l_map_tensor", "l_map_tensor", {"dims": [a, b]}))
        out.append(("euler_ver", "euler_ver", {"dim": 24, "n": 5}))
        out = [(f"{sid}.{i}", kind, p) for i, (sid, kind, p) in enumerate(out)]
    elif workload == "cli-mix":
        out = [(f"{name}.{i}", "cli", {"call": name}) for i, name in enumerate(CLI_SCRIPT)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


# Each entry is one call of the fixed cli-mix script; the generator below
# fills in its payloads.  "!1" marks a call expected to exit 1 with a
# domain-error JSON, "!2" one expected to exit 2 with a usage message, and
# "^" a matrix whose charpoly has a high-index cyclotomic factor.
CLI_SCRIPT = (
    "qz sigma", "qz rho", "qz mul", "qz split", "qz split !2", "qz sigma !2",
    "witt add", "witt mul", "witt frobenius", "witt verschiebung", "witt ghost",
    "witt frobenius !1",
    "class convert T", "class convert L", "class points", "class bb", "class virtual",
    "class convert !1",
    "zeta f1", "zeta hw", "zeta hw symbolic", "zeta lefschetz closed ^",
    "zeta lefschetz series", "zeta artin-mazur", "zeta quotient-check",
    "zeta artin-mazur !1", "zeta lefschetz closed !1", "zeta lefschetz closed ^",
    "endo lmap", "endo frobenius", "endo verschiebung", "endo delta", "endo phimu",
    "endo phimu !1",
    "euler spectral", "euler spectral ^", "euler spectral !1", "euler spectral ^",
    "equivariant sigma", "equivariant rho", "equivariant periodic", "equivariant euler",
    "equivariant check", "equivariant periodic !2", "equivariant sigma relative",
    "witt !2", "qz sigma missing-n !2", "frobnicate !2",
)


# --------------------------------------------------------- input generation

def make_input(workload: str, sid: str, kind: str, params: dict, variant: int):
    """Plain input data and its properties for one (shape, variant).

    Whatever sets an op's cost (the Frobenius index, a class's degree, a
    matrix's cyclotomic indices, a CLI call's truncation) is drawn from the
    shape's own seed and shared by its variants; the variant seed draws
    only the values (coefficients, entries, a basis permutation).  So the
    seed changes the inputs but hardly the work in a round."""
    fixed = random.Random(f"bcwitt-bench:{workload}:{sid}")
    rng = random.Random(f"bcwitt-bench:{workload}:{sid}:{variant}")
    if workload == "witt-ghost":
        return _witt_input(fixed, rng, kind, params)
    if workload == "toral-spectral":
        return _toral_input(fixed, rng, kind, params)
    return _cli_input(fixed, rng, params["call"])


def _witt_input(fixed, rng, kind, p):
    trunc, rational = p["trunc"], p["rational"]
    props = {"trunc": trunc, "rational": rational}

    def vec():
        return _coeffs(fixed, rng, trunc, rational)

    if kind in ("add", "sub", "mul"):
        return {"a": vec(), "b": vec()}, props
    if kind == "scale":
        return {"n": fixed.randint(2, 9), "w": vec()}, props
    if kind == "frobenius":
        return {"n": fixed.randint(2, 5), "w": vec()}, props
    if kind == "verschiebung":
        return {"n": fixed.randint(2, 4), "w": vec()}, props
    if kind == "roundtrip":
        return {"w": vec()}, props
    cls = _torified(rng, fixed.randint(1, 4))
    if kind in ("f1_zeta", "hw_zeta_sym"):
        return {"class": cls}, props
    if kind == "hw_zeta_int":
        return {"class": cls, "q": fixed.choice((2, 3, 4, 5, 7, 8, 9))}, props
    if kind == "l_map_ghosts":
        d = p["d"]
        flat = _coeffs(fixed, rng, d * d, rational) if rational else [
            rng.randint(-3, 3) for _ in range(d * d)]
        rows = [flat[i * d:(i + 1) * d] for i in range(d)]
        return {"rows": rows}, dict(props, d=d)
    raise ValueError(kind)


def _permuted(rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    """P M P^-1 for a random permutation matrix P: same charpoly and sparsity."""
    p = list(range(len(rows)))
    rng.shuffle(p)
    return [[rows[p[i]][p[j]] for j in range(len(p))] for i in range(len(p))]


def _toral_input(fixed, rng, kind, p):
    if kind == "closed_nqu":
        return {"rows": _random_matrix(rng, p["dim"])}, {"dim": p["dim"], "qu": False}
    if kind in ("l_map_sum", "l_map_tensor"):
        if kind == "l_map_tensor":
            (a_dim, b_dim), dim = p["dims"], p["dims"][0] * p["dims"][1]
        else:
            a_dim = fixed.randint(2, p["dim"] - 2)
            b_dim, dim = p["dim"] - a_dim, p["dim"]
        a, ia = _qu_matrix(fixed, a_dim, p.get("structure", "block"))
        b, ib = _qu_matrix(fixed, b_dim, "companion")
        return ({"a": _permuted(a, rng), "b": _permuted(b, rng)},
                {"dim": dim, "qu": True, "indices": ia + ib})
    rows, idx = _qu_matrix(fixed, p["dim"], p.get("structure", "block"))
    props = {"dim": p["dim"], "qu": True, "indices": idx}
    data = {"rows": _permuted(rows, rng)}
    if kind in ("lefschetz_series", "artin_mazur_series"):
        data["trunc"] = p["trunc"]
        props["trunc"] = p["trunc"]
    if kind in ("spectral_pow", "spectral_ver", "euler_ver"):
        data["n"] = p["n"]
    if kind == "spectral_ver":
        props["dim"] = p["dim"] * p["n"]
    if kind == "euler_ver":
        data["cycles"] = idx
        data["perm"] = _cycle_perm(rng, idx)
    return data, props


def _qz_elem(rng) -> dict:
    terms = []
    for _ in range(rng.randint(1, 4)):
        den = rng.randint(1, 12)
        terms.append({"r": str(Fraction(rng.randrange(den), den)),
                      "c": rng.choice((-3, -2, -1, 1, 2, 3, 4, 5))})
    return {"terms": terms}


def _witt_json(rng, trunc: int) -> dict:
    return {"trunc": trunc,
            "coeffs": [str(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))) for _ in range(trunc)]}


def _cycle_perm(rng, sizes: list[int]) -> list[int]:
    """A permutation of 0..sum(sizes)-1 with the given cycle lengths."""
    points = list(range(sum(sizes)))
    rng.shuffle(points)
    perm = [0] * len(points)
    off = 0
    for s in sizes:
        cyc = points[off:off + s]
        for i, x in enumerate(cyc):
            perm[x] = cyc[(i + 1) % s]
        off += s
    return perm


def _action_json(fixed, rng) -> dict:
    sizes = [fixed.randint(1, 6) for _ in range(fixed.randint(2, 5))]
    return {"level": math.lcm(*sizes), "perm": _cycle_perm(rng, sizes)}


def _endo_json(rng, d: int) -> dict:
    return {"matrix": [str(rng.randint(-3, 3)) for _ in range(d * d)]}


def _split_rational(rng) -> dict:
    def side(k):
        p = [1]
        for _ in range(k):
            p = _poly_mul(p, [1, -rng.choice((-3, -2, -1, 2, 3, 4))])
        return p
    return {"num": side(rng.randint(1, 3)), "den": side(rng.randint(1, 3))}


_HIGH_INDEX = (60, 84, 90, 120)


def _cli_input(fixed, rng, call: str):
    """argv for one cli-mix call; props carry the call and expected exit code."""
    def j(x) -> str:
        return json.dumps(x, separators=(",", ":"))

    expect = 2 if "!2" in call else 1 if "!1" in call else 0
    props: dict = {"call": call, "expect_exit": expect}
    n = fixed.randint(2, 5)
    trunc = fixed.randint(6, 12)
    deg = fixed.randint(1, 4)
    if call == "qz sigma":
        argv = ["qz", "sigma", "--n", str(n), "--elem", j(_qz_elem(rng))]
    elif call == "qz rho":
        argv = ["qz", "rho", "--n", str(n), "--elem", j(_qz_elem(rng))]
    elif call == "qz mul":
        argv = ["qz", "mul", "--a", j(_qz_elem(rng)), "--b", j(_qz_elem(rng))]
    elif call == "qz split":
        argv = ["qz", "split", "--primes", rng.choice(("2", "3", "2,3", "3,5", "2,5,7")),
                "--elem", j(_qz_elem(rng))]
    elif call == "qz split !2":
        argv = ["qz", "split", "--primes", rng.choice(("4", "2,6", "9", "1")), "--elem", j(_qz_elem(rng))]
    elif call == "qz sigma !2":
        argv = ["qz", "sigma", "--n", str(n), "--elem", j(_qz_elem(rng))[:-rng.randint(1, 5)]]
    elif call in ("witt add", "witt mul"):
        argv = ["witt", call.split()[1], "--a", j(_witt_json(rng, trunc)), "--b", j(_witt_json(rng, trunc))]
    elif call in ("witt frobenius", "witt verschiebung"):
        argv = ["witt", call.split()[1], "--n", str(rng.randint(2, 3)), "--witt", j(_witt_json(rng, trunc))]
    elif call == "witt ghost":
        argv = ["witt", "ghost", "--witt", j(_witt_json(rng, trunc))]
    elif call == "witt frobenius !1":
        argv = ["witt", "frobenius", "--n", str(trunc + rng.randint(1, 4)), "--witt", j(_witt_json(rng, trunc))]
    elif call == "class convert T":
        argv = ["class", "convert", "--class", j({"T": _torified(rng, deg)})]
    elif call == "class convert L":
        argv = ["class", "convert", "--class",
                j({"L": {str(k): rng.randint(1, 4) for k in range(rng.randint(1, 5))}})]
    elif call == "class points":
        argv = ["class", "points", "--class", j({"T": _torified(rng, deg)}), "--m", str(rng.randint(2, 9))]
    elif call == "class bb":
        pieces = [{"class": {"T": _torified(rng, deg)}, "d": rng.randint(0, 3)} for _ in range(rng.randint(1, 3))]
        argv = ["class", "bb", "--pieces", j(pieces)]
    elif call == "class virtual":
        argv = ["class", "virtual", "--class", j({"L": {str(k): rng.randint(1, 4) for k in range(3)}}),
                "--dim", str(rng.randint(1, 3))]
    elif call == "class convert !1":
        argv = ["class", "convert", "--class", j({"L": {"0": 0, str(rng.randint(1, 3)): -rng.randint(1, 3)}})]
    elif call == "zeta f1":
        argv = ["zeta", "f1", "--class", j({"T": _torified(rng, deg)}), "--trunc", str(fixed.randint(8, 16))]
    elif call == "zeta hw":
        argv = ["zeta", "hw", "--class", j({"T": _torified(rng, deg)}), "--q", str(rng.randint(2, 5)),
                "--trunc", str(trunc)]
    elif call == "zeta hw symbolic":
        argv = ["zeta", "hw", "--class", j({"T": _torified(rng, deg)}), "--q", "q", "--trunc", str(trunc)]
    elif call in ("zeta lefschetz closed ^", "euler spectral ^"):
        m = fixed.choice(_HIGH_INDEX)
        rows = _permuted(_companion(list(_cyclo(m))), rng)
        props["max_index"] = m
        argv = call.split()[:2] + ["--matrix", j({"rows": rows})]
        if call.startswith("zeta"):
            argv.append("--closed")
    elif call == "zeta lefschetz series":
        rows, _ = _qu_matrix(fixed, fixed.randint(2, 4), "companion")
        argv = ["zeta", "lefschetz", "--matrix", j({"rows": _permuted(rows, rng)}), "--series", "--trunc", str(trunc)]
    elif call == "zeta artin-mazur":
        a = rng.randint(2, 4)
        argv = ["zeta", "artin-mazur", "--matrix", j({"rows": [[a, 1], [a - 1, 1]]}), "--trunc", str(trunc)]
    elif call == "zeta quotient-check":
        argv = ["zeta", "quotient-check", "--k", str(fixed.randint(1, 3)),
                "--q", fixed.choice(("2", "3", "5", "q")), "--trunc", str(trunc)]
    elif call == "zeta artin-mazur !1":
        rows = rng.choice(([[1]], [[0, -1], [1, 0]], [[1, 1], [0, 1]], [[-1]]))
        argv = ["zeta", "artin-mazur", "--matrix", j({"rows": rows}), "--trunc", str(trunc)]
    elif call in ("zeta lefschetz closed !1", "euler spectral !1"):
        rows = [[rng.randint(2, 3), 1, 0], [1, 1, 1], [0, 1, rng.randint(2, 3)]]
        argv = call.split()[:2] + ["--matrix", j({"rows": rows})]
        if call.startswith("zeta"):
            argv.append("--closed")
    elif call == "endo lmap":
        argv = ["endo", "lmap", "--matrix", j(_endo_json(rng, rng.randint(2, 3)))]
    elif call in ("endo frobenius", "endo verschiebung"):
        argv = ["endo", call.split()[1], "--n", str(rng.randint(2, 3)),
                "--matrix", j(_endo_json(rng, 2))]
    elif call == "endo delta":
        argv = ["endo", "delta", "--plus", j(_endo_json(rng, 2)), "--minus", j(_endo_json(rng, 2))]
    elif call == "endo phimu":
        argv = ["endo", "phimu", "--rational", j(_split_rational(rng))]
    elif call == "endo phimu !1":
        argv = ["endo", "phimu", "--rational", j({"num": [1, 0, rng.randint(1, 5)], "den": [1]})]
    elif call == "euler spectral":
        rows, idx = _qu_matrix(fixed, fixed.randint(6, 12), "block")
        props["max_index"] = max(idx)
        argv = ["euler", "spectral", "--matrix", j({"rows": _permuted(rows, rng)})]
    elif call in ("equivariant sigma", "equivariant rho"):
        argv = ["equivariant", call.split()[1], "--n", str(n), "--action", j(_action_json(fixed, rng))]
    elif call == "equivariant periodic":
        argv = ["equivariant", "periodic", "--action", j(_action_json(fixed, rng)), "--k", str(rng.randint(1, 6))]
    elif call == "equivariant euler":
        argv = ["equivariant", "euler", "--action", j(_action_json(fixed, rng))]
    elif call == "equivariant check":
        argv = ["equivariant", "check", "--action", j(_action_json(fixed, rng)), "--n", str(fixed.randint(2, 3)),
                "--kmax", str(fixed.randint(6, 12))]
    elif call in ("equivariant periodic !2", "equivariant sigma relative"):
        act = _action_json(fixed, rng)
        rel = {"total": act, "base": act, "map": list(range(len(act["perm"])))}
        argv = ["equivariant", call.split()[1], "--action", j(rel)]
        argv += ["--k", "2"] if "periodic" in call else ["--n", str(n)]
    elif call == "witt !2":
        argv = ["witt"]
    elif call == "qz sigma missing-n !2":
        argv = ["qz", "sigma", "--elem", j(_qz_elem(rng))]
    elif call == "frobnicate !2":
        argv = [rng.choice(("frobnicate", "ghost", "zeta-hw"))]
    else:
        raise ValueError(call)
    return {"argv": argv}, props


def input_digest(data) -> str:
    return _digest(json.dumps(data, default=str, separators=(",", ":"), sort_keys=True).encode())


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:20]


# --------------------------------------------------------------- executors

def bind(workload: str, op: Op, lib) -> None:
    """Build the library objects for op (set-up work) and attach its executor.

    ``lib`` is the imported ``bcwitt`` package.  Executors look functions
    up through module attributes at call time, so the span shims in
    ``tracing.py`` see every call.
    """
    d, kind = op.data, op.kind
    if workload == "cli-mix":
        return              # run as a subprocess or through cli.main, from d["argv"]
    witt, zeta, endo, dyn, linalg, qz, eq = (lib.witt, lib.zeta, lib.endo, lib.dynamical,
                                             lib.linalg, lib.qz, lib.equivariant)
    if workload == "witt-ghost":
        W = witt.WittVector.from_coeffs
        if kind in ("add", "sub", "mul"):
            a, b = W(d["a"]), W(d["b"])
            fn = {"add": "witt_add", "sub": "witt_sub", "mul": "witt_mul"}[kind]
            op.run = lambda: getattr(witt, fn)(a, b)
        elif kind in ("scale", "frobenius", "verschiebung"):
            n, w = d["n"], W(d["w"])
            fn = {"scale": "witt_scale", "frobenius": "frobenius", "verschiebung": "verschiebung"}[kind]
            op.run = lambda: getattr(witt, fn)(n, w)
        elif kind == "roundtrip":
            w = W(d["w"])
            op.run = lambda: witt.unghost(witt.ghost(w))
        else:
            trunc = op.props["trunc"]
            if kind == "l_map_ghosts":
                e = endo.EndoObject.of(d["rows"])
                op.run = lambda: endo.l_map(e).ghosts(trunc)
                return
            c = lib.torified.TorifiedClass.of(d["class"])
            if kind == "f1_zeta":
                op.run = lambda: _fields(zeta.f1_zeta(c, trunc), "ghost", "witt")
            elif kind == "hw_zeta_int":
                q = d["q"]
                op.run = lambda: _fields(zeta.hw_zeta(c, q, trunc), "ghost", "rational")
            else:
                op.run = lambda: _fields(zeta.hw_zeta(c, "q", trunc), "ghost")
        return
    # toral-spectral
    if kind in ("l_map_sum", "l_map_tensor"):
        a, b = endo.EndoObject.of(d["a"]), endo.EndoObject.of(d["b"])
        comb = "direct_sum" if kind == "l_map_sum" else "tensor"
        op.run = lambda: endo.l_map(getattr(endo, comb)(a, b))
        return
    f = dyn.ToralMap.of(d["rows"])
    if kind in ("closed", "closed_nqu"):
        op.run = lambda: dyn.lefschetz_zeta_closed(f)
    elif kind in ("lefschetz_series", "artin_mazur_series"):
        trunc = d["trunc"]
        fn = "lefschetz_zeta_series" if kind == "lefschetz_series" else kind
        op.run = lambda: getattr(dyn, fn)(f, trunc)
    elif kind == "spectral_pow":
        n = d["n"]
        op.run = lambda: (dyn.spectral_euler(linalg.mat_pow(f.matrix, n)),
                          qz.sigma(n, dyn.spectral_euler(f)))
    elif kind == "spectral_ver":
        n = d["n"]
        op.run = lambda: (dyn.spectral_euler(dyn.verschiebung_block(n, f)),
                          qz.rho(n, dyn.spectral_euler(f)))
    elif kind == "euler_ver":
        n = d["n"]
        a = eq.CyclicAction.of(math.lcm(*d["cycles"]), d["perm"])
        op.run = lambda: (eq.euler_char(eq.verschiebung_action(n, a)),
                          qz.rho(n, eq.euler_char(a)))
    else:
        raise ValueError(kind)


def _fields(obj, *names):
    return tuple(getattr(obj, n) for n in names)


# ------------------------------------------------------- canonical output

class Canon:
    """Canonical JSON text of a library result, and the largest numerator or
    denominator bit-length met while writing it."""

    def __init__(self):
        self.max_bits = 0

    def digest(self, result) -> str:
        return _digest(json.dumps(self.encode(result), separators=(",", ":")).encode())

    def _num(self, x) -> str:
        if isinstance(x, Fraction):
            self.max_bits = max(self.max_bits, abs(x.numerator).bit_length(),
                                x.denominator.bit_length())
        else:
            self.max_bits = max(self.max_bits, abs(x).bit_length())
        return str(x)

    def encode(self, x):
        if isinstance(x, bool):
            return x
        if isinstance(x, (int, Fraction)):
            return self._num(x)
        if isinstance(x, (tuple, list)):
            return [self.encode(v) for v in x]
        if isinstance(x, dict):
            return {k: self.encode(v) for k, v in x.items()}
        if isinstance(x, str) or x is None:
            return x
        name = type(x).__name__
        if name == "Polynomial":
            return {"P": [self._num(c) for c in x.coeffs]}
        if name == "WittVector":
            return {"W": [self._num(c) for c in x.coeffs]}
        if name == "GhostVector":
            return {"G": [self.encode(v) for v in x.values]}
        if name == "RationalWitt":
            return {"R": [self.encode(x.num), self.encode(x.den)]}
        if name == "QZElement":
            return {"Q": [[str(r), self._num(c)] for r, c in x.terms]}
        if name == "LefschetzZeta":
            return {"L": [[self._num(d), self._num(s)] for d, s in x.exponents]}
        raise TypeError(f"no canonical form for {name}")


def error_result(exc) -> dict:
    """Canonical stand-in for a domain error an op raised by design."""
    return {"error": exc.kind, "detail": exc.detail}


def cli_digest(code: int, stdout: bytes) -> str:
    return _digest(b"%d\n" % code + stdout)


def cli_max_bits(stdout: bytes) -> int:
    return max((int(m).bit_length() for m in re.findall(rb"\d+", stdout)), default=0)
