"""``zeta_ghosts`` against the paths it replaced, kept here as oracles.

A toral map's zetas are given by their ghosts, the Lefschetz numbers or the
fixed-point counts, so the library decides them once and ``unghost``s them.
The oracles are the former ways to the same outputs: the Artin-Mazur loop
over the Lefschetz numbers, the torified product of per-torus series by
``witt_add``, and the CLI's series output, which recovered its ghost field
from the series by ``ghost``.  The Lefschetz numbers of a map whose nonzero
eigenvalues are roots of unity are read from one period; the ghost
expansion that the library keeps for every other map is their oracle here
(``builders.lefschetz_numbers_oracle``), and a spy on ``dynamical.ghost``
checks that the period never runs it.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bcwitt import cli, dynamical, errors, linalg  # noqa: E402
from bcwitt.arith import totient  # noqa: E402
from bcwitt.dynamical import (  # noqa: E402
    ToralMap, artin_mazur_series, lefschetz_numbers, lefschetz_zeta_series,
    torified_dynamical_zeta, zeta_ghosts)
from bcwitt.errors import DegenerateIterate  # noqa: E402
from bcwitt.witt import GhostVector, WittVector, ghost, unghost, witt_add  # noqa: E402

from builders import cyclotomic_companion, lefschetz_numbers_oracle  # noqa: E402

KINDS = ("lefschetz", "artin_mazur")
SUBCOMMAND = {"lefschetz": ["lefschetz", "--series"], "artin_mazur": ["artin-mazur"]}


def _artin_mazur_oracle(f, trunc):
    counts = []
    for n, a in enumerate(lefschetz_numbers(f, trunc), start=1):
        if a == 0:
            raise DegenerateIterate(n)
        counts.append(abs(a))
    return unghost(GhostVector.of(counts))


def _series_oracle(f, trunc, kind):
    if kind == "lefschetz":
        return unghost(GhostVector.of(lefschetz_numbers(f, trunc)))
    return _artin_mazur_oracle(f, trunc)


def _torified_oracle(parts, trunc, kind):
    if kind not in KINDS:
        raise ValueError(f"unknown zeta kind {kind!r}")
    acc = WittVector.one(trunc)
    for part in parts:
        acc = witt_add(acc, _series_oracle(part, trunc, kind))
    return acc


def _oracle_handler(kind):
    def handler(args, matrix):
        series = _series_oracle(ToralMap.from_json(matrix), args.trunc, kind)
        return {"ghost": cli._ghost_json(ghost(series)), "series": series.to_json()["coeffs"]}
    return handler


def _outcome(call):
    """call()'s value, or the error it raised with its stated fields."""
    try:
        return "value", call()
    except DegenerateIterate as exc:
        return "DegenerateIterate", exc.n
    except ValueError as exc:
        return "ValueError", str(exc)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# Random matrices of dimension 0-5, mostly with entries in [-3, 3]; entries
# near 10^12 push the ghosts past 640 digits within trunc 40.
random_maps = st.tuples(st.integers(0, 5), st.sampled_from([3, 3, 3, 10**12])).flatmap(
    lambda dr: st.lists(st.lists(st.integers(-dr[1], dr[1]), min_size=dr[0], max_size=dr[0]),
                        min_size=dr[0], max_size=dr[0])).map(ToralMap.of)
# Companions of products of cyclotomic polynomials of total degree <= 5.
cyclotomic_maps = st.lists(st.sampled_from([m for m in range(1, 13) if totient(m) <= 5]),
                           max_size=5).filter(
    lambda ms: sum(map(totient, ms)) <= 5).map(lambda ms: cyclotomic_companion(*ms))
maps = random_maps | cyclotomic_maps
small_maps = st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3,
                      max_size=3).map(ToralMap.of) | cyclotomic_maps


@settings(max_examples=60, deadline=None, database=None)
@given(f=maps, trunc=st.integers(1, 40), kind=st.sampled_from(KINDS),
       limit=st.sampled_from([None, 640]))
@example(f=ToralMap.of([[10**20]]), trunc=40, kind="lefschetz", limit=640)
@example(f=ToralMap.of([[10**20]]), trunc=40, kind="artin_mazur", limit=640)
@example(f=cyclotomic_companion(3, 4), trunc=40, kind="artin_mazur", limit=None)
def test_zeta_ghosts_match_the_oracles(f, trunc, kind, limit):
    got = _outcome(lambda: zeta_ghosts(f, trunc, kind))
    want = _outcome(lambda: ghost(_series_oracle(f, trunc, kind)))
    assert got == want
    if got[0] == "value":
        assert {type(v) for v in got[1].values} <= {int}
    series = lefschetz_zeta_series if kind == "lefschetz" else artin_mazur_series
    assert _outcome(lambda: series(f, trunc)) == _outcome(lambda: _series_oracle(f, trunc, kind))
    argv = ["zeta", *SUBCOMMAND[kind], "--trunc", str(trunc),
            "--matrix", json.dumps(f.to_json())]
    name = SUBCOMMAND[kind][0]
    flags, payloads, _ = cli.COMMANDS["zeta"][1][name]
    with pytest.MonkeyPatch.context() as m:
        if limit:
            m.setattr(errors, "_MAX_STR_DIGITS", limit)
        done = _cli(argv)
        m.setitem(cli.COMMANDS["zeta"][1], name, (flags, payloads, _oracle_handler(kind)))
        assert done == _cli(argv)
    assert done[0] in (0, 1) and done[2] == ""


def test_the_cli_reaches_each_ending():
    """The property's explicit examples end in each way the CLI can."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(errors, "_MAX_STR_DIGITS", 640)
        code, out, _ = _cli(["zeta", "artin-mazur", "--trunc", "40", "--matrix",
                             json.dumps(ToralMap.of([[10**20]]).to_json())])
    assert (code, json.loads(out)) == (1, {"error": {
        "kind": "LimitExceeded",
        "detail": "decimal digits of an output number: 660 exceeds the limit 640"}})
    code, out, _ = _cli(["zeta", "artin-mazur", "--trunc", "40", "--matrix",
                         json.dumps(cyclotomic_companion(3, 4).to_json())])
    assert (code, json.loads(out)["error"]["kind"]) == (1, "DegenerateIterate")


@settings(max_examples=40, deadline=None, database=None)
@given(parts=st.lists(small_maps, max_size=3), trunc=st.integers(1, 40),
       kind=st.sampled_from(KINDS))
@example(parts=[], trunc=5, kind="artin_mazur")
@example(parts=[cyclotomic_companion(2), cyclotomic_companion(1)], trunc=5, kind="artin_mazur")
def test_torified_zeta_is_the_product_of_the_parts(parts, trunc, kind):
    got = _outcome(lambda: torified_dynamical_zeta(parts, trunc, kind))
    assert got == _outcome(lambda: _torified_oracle(parts, trunc, kind))
    for bad in ([], parts):
        with pytest.raises(ValueError, match="unknown zeta kind 'other'"):
            torified_dynamical_zeta(bad, trunc, "other")
    with pytest.raises(ValueError, match="unknown zeta kind 'other'"):
        zeta_ghosts(ToralMap.of([[2]]), trunc, "other")


def _fit(indices, room=24):
    """The indices in order, each kept while the degrees so far sum to <= room."""
    kept = []
    for m in indices:
        if totient(m) <= room:
            kept.append(m)
            room -= totient(m)
    return kept


@st.composite
def quasi_unipotent_maps(draw):
    """(indices, map): the companion of prod Phi_m over the indices, or the
    block sum of the companions of each Phi_m, then half the time a block sum
    with a k x k zero or strictly upper-triangular block (eigenvalues all 0),
    in a permuted basis; m <= 60 and dimension <= 24."""
    k = draw(st.just(0) | st.integers(1, 6))
    indices = draw(st.lists(st.integers(1, 60), max_size=12).map(lambda ms: _fit(ms, 24 - k)))
    if draw(st.booleans()):
        rows = cyclotomic_companion(*indices).matrix
    else:
        rows = ()
        for m in indices:
            rows = linalg.block_diag(rows, cyclotomic_companion(m).matrix)
    span = draw(st.sampled_from([0, 3]))
    rows = linalg.block_diag(rows, tuple(
        tuple(draw(st.integers(-span, span)) if j > i else 0 for j in range(k)) for i in range(k)))
    p = draw(st.permutations(range(len(rows))))
    return indices, ToralMap.of([[rows[i][j] for j in p] for i in p])


@settings(max_examples=40, deadline=None, database=None)
@given(qu=quasi_unipotent_maps(), trunc=st.integers(1, 200))
@example(qu=([], ToralMap.of([])), trunc=3)
@example(qu=([3, 5, 16], cyclotomic_companion(3, 5, 16)), trunc=200)
@example(qu=([60, 1], cyclotomic_companion(60, 1)), trunc=1)
@example(qu=([], ToralMap.of([[0] * 64] * 64)), trunc=200)
@example(qu=([2], ToralMap.of([[-1, 0, 0], [0, 0, 1], [0, 0, 0]])), trunc=7)
def test_quasi_unipotent_lefschetz_numbers_are_one_period(qu, trunc):
    """With zero eigenvalues too, the period equals the ghost path in value
    and type, repeats with period lcm(m_i), and is first 0 at n = min(m_i);
    no ghost expansion runs."""
    indices, f = qu
    with mock.patch.object(dynamical, "_ghosts", wraps=dynamical._ghosts) as spy:
        got = lefschetz_numbers(f, trunc)
        outcome = _outcome(lambda: artin_mazur_series(f, trunc))
    assert not spy.called
    assert got == lefschetz_numbers_oracle(f, trunc)
    assert {type(a) for a in got} <= {int}
    period = math.lcm(*indices)
    assert got == [got[math.gcd(n, period) - 1] for n in range(1, trunc + 1)]
    least = min(indices, default=trunc + 1)
    if least <= trunc:
        want = ("DegenerateIterate", least)
    else:
        want = ("value", _artin_mazur_oracle(f, trunc))
    assert outcome == want


@settings(max_examples=30, deadline=None, database=None)
@given(f=st.integers(1, 12).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d)).map(
    ToralMap.of), trunc=st.integers(1, 40))
@example(f=ToralMap.of([[2, 1], [1, 1]]), trunc=40)
@example(f=ToralMap.of([[2, 1, 0], [1, 1, 0], [0, 0, 0]]), trunc=40)
def test_lefschetz_numbers_fall_back_to_the_ghost_path(f, trunc):
    """Random matrices, nearly all with a nonzero eigenvalue that is not a
    root of unity, take the ghost path, sized by their nonzero eigenvalues."""
    got = lefschetz_numbers(f, trunc)
    assert got == lefschetz_numbers_oracle(f, trunc)
    assert {type(a) for a in got} <= {int}
