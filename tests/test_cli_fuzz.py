"""The CLI's exit contract on generated input, in process.

Every subcommand gets flag values and payloads: well-formed ones of the
right kind, payloads of another subcommand's kind,
arbitrary JSON and text that is not JSON.  Whatever it gets, ``main`` must
exit 0 or 1 with one JSON object on stdout, or 2 with stdout empty.

--n, --k, --trunc and a payload's "trunc" are small or past their ceiling
in ``errors._SIZES``, up to 10^8: such a call must exit 1 at once (--n of
``endo frobenius`` by the bits of a matrix power entry, unless the powers
stay small).  Sizes in between are bounded but may take seconds, so they
are left to the size tests.  One input still reaches a known unbounded
computation and stays small: payload constants with huge divisors
(``endo phimu``'s root search).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bcwitt.cli import COMMANDS, main  # noqa: E402

SUBCOMMANDS = sorted((g, n) for g, (_, subs) in COMMANDS.items() for n in subs)

small = st.integers(-3, 12)
# Payload numbers of the right kind are valid; the malformed ones come from
# the other payload branches and the flags.
fractions = small.map(str) | st.sampled_from(["1/3", "-7/4", "5/12", "2/9"])


def exactly(entries, size: int):
    return st.lists(entries, min_size=size, max_size=size)


qz_elem = st.fixed_dictionaries({"terms": st.lists(
    st.fixed_dictionaries({"r": fractions, "c": small}), max_size=4)})
# Values past every size ceiling that a flag or "trunc" meets.
huge = st.integers(2**16 + 1, 10**8)
witt_vec = st.fixed_dictionaries({"trunc": st.sampled_from([4, 4, 4, 6, 1, 0, -1]) | huge,
                                  "coeffs": st.lists(fractions, max_size=6)})
t_class = st.fixed_dictionaries({"T": st.lists(st.integers(-1, 4), max_size=5)})
l_class = st.fixed_dictionaries({"L": st.dictionaries(
    st.sampled_from(["0", "1", "2", "-1", "1/2"]), st.integers(-3, 3), max_size=4)})
cls = t_class | l_class
pieces = st.lists(st.fixed_dictionaries({"class": cls, "d": st.integers(-1, 3)}), max_size=3)
toral = st.fixed_dictionaries({"rows": st.integers(0, 4).flatmap(
    lambda d: exactly(exactly(st.integers(-3, 3), d), d))})
endo_obj = st.fixed_dictionaries({"matrix": st.integers(0, 3).flatmap(
    lambda d: exactly(fractions, d * d))})
rational = st.fixed_dictionaries({"num": st.lists(st.integers(-50, 50), max_size=4),
                                  "den": st.lists(st.integers(-50, 50), max_size=4)})
perm = st.integers(0, 6).flatmap(lambda size: st.permutations(range(size)))
action = st.fixed_dictionaries({"level": st.sampled_from([1, 2, 3, 4, 6, 12, 60, 0, -1]),
                                "perm": perm})
relative = st.fixed_dictionaries({"total": action, "base": action,
                                  "map": st.lists(st.integers(-1, 6), max_size=6)})

KIND = {
    "qz": {"elem": qz_elem, "a": qz_elem, "b": qz_elem},
    "witt": {"a": witt_vec, "b": witt_vec, "witt": witt_vec},
    "class": {"class": cls, "pieces": pieces},
    "zeta": {"class": cls, "matrix": toral},
    "endo": {"matrix": endo_obj, "plus": endo_obj, "minus": endo_obj, "rational": rational},
    "euler": {"matrix": toral},
    "equivariant": {"action": action | relative},
}
KEYS = ["terms", "r", "c", "trunc", "coeffs", "T", "L", "rows", "matrix", "num", "den",
        "level", "perm", "total", "base", "map", "class", "d"]
any_json = st.recursive(
    st.none() | st.booleans() | small | fractions
    | st.sampled_from(["1/0", "x", "", "0.5", "-", "1e9", "1_000", " 7"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12)
other_kind = st.sampled_from([qz_elem, witt_vec, cls, pieces, toral, endo_obj, rational,
                              action, relative]).flatmap(lambda s: s)
not_json = st.sampled_from(["", "{", "[1,", "NaN", "1e400", "1.5", '"x"', "{} {}"])

FLAG_VALUES = {
    "n": small | huge, "m": small, "k": small | huge, "kmax": small, "dim": st.integers(-1, 4),
    "trunc": st.integers(-1, 16) | st.integers(2**9 + 1, 10**8),
    "q": st.sampled_from(["q", "sym", "2", "3", "5", "1", "0", "-4", "x"]),
    "primes": st.sampled_from(["2", "3", "2,3", "5,7", "4", "1", "", "x", "2,,3"]),
}


def argv_for(draw, group: str, name: str) -> list[str]:
    flags, payloads, _ = COMMANDS[group][1][name]
    argv = [group, name]
    for flag in flags:
        for f in flag.split("|"):
            if f in FLAG_VALUES:
                if draw(st.integers(0, 9)):  # mostly present
                    argv += [f"--{f}", str(draw(FLAG_VALUES[f]))]
            elif draw(st.booleans()):
                argv.append(f"--{f}")
    for payload in payloads:
        choice = draw(st.integers(0, 9))
        if choice == 0:
            continue
        if choice == 1:
            argv += [f"--{payload}", draw(not_json)]
            continue
        value = draw(KIND[group][payload] if choice < 6 else
                     other_kind if choice < 8 else any_json)
        argv += [f"--{payload}", json.dumps(value)]
    return argv


@pytest.mark.parametrize("group,name", SUBCOMMANDS)
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_exit_contract(group, name, data):
    argv = argv_for(data.draw, group, name)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    stdout = out.getvalue()
    if code == 2:
        assert stdout == "", argv
        assert err.getvalue(), argv
        return
    assert code in (0, 1), (argv, code)
    lines = stdout.splitlines()
    assert len(lines) == 1, argv
    doc = json.loads(lines[0])
    assert isinstance(doc, dict), argv
    if code == 1:
        assert set(doc) == {"error"} and set(doc["error"]) == {"kind", "detail"}, argv
