"""The CLI and the package in fresh interpreters.

The package loads its modules on first use, so a missing import shows only
in a process that has not loaded everything already, as the other tests do.
This file is the one home of the end-to-end CLI contract: every subcommand
on the standard library alone, outputs that read no environment, and every
known ending of a call as a row of ``ENDINGS``.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bcwitt
from bcwitt.cli import COMMANDS, main

from builders import cyclotomic_companion

SRC = str(Path(bcwitt.__file__).resolve().parents[1])
ACTION = '{"level":6,"perm":[1,2,3,4,5,0]}'
MATRIX = '{"rows":[[0,-1],[1,0]]}'
ELEM = '{"terms":[{"r":"1/3","c":1}]}'
WITT = '{"trunc":3,"coeffs":["2","4","8"]}'

# One valid call of every subcommand.
CALLS = {
    ("qz", "sigma"): ["--n", "2", "--elem", ELEM],
    ("qz", "rho"): ["--n", "2", "--elem", ELEM],
    ("qz", "mul"): ["--a", ELEM, "--b", ELEM],
    ("qz", "split"): ["--primes", "2", "--elem", '{"terms":[{"r":"5/12","c":1}]}'],
    ("witt", "add"): ["--a", WITT, "--b", '{"trunc":3,"coeffs":["3","9","27"]}'],
    ("witt", "mul"): ["--a", WITT, "--b", '{"trunc":3,"coeffs":["1/2","0","1"]}'],
    ("witt", "frobenius"): ["--n", "2", "--witt", WITT],
    ("witt", "verschiebung"): ["--n", "2", "--witt", WITT],
    ("witt", "ghost"): ["--witt", WITT],
    ("class", "convert"): ["--class", '{"L":{"0":1,"1":1}}'],
    ("class", "points"): ["--m", "5", "--class", '{"T":[2,1]}'],
    ("class", "bb"): ["--pieces", '[{"class":{"T":[1]},"d":0},{"class":{"T":[1]},"d":1}]'],
    ("class", "virtual"): ["--dim", "1", "--class", '{"L":{"0":1,"1":1}}'],
    ("zeta", "f1"): ["--trunc", "4", "--class", '{"T":[2,1]}'],
    ("zeta", "hw"): ["--q", "q", "--trunc", "3", "--class", '{"T":[0,1]}'],
    ("zeta", "lefschetz"): ["--closed", "--matrix", MATRIX],
    ("zeta", "artin-mazur"): ["--trunc", "4", "--matrix", '{"rows":[[2,1],[1,1]]}'],
    ("zeta", "quotient-check"): ["--k", "2", "--q", "3", "--trunc", "3"],
    ("endo", "lmap"): ["--matrix", '{"matrix":["5"]}'],
    ("endo", "frobenius"): ["--n", "2", "--matrix", '{"matrix":["3"]}'],
    ("endo", "verschiebung"): ["--n", "2", "--matrix", '{"matrix":["3"]}'],
    ("endo", "delta"): ["--plus", '{"matrix":["2"]}', "--minus", '{"matrix":["3"]}'],
    ("endo", "phimu"): ["--rational", '{"num":[1,-1],"den":[1,-3]}'],
    ("euler", "spectral"): ["--matrix", MATRIX],
    ("equivariant", "sigma"): ["--n", "2", "--action", ACTION],
    ("equivariant", "rho"): ["--n", "2", "--action", '{"total":{"level":3,"perm":[1,2,0]},'
                             '"base":{"level":3,"perm":[0]},"map":[0,0,0]}'],
    ("equivariant", "periodic"): ["--k", "6", "--action", ACTION],
    ("equivariant", "euler"): ["--action", ACTION],
    ("equivariant", "check"): ["--n", "3", "--kmax", "12", "--action", ACTION],
}

# The names the package exported when it imported every module eagerly.
EXPORTED = """
    Polynomial cyclotomic cyclotomic_factor moebius totient
    DegenerateIterate DomainError HalfTwistPresent NotDivisible
    NotEffectivelyTorified NotQuasiUnipotent NotSplit OutOfMemory TruncationTooSmall
    QZElement SplitQZElement pi_n_times_n rho sigma split unsplit
    GhostVector RationalWitt WittVector frobenius ghost ghost_divide rational_div
    teichmuller unghost verschiebung witt_add witt_mul
    LClass LeveledClass TorifiedClass bb_assemble euler_characteristic f1m_points
    l_to_t t_to_l virtual_motive
    f1_zeta hw_quotient_check hw_zeta polylog_rational q_to_1_limit z0 z1
    EndoObject GradedEndoObject delta direct_sum endo_frobenius endo_verschiebung
    l_map phi_mu tensor
    LefschetzZeta ToralMap artin_mazur_series lefschetz_numbers lefschetz_zeta_closed
    lefschetz_zeta_series spectral_euler torified_dynamical_zeta verschiebung_block
    zeta_ghosts
    CyclicAction RelativeObject euler_char periodic_points sigma_action
    verschiebung_action
    __version__
""".split()


def fresh_python(*args: str, timeout: float = 60,
                 env: dict | None = None) -> subprocess.CompletedProcess:
    """Run python with the package on its path, the settings that change a
    call's outcome unset, and then the variables in env."""
    base = dict(os.environ, PYTHONPATH=SRC)
    base.pop("PYTHONINTMAXSTRDIGITS", None)
    env = {**base, **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=timeout)


def test_every_subcommand_has_a_call():
    assert set(CALLS) == {(g, n) for g, (_, subs) in COMMANDS.items() for n in subs}


@pytest.mark.parametrize("group,name", sorted(CALLS))
def test_subcommand_in_fresh_process(group, name, capsys):
    """Each subcommand runs on the standard library alone: the test-only
    oracles are blocked, and an import of one would leave a traceback."""
    argv = [group, name, *CALLS[group, name]]
    code = main(argv)
    expected = capsys.readouterr().out
    done = fresh_python("-c", "import sys\n"
                        "sys.modules['sympy'] = sys.modules['hypothesis'] = None\n"
                        "from bcwitt.cli import main\n"
                        "sys.exit(main(sys.argv[1:]))", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, expected, "")
    assert code == 0


def test_digit_limit_does_not_depend_on_the_interpreter():
    """2^20000 has 6021 digits: past bcwitt's limit of 4300 whether the
    interpreter's own limit is the default or off (0)."""
    argv = ["-m", "bcwitt.cli", "endo", "frobenius", "--n", "20000",
            "--matrix", '{"matrix":["2"]}']
    runs = [fresh_python(*argv, timeout=10, env=env)
            for env in ({}, {"PYTHONINTMAXSTRDIGITS": "0"})]
    for done in runs:
        assert (done.returncode, done.stderr) == (1, "")
        assert json.loads(done.stdout) == {"error": {
            "kind": "LimitExceeded",
            "detail": "decimal digits of an output number: 6021 exceeds the limit 4300"}}
    assert runs[0].stdout == runs[1].stdout


def test_no_output_reads_the_environment():
    """Every call of CALLS, and one at the default truncation, prints the
    same in a clean environment as under variables that a CLI could read:
    argv is its only input."""
    calls = [[g, n, *CALLS[g, n]] for g, n in sorted(CALLS)]
    calls.append(["zeta", "f1", "--class", '{"T":[2,1]}'])
    code = ("import json, sys\n"
            "from bcwitt.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    print(main(argv))\n")
    runs = [fresh_python("-c", code, json.dumps(calls), env=env) for env in (
        {},
        {"BCWITT_TRUNC": "3", "PYTHONINTMAXSTRDIGITS": "0", "PYTHONHASHSEED": "1"},
        {"PYTHONHASHSEED": "0"},
    )]
    assert (runs[0].returncode, runs[0].stderr) == (0, "")
    assert [(done.stdout, done.stderr) for done in runs[1:]] == [(runs[0].stdout, "")] * 2


# Every end-to-end ending of a CLI call, one row each: (argv, exit code, what
# the call must show, seconds).  What it shows is, for exit 2, a fragment of
# its stderr (None: any message), and for exit 0 or 1 the kind of its error
# JSON (None: no error).  Each row runs in a fresh interpreter.
# Seconds: a size past its ceiling is refused before any work, and the
# zetas of a quasi-unipotent map are read from one period of its numbers.
AT_ONCE = 1
_M16 = random.Random(1)
M16 = json.dumps({"rows": [[_M16.randint(-3, 3) for _ in range(16)] for _ in range(16)]})


# Phi_3 Phi_5 Phi_16 Phi_38 Phi_51 has degree 2 + 4 + 8 + 18 + 32 = 64, the dimension ceiling.
C64 = json.dumps(cyclotomic_companion(3, 5, 16, 38, 51).to_json())
ENDINGS = [
    # Calls that ran until killed before their size had a ceiling in
    # errors._SIZES.
    (["witt", "ghost", "--witt", '{"trunc":200000,"coeffs":["1/3"]}'],
     1, "LimitExceeded", AT_ONCE),
    (["witt", "verschiebung", "--n", "2", "--witt", '{"trunc":100000000,"coeffs":["1"]}'],
     1, "LimitExceeded", AT_ONCE),
    (["zeta", "f1", "--trunc", "100000", "--class", '{"T":[1]}'],
     1, "LimitExceeded", AT_ONCE),
    (["zeta", "hw", "--q", "2", "--trunc", "100000000", "--class", '{"T":[1]}'],
     1, "LimitExceeded", AT_ONCE),
    (["zeta", "quotient-check", "--k", "1", "--q", "2", "--trunc", "100000000"],
     1, "LimitExceeded", AT_ONCE),
    (["zeta", "quotient-check", "--k", "100000000", "--q", "3", "--trunc", "5"],
     1, "LimitExceeded", AT_ONCE),
    (["equivariant", "rho", "--n", "100000000", "--action", '{"level":1,"perm":[0]}'],
     1, "LimitExceeded", AT_ONCE),
    (["equivariant", "check", "--n", "1000", "--kmax", "100000000", "--action", ACTION],
     1, "LimitExceeded", AT_ONCE),
    (["endo", "verschiebung", "--n", "20000", "--matrix", '{"matrix":["1"]}'],
     1, "LimitExceeded", AT_ONCE),
    (["qz", "rho", "--n", "100000000", "--elem", ELEM], 1, "LimitExceeded", AT_ONCE),
    (["qz", "split", "--primes", "1000000000000000003", "--elem", ELEM],
     1, "LimitExceeded", AT_ONCE),
    # Fraction("1e100000000") would build a 10^8-digit int before any check;
    # the payload grammar rejects the string at once.
    (["witt", "ghost", "--witt", '{"trunc":1,"coeffs":["1e100000000"]}'],
     2, "is not an integer or a fraction", 10),
    (["class", "convert", "--class", '{"L":{"1e100000000":1}}'], 2, None, 10),
    # The ghosts (3^m - 1)^100000 would have 30103 digits and more, past the
    # digit limit of 4300; the exponent k is refused first, by the 2^15
    # degree ceiling.
    (["zeta", "quotient-check", "--k", "100000", "--q", "3", "--trunc", "5"],
     1, "LimitExceeded", 60),
    # Powers of degree 3000 and 30000 run by the one power kernel.
    (["class", "bb", "--pieces", '[{"class":{"T":[1]},"d":3000}]'], 0, None, 10),
    (["zeta", "hw", "--q", "2", "--class", '{"T":[3000]}'], 0, None, 10),
    (["class", "convert", "--class", '{"L":{"30000":1}}'], 1, "LimitExceeded", 10),
    # A degree past 2^15 is refused before any work.
    (["class", "convert", "--class", '{"L":{"99999999999":1}}'], 1, "LimitExceeded", 10),
    # (q - 1)^2500 leaves the symbolic quotient check by prefix sums.
    (["zeta", "quotient-check", "--k", "2500", "--q", "q", "--trunc", "2"], 0, None, 10),
    # T^30 at q = 3: each factor is under 2^15, the rational form is not.
    (["zeta", "hw", "--q", "3", "--trunc", "3", "--class", '{"T":[' + "0," * 30 + '1]}'],
     1, "LimitExceeded", 10),
    # The check repeats with period n * lcm(orbit sizes), not kmax.
    (["equivariant", "check", "--n", "2", "--kmax", "100000000", "--action", ACTION],
     0, None, 10),
    # A matrix power entry past 2^16 bits is refused before the next squaring.
    (["endo", "frobenius", "--n", "100000000", "--matrix", '{"matrix":["2"]}'],
     1, "LimitExceeded", 10),
    # A zeta's ghost field prints first and is built from its ghosts before
    # the series: a ghost past the digit limit ends the call.
    (["zeta", "artin-mazur", "--trunc", "512", "--matrix", M16], 1, "LimitExceeded", 10),
    # A quasi-unipotent map's Lefschetz numbers are read from one period,
    # here lcm(3, 5, 16, 38, 51) = 38760, with no ghost expansion to 512 * 64.
    # Its first zero, at n = 3, ends the Artin-Mazur series.
    (["zeta", "lefschetz", "--series", "--trunc", "512", "--matrix", C64], 0, None, AT_ONCE),
    (["zeta", "artin-mazur", "--trunc", "512", "--matrix", C64], 1, "DegenerateIterate", AT_ONCE),
]


def _ends_as_its_row(argv, code, shows, seconds):
    start = time.perf_counter()
    done = fresh_python("-m", "bcwitt.cli", *argv, timeout=seconds)
    assert time.perf_counter() - start < seconds
    assert done.returncode == code, done.stderr
    if code == 2:
        assert done.stdout == "" and done.stderr
        assert shows is None or shows in done.stderr
    else:
        assert done.stderr == ""
        out = json.loads(done.stdout)
        assert isinstance(out, dict)
        assert out.get("error", {}).get("kind") == shows


def _row_id(row) -> str:
    return " ".join(row[0][:2])


def _past_a_ceiling(row) -> bool:
    return row[3] == AT_ONCE and row[2] == "LimitExceeded"


@pytest.mark.parametrize("row", list(filter(_past_a_ceiling, ENDINGS)), ids=_row_id)
def test_size_past_its_ceiling_exits_at_once(row):
    """The rows bounded by AT_ONCE that end in LimitExceeded: sizes refused
    before any work."""
    _ends_as_its_row(*row)


@pytest.mark.parametrize("row", [r for r in ENDINGS if r[3] == AT_ONCE
                                 and not _past_a_ceiling(r)], ids=_row_id)
def test_periodic_zeta_exits_at_once(row):
    """The other rows bounded by AT_ONCE: zetas of a quasi-unipotent map."""
    _ends_as_its_row(*row)


@pytest.mark.parametrize("row", [r for r in ENDINGS if r[3] != AT_ONCE], ids=_row_id)
def test_ending_in_fresh_process(row):
    """Every other row of ENDINGS."""
    _ends_as_its_row(*row)


def test_cli_import_loads_no_library_module():
    done = fresh_python("-c", "import sys, bcwitt.cli; print(' '.join(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "dataclasses" not in loaded
    heavy = {"witt", "qz", "torified", "zeta", "endo", "linalg", "dynamical", "equivariant"}
    assert not {f"bcwitt.{m}" for m in heavy} & loaded


# Modules a subcommand never runs, so its call must not load them.
UNUSED = {
    ("qz", "sigma"): {"arith"},
    ("qz", "rho"): {"arith"},
    ("qz", "mul"): {"arith"},
    **{("equivariant", name): {"arith"} for name in COMMANDS["equivariant"][1]},
    ("zeta", "lefschetz"): {"endo", "qz"},
    ("zeta", "artin-mazur"): {"endo", "qz"},
}


@pytest.mark.parametrize("group,name", sorted(UNUSED))
def test_call_loads_only_what_it_runs(group, name):
    done = fresh_python("-c", "import sys\n"
                        "from bcwitt.cli import main\n"
                        "code = main(sys.argv[1:])\n"
                        "print(code, *sorted(sys.modules))", group, name, *CALLS[group, name])
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert not {f"bcwitt.{m}" for m in UNUSED[group, name]} & set(loaded)


def test_exported_names_resolve_in_fresh_process():
    done = fresh_python("-c", "import bcwitt\n"
                        "print(bcwitt.linalg.__name__, bcwitt.cli.__name__)\n"
                        f"from bcwitt import {', '.join(EXPORTED)}\n"
                        f"print(*[n for n in {EXPORTED!r} if n not in dir(bcwitt)])")
    assert (done.returncode, done.stdout) == (0, "bcwitt.linalg bcwitt.cli\n\n"), done.stderr
