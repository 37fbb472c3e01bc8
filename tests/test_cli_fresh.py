"""The CLI and the package in fresh interpreters.

The package loads its modules on first use, so a missing import shows only
in a process that has not loaded everything already, as the other tests do.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bcwitt
from bcwitt.cli import COMMANDS, main

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
    Polynomial cyclotomic cyclotomic_factor moebius stirling2 totient
    DegenerateIterate DomainError HalfTwistPresent NotDivisible
    NotEffectivelyTorified NotQuasiUnipotent NotSplit TruncationTooSmall
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
    base.pop("BCWITT_TRUNC", None)
    base.pop("PYTHONINTMAXSTRDIGITS", None)
    env = {**base, **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=timeout)


def test_every_subcommand_has_a_call():
    assert set(CALLS) == {(g, n) for g, (_, subs) in COMMANDS.items() for n in subs}


@pytest.mark.parametrize("group,name", sorted(CALLS))
def test_subcommand_in_fresh_process(group, name, capsys):
    argv = [group, name, *CALLS[group, name]]
    code = main(argv)
    expected = capsys.readouterr().out
    done = fresh_python("-m", "bcwitt.cli", *argv)
    assert (done.returncode, done.stdout) == (code, expected), done.stderr
    assert code == 0


def test_output_past_the_default_digit_limit():
    """The ghosts (3^m - 1)^100000 have 30103 digits and more, past the
    default limit of 4300."""
    done = fresh_python("-m", "bcwitt.cli", "zeta", "quotient-check",
                        "--k", "100000", "--q", "3", "--trunc", "5")
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads(done.stdout)["error"]["kind"] == "LimitExceeded"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints ints of any length")
def test_digit_limit_does_not_depend_on_the_interpreter():
    """2^20000 has 6021 digits: past bcwitt's limit of 4300 whether the
    interpreter's own limit is the default or off (0)."""
    argv = ["-m", "bcwitt.cli", "endo", "frobenius", "--n", "20000",
            "--matrix", '{"matrix":["2"]}']
    runs = [fresh_python(*argv, env=env) for env in ({}, {"PYTHONINTMAXSTRDIGITS": "0"})]
    for done in runs:
        assert (done.returncode, done.stderr) == (1, "")
        assert json.loads(done.stdout) == {"error": {
            "kind": "LimitExceeded",
            "detail": "decimal digits of an output number: 6021 exceeds the limit 4300"}}
    assert runs[0].stdout == runs[1].stdout


def test_exponent_string_is_malformed():
    """Fraction("1e100000000") would build a 10^8-digit int before any
    check; the payload grammar rejects the string at once."""
    done = fresh_python("-m", "bcwitt.cli", "witt", "ghost",
                        "--witt", '{"trunc":1,"coeffs":["1e100000000"]}', timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert "is not an integer or a fraction" in done.stderr


# Calls that ran until killed before their size had a ceiling in
# errors._SIZES; each now exits 1 with LimitExceeded before any work.
PAST_A_CEILING = [
    ["witt", "ghost", "--witt", '{"trunc":200000,"coeffs":["1/3"]}'],
    ["witt", "verschiebung", "--n", "2", "--witt", '{"trunc":100000000,"coeffs":["1"]}'],
    ["zeta", "f1", "--trunc", "100000", "--class", '{"T":[1]}'],
    ["zeta", "hw", "--q", "2", "--trunc", "100000000", "--class", '{"T":[1]}'],
    ["zeta", "quotient-check", "--k", "1", "--q", "2", "--trunc", "100000000"],
    ["zeta", "quotient-check", "--k", "100000000", "--q", "3", "--trunc", "5"],
    ["equivariant", "rho", "--n", "100000000", "--action", '{"level":1,"perm":[0]}'],
    ["equivariant", "check", "--n", "1000", "--kmax", "100000000", "--action", ACTION],
    ["endo", "verschiebung", "--n", "20000", "--matrix", '{"matrix":["1"]}'],
    ["qz", "rho", "--n", "100000000", "--elem", ELEM],
    ["qz", "split", "--primes", "1000000000000000003", "--elem", ELEM],
]


@pytest.mark.parametrize("argv", PAST_A_CEILING, ids=lambda argv: " ".join(argv[:2]))
def test_size_past_its_ceiling_exits_at_once(argv):
    start = time.perf_counter()
    done = fresh_python("-m", "bcwitt.cli", *argv, timeout=10)
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (1, "")
    assert json.loads(done.stdout)["error"]["kind"] == "LimitExceeded"
    assert elapsed < 1


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
