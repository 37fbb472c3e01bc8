import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from bcwitt import LeveledClass, equivariant, errors, qz
from bcwitt.cli import COMMANDS, _FLAGS, main
from bcwitt.errors import _digits, _number, _too_long


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, f"stderr: {err}"
    return json.loads(out)


def test_class_points(capsys):
    data = run_json(capsys, "class", "points", "--class", '{"T":[2,1]}', "--m", "5")
    assert data == {"count": "7"}


def test_qz_sigma(capsys):
    data = run_json(capsys, "qz", "sigma", "--n", "2",
                    "--elem", '{"terms":[{"r":"1/3","c":1}]}')
    assert data == {"terms": [{"r": "2/3", "c": 1}]}


def test_qz_rho_and_mul(capsys):
    data = run_json(capsys, "qz", "rho", "--n", "2",
                    "--elem", '{"terms":[{"r":"1/3","c":1}]}')
    assert data == {"terms": [{"r": "2/3", "c": 1}, {"r": "1/6", "c": 1}]}
    data = run_json(capsys, "qz", "mul",
                    "--a", '{"terms":[{"r":"1/2","c":1}]}',
                    "--b", '{"terms":[{"r":"1/2","c":1}]}')
    assert data == {"terms": [{"r": "0", "c": 1}]}


def test_qz_split(capsys):
    data = run_json(capsys, "qz", "split", "--primes", "2",
                    "--elem", '{"terms":[{"r":"5/12","c":1}]}')
    assert data == {"F": [2], "terms": [{"r_smooth": "3/4", "r_coprime": "2/3", "c": 1}]}


def test_zeta_lefschetz_closed(capsys):
    data = run_json(capsys, "zeta", "lefschetz",
                    "--matrix", '{"rows":[[0,-1],[1,0]]}', "--closed")
    assert data == {"exponents": {"1": 2, "2": 1, "4": -1}}


def test_zeta_lefschetz_series(capsys):
    data = run_json(capsys, "zeta", "lefschetz",
                    "--matrix", '{"rows":[[0,-1],[1,0]]}', "--series", "--trunc", "4")
    assert data["ghost"] == ["2", "4", "2", "0"]


def test_zeta_f1(capsys):
    data = run_json(capsys, "zeta", "f1", "--class", '{"T":[2,1]}', "--trunc", "3")
    assert data["ghost"] == ["3", "4", "5"]


def test_zeta_hw(capsys):
    data = run_json(capsys, "zeta", "hw", "--class", '{"T":[0,1]}', "--q", "3",
                    "--trunc", "3")
    assert data["rational"] == {"num": [1, -1], "den": [1, -3]}
    assert data["ghost"] == ["2", "8", "26"]


def test_zeta_hw_symbolic(capsys):
    data = run_json(capsys, "zeta", "hw", "--class", '{"T":[0,1]}', "--q", "q",
                    "--trunc", "2")
    assert data["ghost"] == [[-1, 1], [-1, 0, 1]]
    assert "rational" not in data


def test_zeta_quotient_check(capsys):
    data = run_json(capsys, "zeta", "quotient-check", "--k", "1", "--q", "3",
                    "--trunc", "3")
    assert data == {"ghost": ["1", "4", "13"]}
    data = run_json(capsys, "zeta", "quotient-check", "--k", "2", "--q", "100",
                    "--trunc", "3")
    assert data == {"ghost": ["1", "10201", "102030201"]}


def test_witt_roundtrip(capsys):
    a = run_json(capsys, "witt", "add",
                 "--a", '{"trunc":3,"coeffs":["2","4","8"]}',
                 "--b", '{"trunc":3,"coeffs":["3","9","27"]}')
    assert a == {"trunc": 3, "coeffs": ["5", "19", "65"]}
    back = run_json(capsys, "witt", "ghost", "--witt", json.dumps(a))
    assert back["ghost"] == ["5", "13", "35"]
    mul = run_json(capsys, "witt", "mul",
                   "--a", '{"trunc":3,"coeffs":["2","4","8"]}',
                   "--b", '{"trunc":3,"coeffs":["3","9","27"]}')
    assert mul == {"trunc": 3, "coeffs": ["6", "36", "216"]}
    frob = run_json(capsys, "witt", "frobenius", "--n", "2",
                    "--witt", '{"trunc":6,"coeffs":["3","9","27","81","243","729"]}')
    assert frob == {"trunc": 3, "coeffs": ["9", "81", "729"]}
    ver = run_json(capsys, "witt", "verschiebung", "--n", "2",
                   "--witt", '{"trunc":2,"coeffs":["1","1"]}')
    assert ver == {"trunc": 2, "coeffs": ["0", "1"]}


def test_class_convert_both_ways(capsys):
    as_l = run_json(capsys, "class", "convert", "--class", '{"T":[2,1]}')
    assert as_l == {"L": {"0": 1, "1": 1}}
    back = run_json(capsys, "class", "convert", "--class", json.dumps(as_l))
    assert back == {"T": [2, 1]}


def test_class_bb_and_virtual(capsys):
    data = run_json(capsys, "class", "bb",
                    "--pieces", '[{"class":{"T":[1]},"d":0},{"class":{"T":[1]},"d":1}]')
    assert data == {"T": [2, 1]}
    virt = run_json(capsys, "class", "virtual", "--class", '{"L":{"0":1,"1":1}}',
                    "--dim", "1")
    assert virt == {"L": {"-1/2": 1, "1/2": 1}}


def test_endo_commands(capsys):
    lm = run_json(capsys, "endo", "lmap", "--matrix", '{"matrix":["5"]}')
    assert lm == {"num": [1], "den": [1, -5]}
    fr = run_json(capsys, "endo", "frobenius", "--n", "2", "--matrix", '{"matrix":["3"]}')
    assert fr == {"matrix": ["9"]}
    ver = run_json(capsys, "endo", "verschiebung", "--n", "2", "--matrix", '{"matrix":["3"]}')
    assert ver == {"matrix": ["0", "3", "1", "0"]}
    dl = run_json(capsys, "endo", "delta",
                  "--plus", '{"matrix":["2"]}', "--minus", '{"matrix":["3"]}')
    assert dl == {"num": [1, -3], "den": [1, -2]}
    pm = run_json(capsys, "endo", "phimu", "--rational", '{"num":[1,-1],"den":[1,-3]}')
    assert pm == {"plus": {"matrix": ["3"]}, "minus": {"matrix": ["1"]}}


def test_euler_spectral(capsys):
    data = run_json(capsys, "euler", "spectral", "--matrix", '{"rows":[[0,-1],[1,0]]}')
    assert data == {"terms": [{"r": "1/4", "c": 1}, {"r": "3/4", "c": 1}]}


def test_equivariant_commands(capsys):
    act = '{"level":6,"perm":[1,2,3,4,5,0]}'
    shifted = run_json(capsys, "equivariant", "sigma", "--n", "2", "--action", act)
    assert shifted == {"level": 6, "perm": [2, 3, 4, 5, 0, 1]}
    spread = run_json(capsys, "equivariant", "rho", "--n", "2",
                      "--action", '{"level":1,"perm":[0]}')
    assert spread == {"level": 2, "perm": [1, 0]}
    pp = run_json(capsys, "equivariant", "periodic", "--action", act, "--k", "6")
    assert pp == {"points": [0, 1, 2, 3, 4, 5]}
    eu = run_json(capsys, "equivariant", "euler", "--action", '{"level":3,"perm":[1,2,0]}')
    assert eu == {"terms": [{"r": "0", "c": 1}, {"r": "1/3", "c": 1}, {"r": "2/3", "c": 1}]}
    chk = run_json(capsys, "equivariant", "check", "--action", act, "--n", "3",
                   "--kmax", "12")
    assert chk["ok"] is True
    # A check of no k at all is a usage error, not {"ok": true}.
    for kmax in ("0", "-3"):
        code, out, err = run_cli(capsys, "equivariant", "check", "--action", act, "--n", "3",
                                 "--kmax", kmax)
        assert (code, out) == (2, "") and "--kmax" in err


def test_equivariant_relative(capsys):
    rel = json.dumps({"total": {"level": 3, "perm": [1, 2, 0]},
                      "base": {"level": 3, "perm": [0]},
                      "map": [0, 0, 0]})
    out = run_json(capsys, "equivariant", "rho", "--n", "2", "--action", rel)
    assert out["total"]["level"] == 6
    assert len(out["total"]["perm"]) == 6
    assert out["map"] == [0, 0, 0, 1, 1, 1]


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "zeta", "lefschetz",
                             "--matrix", '{"rows":[[2]]}', "--closed")
    assert code == 1
    data = json.loads(out)
    assert data["error"]["kind"] == "NotQuasiUnipotent"

    code, out, err = run_cli(capsys, "zeta", "artin-mazur",
                             "--matrix", '{"rows":[[-1]]}', "--trunc", "4")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "DegenerateIterate"

    code, out, err = run_cli(capsys, "class", "convert", "--class", '{"L":{"0":-2,"1":1}}')
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "NotEffectivelyTorified"

    code, out, err = run_cli(capsys, "endo", "phimu",
                             "--rational", '{"num":[1],"den":[1,1,1]}')
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "NotSplit"

    code, out, err = run_cli(capsys, "witt", "frobenius", "--n", "9",
                             "--witt", '{"trunc":3,"coeffs":["1","1","1"]}')
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "TruncationTooSmall"

    code, out, err = run_cli(capsys, "class", "convert", "--class", '{"L":{"1/2":1}}')
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "HalfTwistPresent"


def test_output_past_the_digit_limit(capsys, monkeypatch):
    """A valid call whose output holds a number past bcwitt's digit limit
    exits 1 with LimitExceeded: from a numeric string, from a JSON integer,
    from a count, and from each library printer."""
    big = "7" * 400
    elem = '{"terms":[{"r":"1/2","c":%s}]}' % big
    witt = json.dumps({"trunc": 1, "coeffs": [big]})
    point = '{"terms":[{"r":"1/%s","c":1}]}'
    calls = [
        (("zeta", "quotient-check", "--k", "1000", "--q", "3", "--trunc", "5"), 1114),
        (("qz", "mul", "--a", elem, "--b", elem), 800),
        (("class", "points", "--m", "10", "--class", json.dumps({"T": [0] * 700 + [1]})), 701),
        (("witt", "mul", "--a", witt, "--b", witt), 800),
        (("endo", "frobenius", "--n", "2200", "--matrix", '{"matrix":["2"]}'), 663),
        (("qz", "mul", "--a", point % big, "--b", point % ("1" + "0" * 399)), 799),
        (("qz", "rho", "--n", "2", "--elem", point % ("7" * 640)), 641),
    ]
    with monkeypatch.context() as m:
        m.setattr(errors, "_MAX_STR_DIGITS", 640)
        for argv, digits in calls:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (1, "")
            assert json.loads(out) == {"error": {
                "kind": "LimitExceeded",
                "detail": f"decimal digits of an output number: {digits} exceeds the limit 640"}}
    for argv, _ in calls:
        assert run_cli(capsys, *argv)[0] == 0


def test_digit_limit_is_restored(capsys):
    """main applies bcwitt's limit for the call alone: the caller's own
    setting holds after it, on success and on failure."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        calls = [(("qz", "sigma", "--n", "2", "--elem", '{"terms":[{"r":"1/3","c":1}]}'), 0),
                 (("endo", "frobenius", "--n", "20000", "--matrix", '{"matrix":["2"]}'), 1)]
        for argv, code in calls:
            assert run_cli(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(old)


def _equivariant_check_oracle(a, n, kmax):
    """The check with its k loop run to kmax, as before it stopped at the
    period n * lcm(orbit sizes)."""
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


def test_equivariant_check_stops_at_the_period(capsys, monkeypatch):
    """Looping k to min(kmax, n * lcm) gives the full loop's answer, also
    when a check fails, with the same first failing k."""
    rng = random.Random(23)
    cases = []
    for _ in range(120):
        sizes = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        points = rng.sample(range(sum(sizes)), sum(sizes))
        perm, start = [0] * len(points), 0
        for size in sizes:
            cycle = points[start:start + size]
            for s, t in zip(cycle, cycle[1:] + cycle[:1]):
                perm[s] = t
            start += size
        level = math.lcm(*sizes) * rng.randint(1, 3)
        cases.append((equivariant.CyclicAction.of(level, perm), rng.randint(1, 4),
                      rng.randint(1, 80)))
    # Wrong shifted or spread actions, built from orbits of a as the real
    # ones are, make the checks fail at some k within the period.
    CyclicAction = equivariant.CyclicAction
    faults = {
        "sigma_action": lambda n, a: CyclicAction(a.level, a.power(n + 1)),
        "verschiebung_action": lambda n, a: CyclicAction(
            a.level * n, tuple(range(a.size, n * a.size)) + a.power(2)),
    }
    failed = set()
    for fault in (None, *faults):
        with monkeypatch.context() as m:
            if fault:
                m.setattr(equivariant, fault, faults[fault])
            for a, n, kmax in cases:
                data = run_json(capsys, "equivariant", "check", "--n", str(n),
                                "--kmax", str(kmax), "--action", json.dumps(a.to_json()))
                assert data == _equivariant_check_oracle(a, n, kmax)
                failed.add(data.get("failed", "").split(" at ")[0])
    assert failed >= {"", "sigma periodic points", "verschiebung periodic points"}


def test_digit_count():
    rng = random.Random(5)
    values = [0, 1, 9, 10, 99, 100] + [10**k + d for k in range(1, 400, 37) for d in (-1, 0)]
    values += [rng.getrandbits(rng.randint(1, 1300)) for _ in range(200)]
    for n in values:
        assert _digits(n) == _digits(-n) == len(str(n))


def test_too_long_counts_the_longest_number():
    """The LimitExceeded detail names the digits of the largest |x|, found
    without counting the digits of every output number."""
    rng = random.Random(7)
    numbers = [rng.getrandbits(rng.randint(1, 19000)) * rng.choice((1, -1)) for _ in range(400)]
    numbers += [-(10**6000), 10**5999]
    want = max(map(_digits, numbers))
    assert want == 6001
    for xs in (numbers, iter(numbers), reversed(numbers)):
        err = _too_long(xs)
        assert (err.value, err.limit) == (want, sys.get_int_max_str_digits())
        assert err.detail == (f"decimal digits of an output number: {want} "
                              f"exceeds the limit {err.limit}")


def test_power_degree_past_the_bound(capsys):
    """A polynomial power of degree past 2^15 (an L-exponent, a cell
    dimension, a point count, a torus power) exits 1 at once."""
    calls = [
        (("class", "convert", "--class", '{"L":{"99999999999":1}}'), 99999999999),
        (("class", "bb", "--pieces", '[{"class":{"T":[1]},"d":99999999999}]'), 99999999999),
        (("zeta", "hw", "--q", "2", "--class", '{"T":[1000000000000]}'), 10**12),
        (("zeta", "quotient-check", "--k", "100000", "--q", "q", "--trunc", "2"), 100000),
    ]
    for argv, degree in calls:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": {
            "kind": "LimitExceeded",
            "detail": f"degree of a polynomial power: {degree} exceeds the limit 32768"}}


# One call per payload reader, with the number x in its place.
NUMBER_SITES = {
    "WittVector": lambda x: ["witt", "ghost", "--witt", json.dumps({"trunc": 1, "coeffs": [x]})],
    "RationalWitt": lambda x: ["endo", "phimu", "--rational", json.dumps({"num": [1, x]})],
    "EndoObject": lambda x: ["endo", "lmap", "--matrix", json.dumps({"matrix": [x]})],
    "QZElement": lambda x: ["qz", "sigma", "--n", "2", "--elem",
                            json.dumps({"terms": [{"r": x, "c": 1}]})],
    "LClass": lambda x: ["class", "convert", "--class", json.dumps({"L": {x: 1}})],
    "ToralMap": lambda x: ["euler", "spectral", "--matrix", json.dumps({"rows": [[x]]})],
}


# Malformed payload numbers, in a number's or an integer's place.
REJECTS = ["1.5", "0.25", "1e9", "1e100000000", " 7", "7 ", "+7", "1_000", "\u0663",
           "1/2/3", "1/", "/2", "-", "--7", "1/-2", "1/0", "", None, [], ["7"], {}]


def test_payload_number_grammar(capsys):
    """A payload number is a JSON integer or a string -?digits(/digits)?;
    every other value is malformed at once: no exponent is expanded."""
    for site, argv in NUMBER_SITES.items():
        for x in REJECTS:
            if site == "LClass" and not isinstance(x, str):
                continue  # JSON object keys are strings
            start = time.perf_counter()
            assert run_cli(capsys, *argv(x))[:2] == (2, ""), (site, x)
            assert time.perf_counter() - start < 1, (site, x)
        for x in ["7", "0", "-0", 5, -4] + (["-3/2", "6/4"] if site != "ToralMap" else []):
            code, out, err = run_cli(capsys, *argv(x))
            assert code in (0, 1) and json.loads(out), (site, x, err)
    assert [_number(x) for x in ("-3/2", "6/4", "4/2", "-0", "007", 12)] == [
        Fraction(-3, 2), Fraction(3, 2), 2, 0, 7, 12]
    assert [type(_number(x)) for x in ("4/2", "-0", 12)] == [int] * 3
    assert run_json(capsys, *NUMBER_SITES["WittVector"]("-6/4"))["ghost"] == ["-3/2"]


def _relative(x) -> str:
    point = {"level": 1, "perm": [0]}
    return json.dumps({"total": point, "base": point, "map": [x]})


# Each payload integer field, as a call that reads it, and a valid value.
INTEGER_SITES = {
    "qz c": (lambda x: ["qz", "sigma", "--n", "2", "--elem",
                        json.dumps({"terms": [{"r": "1/3", "c": x}]})], 2),
    "witt trunc": (lambda x: ["witt", "ghost", "--witt",
                              json.dumps({"trunc": x, "coeffs": ["1"]})], 3),
    "T coefficient": (lambda x: ["class", "convert", "--class", json.dumps({"T": [1, x]})], 3),
    "L value": (lambda x: ["class", "convert", "--class", json.dumps({"L": {"1": x}})], 3),
    "bb d": (lambda x: ["class", "bb", "--pieces",
                        json.dumps([{"class": {"T": [1]}, "d": x}])], 2),
    "action level": (lambda x: ["equivariant", "euler", "--action",
                                json.dumps({"level": x, "perm": [1, 0]})], 2),
    "action perm": (lambda x: ["equivariant", "euler", "--action",
                               json.dumps({"level": 2, "perm": [x, 0]})], 1),
    "relative map": (lambda x: ["equivariant", "sigma", "--n", "1", "--action", _relative(x)], 0),
}


def test_payload_integer_grammar(capsys):
    """A payload integer is read by the number reader and must be integral:
    "1_0", "\u0663" and "3/2" are malformed, and "4/2" reads as 2."""
    for site, (argv, v) in INTEGER_SITES.items():
        for x in [*REJECTS, "3/2", f"{2 * v + 1}/2", "1_0", "\u0663"]:
            assert run_cli(capsys, *argv(x))[:2] == (2, ""), (site, x)
        want = run_cli(capsys, *argv(v))
        assert want[0] == 0 and want[2] == "", (site, want)
        for x in (str(v), f"{2 * v}/2", f"-{v}" if v == 0 else f"{3 * v}/3"):
            assert run_cli(capsys, *argv(x)) == want, (site, x)
    for x in ("3/2", "0_1", "\u0663"):
        with pytest.raises(ValueError):
            LeveledClass.from_json({"class": {"T": [1]}, "level": x})
    assert LeveledClass.from_json({"class": {"T": [1]}, "level": "4/2"}).level == 2


def test_usage_errors(tmp_path, capsys):
    code, out, err = run_cli(capsys, "class", "points", "--class", "not json", "--m", "1")
    assert code == 2
    assert "invalid JSON" in err
    code, out, err = run_cli(capsys, "qz", "sigma", "--n", "2")
    assert code == 2  # missing payload
    with pytest.raises(SystemExit) as exc:
        main(["qz", "sigma", "--n", "2", "--elem", "{}", "--bogus"])
    assert exc.value.code == 2
    # A zero denominator in a payload is malformed input, not a domain error.
    for argv in (("qz", "sigma", "--n", "2", "--elem", '{"terms":[{"r":"1/0","c":1}]}'),
                 ("witt", "ghost", "--witt", '{"trunc":2,"coeffs":["1/0","1"]}'),
                 ("class", "convert", "--class", '{"L":[1,2]}')):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "invalid input" in err
    # Payload numbers are JSON integers or strings: floats and booleans are
    # malformed, never read as 1 or truncated.  So is JSON too deep to decode.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (("witt", "ghost", "--witt", '{"trunc":2,"coeffs":[true,1.5]}'),
                 ("qz", "split", "--primes", "2", "--elem", '{"terms":[{"r":"1/3","c":1.5}]}'),
                 ("qz", "sigma", "--n", "2", "--elem", '{"terms":[{"r":"1/3","c":1e3}]}'),
                 ("class", "bb", "--pieces", '[{"class":{"T":[1]},"d":1.5}]'),
                 ("zeta", "lefschetz", "--matrix", '{"rows":[[true]]}', "--closed"),
                 ("class", "convert", "--class", f"@{deep}")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
    # A string or object where a list is expected is malformed, never read
    # one character or key at a time.
    for argv in (("witt", "ghost", "--witt", '{"trunc":2,"coeffs":"12"}'),
                 ("witt", "ghost", "--witt", '{"trunc":2,"coeffs":{"1":1,"2":2}}'),
                 ("endo", "lmap", "--matrix", '{"matrix":"1234"}'),
                 ("class", "convert", "--class", '{"T":"123"}'),
                 ("endo", "phimu", "--rational", '{"num":"12","den":[1]}'),
                 ("endo", "phimu", "--rational", '{"num":[1],"den":"12"}'),
                 ("equivariant", "euler", "--action", '{"level":2,"perm":"10"}'),
                 ("equivariant", "sigma", "--n", "2", "--action",
                  '{"total":{"level":2,"perm":[1,0]},"base":{"level":2,"perm":[0]},"map":"00"}'),
                 ("euler", "spectral", "--matrix", '{"rows":["12","34"]}')):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "must be a JSON list" in err, argv
    # Each input check ends in its own usage message.
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    elem = '{"terms":[{"r":"1/3","c":1}]}'
    for argv, message in (
            (("zeta", "lefschetz", "--closed", "--matrix", '{"rows":[["1/2"]]}'),
             "toral maps need integer matrices"),
            (("zeta", "lefschetz", "--closed", "--matrix", '{"rows":[[1,2]]}'),
             "matrix must be square"),
            (("qz", "split", "--primes", "4", "--elem", elem), "split needs a set of primes"),
            (("qz", "split", "--primes", "a", "--elem", elem), "comma list of primes"),
            (("class", "points", "--m", "5", "--input", str(listed)),
             "must contain a JSON object"),
            (("class", "convert", "--class", '{"L":{"1/3":1}}'), "not a half-integer"),
            (("equivariant", "sigma", "--n", "2", "--action",
              '{"total":{"level":2,"perm":[1,0]},"base":{"level":2,"perm":[0]},"map":[0]}'),
             "the map must be defined on every point of the total set"),
            (("witt", "add", "--a", '{"trunc":2,"coeffs":[1,2]}',
              "--b", '{"trunc":3,"coeffs":[1,2,3]}'), "truncations differ")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv


def test_input_file(tmp_path, capsys):
    payload = tmp_path / "in.json"
    payload.write_text(json.dumps({"class": {"T": [2, 1]}}))
    data = run_json(capsys, "class", "points", "--input", str(payload), "--m", "5")
    assert data == {"count": "7"}
    direct = tmp_path / "elem.json"
    direct.write_text('{"terms":[{"r":"1/3","c":1}]}')
    data = run_json(capsys, "qz", "sigma", "--n", "2", "--elem", f"@{direct}")
    assert data == {"terms": [{"r": "2/3", "c": 1}]}
    payload.write_text(json.dumps({"class": {"T": [2, 1.5]}}))
    code, out, err = run_cli(capsys, "class", "points", "--input", str(payload), "--m", "5")
    assert (code, out) == (2, "")


REQUIRED_FLAG_VALUES = {"n": "2", "m": "2", "k": "1", "dim": "1", "primes": "2", "q": "3"}


@pytest.mark.parametrize("group,name", [(g, n) for g, (_, subs) in COMMANDS.items() for n in subs])
def test_subcommand_contract(group, name, capsys):
    """Every declared subcommand has help, and without its payloads exits 2."""
    with pytest.raises(SystemExit) as exc:
        main([group, name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: bcwitt {group} {name} ")
    flags, payloads, _ = COMMANDS[group][1][name]
    argv = [group, name]
    for flag in flags:
        if _FLAGS.get(flag, {}).get("required"):
            argv += [f"--{flag}", REQUIRED_FLAG_VALUES[flag]]
    code, out, err = run_cli(capsys, *argv)
    if payloads:
        assert (code, out) == (2, "")
        assert f"missing payload --{payloads[0]}" in err
    else:
        assert code == 0 and json.loads(out)


def test_memory_error_ends_in_the_contract(capsys, monkeypatch):
    """A MemoryError exits 1 with a domain-error JSON, not a traceback."""
    def exhausted(args, *data):
        raise MemoryError

    flags, payloads, _ = COMMANDS["qz"][1]["mul"]
    monkeypatch.setitem(COMMANDS["qz"][1], "mul", (flags, payloads, exhausted))
    elem = '{"terms":[{"r":"1/2","c":1}]}'
    code, out, err = run_cli(capsys, "qz", "mul", "--a", elem, "--b", elem)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": {"kind": "OutOfMemory",
                                         "detail": "the call ran out of memory"}}


def test_output_is_byte_stable(capsys):
    first = run_cli(capsys, "qz", "rho", "--n", "3", "--elem", '{"terms":[{"r":"0","c":1}]}')
    second = run_cli(capsys, "qz", "rho", "--n", "3", "--elem", '{"terms":[{"r":"0","c":1}]}')
    assert first == second
    assert first[1] == '{"terms":[{"r":"0","c":1},{"r":"1/3","c":1},{"r":"2/3","c":1}]}\n'
