import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import padicfft
from padicfft.cli import main
from padicfft.polyio import PolyData, read_poly, write_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_example(capsys):
    code, out, _ = run(capsys, "plan", "-p", "3", "-N", "100")
    assert code == 0
    assert "r=2" in out and "s=104" in out and "d=6" in out
    assert "axes=8:2 13:3" in out.splitlines()  # each prime power of s with its subring degree ord_g(3)
    # each end's basis change: folded into the end stage's maps, or a pass of its own (at s=12584 on either
    # backend); digit arrays, past 2^51, pass from a lower limit, so s=2736 passes at 7^32 and folds at 7^16,
    # and a plan of one tensor factor has no basis change
    assert "basis=in:fold out:fold" in out.splitlines()
    for args, size, line in ((("-p", "3", "-N", "1000"), "s=12584 = 2^3 * 11^2 * 13", "basis=in:pass out:pass"),
                             (("-p", "3", "-N", "1000", "-K", "40"), "s=12584 = 2^3 * 11^2 * 13",
                              "basis=in:pass out:pass"),
                             (("-p", "7", "-N", "1000", "-K", "16"), "s=2736 = 2^4 * 3^2 * 19",
                              "basis=in:fold out:fold"),
                             (("-p", "7", "-N", "1000", "-K", "32"), "s=2736 = 2^4 * 3^2 * 19",
                              "basis=in:pass out:pass")):
        code, out, _ = run(capsys, "plan", *args)
        assert code == 0 and size in out and line in out.splitlines()
    code, out, _ = run(capsys, "plan", "-p", "5", "-N", "20")
    assert code == 0 and "s=24 = 2^3 * 3" in out and "basis=" not in out
    code, _, err = run(capsys, "plan", "-p", "3", "-N", "100", "-K", "0")
    assert code == 3 and err.startswith("error precondition BadInput")


def test_root_example(capsys):
    code, out, _ = run(capsys, "root", "-p", "19", "-s", "5", "-K", "2", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "f = 1 + 5*X + X^2  (mod 19)"
    assert lines[1] == "F = 1 + 43*X + X^2  (mod 19^2)"
    assert lines[2].startswith("alpha = ")


def test_mul_example(tmp_path, capsys):
    a = tmp_path / "a.poly"
    write_poly(a, PolyData(3, 4, 0, [1, 1]))
    out_path = tmp_path / "sq.poly"
    code, _, _ = run(capsys, "mul", str(a), str(a), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == "3 4\n0\n1\n2\n1\n"


def test_mul_with_a_given_length_matches_the_default(tmp_path, capsys):
    # -s and -N build the one plan they name and multiply on it; the product file is the default path's, byte for byte
    rng = random.Random(49)
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    write_poly(a, PolyData(7, 16, 2, [rng.randrange(7**16) for _ in range(40)]))
    write_poly(b, PolyData(7, 16, -1, [rng.randrange(7**16) for _ in range(30)]))
    outputs = []
    for flags in ((), ("-s", "96"), ("-N", "100")):
        out_path = tmp_path / f"c{len(outputs)}.poly"
        assert run(capsys, "mul", str(a), str(b), "-o", str(out_path), *flags)[0] == 0
        outputs.append(out_path.read_bytes())
    assert outputs[1] == outputs[2] == outputs[0]


def test_dft_more_coefficients_than_s(tmp_path, capsys):
    src = tmp_path / "f.poly"
    write_poly(src, PolyData(3, 4, 0, list(range(1, 10))))
    code, _, err = run(capsys, "dft", "-i", str(src), "-o", str(tmp_path / "f.evals"), "-s", "8")
    assert code == 3 and err.startswith("error precondition LengthMismatch: 9 coefficients do not fit in length 8")


def test_mismatched_files_are_refused_before_the_build(tmp_path, capsys, monkeypatch):
    # the length and the ring degree follow from p and s alone, so no tower, lift or plan is built to refuse them
    def tripwire(*args, **kwargs):
        raise AssertionError("build_pipeline ran")

    monkeypatch.setattr(padicfft.cli, "build_pipeline", tripwire)
    src, evals = tmp_path / "f.poly", tmp_path / "f.evals"
    write_poly(src, PolyData(3, 4, 0, list(range(1, 10))))
    evals.write_text("4 3\n0\n" + "0\n" * 12)  # ord_4(3) = 2
    out = str(tmp_path / "out")
    for argv in (("dft", "-i", str(src), "-o", out, "-s", "8"), ("dft", "-i", str(src), "-o", out, "-N", "5"),
                 ("idft", "-i", str(evals), "-o", out, "-p", "3", "-K", "4")):
        code, _, err = run(capsys, *argv)
        assert code == 3 and len(err.splitlines()) == 1 and err.startswith("error precondition LengthMismatch")
    assert "ring for (p=3, s=4) has 2" in err


def test_mul_past_the_planner_length_12584(tmp_path, capsys):
    # without -s or -N the product plans s = 13754312 (d = 210) and runs on a divisor of it in its own ring
    rng = random.Random(12585)
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    f, g = ([rng.randrange(3**4) for _ in range(n)] + [1] for n in (6300, 6400))
    write_poly(a, PolyData(3, 4, 1, f))
    write_poly(b, PolyData(3, 4, -3, g))
    code, _, _ = run(capsys, "mul", str(a), str(b), "-o", str(tmp_path / "c.poly"))
    assert code == 0
    want = np.convolve(np.array(f, dtype=np.int64), np.array(g, dtype=np.int64)) % 3**4  # sums below 2^26
    assert read_poly(tmp_path / "c.poly") == PolyData(3, 4, -2, want.tolist())


def test_mul_header_mismatch(tmp_path, capsys):
    a = tmp_path / "a.poly"
    b = tmp_path / "b.poly"
    write_poly(a, PolyData(3, 4, 0, [1, 1]))
    write_poly(b, PolyData(5, 4, 0, [1, 1]))
    code, _, err = run(capsys, "mul", str(a), str(b), "-o", str(tmp_path / "c.poly"))
    assert code == 2 and "error usage" in err
    # explicit override resolves the disagreement
    code, _, _ = run(capsys, "mul", str(a), str(b), "-o", str(tmp_path / "c.poly"), "-p", "3", "-K", "4")
    assert code == 0


def test_dft_idft_file_round_trip(tmp_path, capsys):
    src = tmp_path / "f.poly"
    write_poly(src, PolyData(3, 4, -2, [1, 0, 2, 80]))
    evals = tmp_path / "f.evals"
    code, _, _ = run(capsys, "dft", "-i", str(src), "-o", str(evals), "-s", "8")
    assert code == 0
    assert evals.read_text().splitlines()[0] == "8 2"
    back = tmp_path / "back.poly"
    code, _, _ = run(capsys, "idft", "-i", str(evals), "-o", str(back), "-p", "3", "-K", "4")
    assert code == 0
    assert back.read_bytes() == src.read_bytes()


def test_dft_output_is_deterministic(tmp_path, capsys):
    src = tmp_path / "f.poly"
    write_poly(src, PolyData(3, 8, 0, [7, 11, 13]))
    one = tmp_path / "one.evals"
    two = tmp_path / "two.evals"
    assert run(capsys, "dft", "-i", str(src), "-o", str(one), "-N", "20")[0] == 0
    assert run(capsys, "dft", "-i", str(src), "-o", str(two), "-N", "20")[0] == 0
    assert one.read_bytes() == two.read_bytes()


def test_dft_planner_default_uses_degree(tmp_path, capsys):
    src = tmp_path / "f.poly"
    write_poly(src, PolyData(3, 2, 0, [1, 1, 1]))
    evals = tmp_path / "f.evals"
    code, _, _ = run(capsys, "dft", "-i", str(src), "-o", str(evals))
    assert code == 0
    assert evals.read_text().splitlines()[0] == "8 2"  # planner at N=2 gives s=8


def test_exit_code_usage(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("x y\n0\n")
    code, _, err = run(capsys, "dft", "-i", str(bad), "-o", str(tmp_path / "o"), "-s", "4")
    assert code == 2 and err.startswith("error usage")
    code, _, err = run(capsys, "dft", "-i", str(tmp_path / "nope"), "-o", str(tmp_path / "o"), "-s", "4")
    assert code == 2 and "OSError" in err
    # bytes that are not UTF-8 are a format error too, not a traceback
    good = tmp_path / "good.poly"
    write_poly(good, PolyData(3, 4, 0, [1, 1]))
    bad.write_bytes(b"3 4\n0\n1\xff\n")
    for argv in (["mul", str(good), str(bad)], ["dft", "-i", str(bad), "-s", "8"],
                 ["idft", "-i", str(bad), "-p", "3", "-K", "4"]):
        code, _, err = run(capsys, *argv, "-o", str(tmp_path / "o"))
        assert code == 2 and len(err.splitlines()) == 1 and err.startswith("error usage FileFormatError")
    assert not (tmp_path / "o").exists()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # argparse's own errors are one `error usage` line too
    for argv in (["dft", "-i", str(bad), "-o", str(tmp_path / "o"), "-s", "8", "--engine", "numpy"],
                 ["plan", "-p", "3", "-N", "abc"], ["frobnicate"],
                 ["selftest", "--only", "abc"], ["selftest", "--only", "99"], ["selftest", "--only", "0"],
                 ["selftest", "--only", "1,,2"], ["selftest", "--only", ""], ["selftest", "--only", "-1"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error usage")
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--help"])
    assert exc.value.code == 0


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, "plan", "-p", "4", "-N", "10")
    assert code == 3 and err.startswith("error precondition")
    code, _, err = run(capsys, "root", "-p", "3", "-s", "9", "-K", "1")
    assert code == 3  # s not coprime to p
    code, out, err = run(capsys, "root", "-p", "0", "-s", "4", "-K", "2")  # refused before the tower divides by p
    assert code == 3 and out == "" and len(err.splitlines()) == 1 and err.startswith("error precondition BadInput")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["root", "plan"]), st.integers(-1, 13), st.integers(-1, 21), st.integers(-1, 4))
def test_root_and_plan_keep_the_exit_contract(capsys, command, p, size, K):
    # small p, s (root) or N (plan) and K, with s <= 21 so that each tower is quick: every input ends in exit 0, 2, 3
    # or 4, and a nonzero exit prints exactly one stderr line; an exception that escapes main fails the test
    capsys.readouterr()
    try:
        code = main([command, "-p", str(p), "-s" if command == "root" else "-N", str(size), "-K", str(K)])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error ") and "Traceback" not in err


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_file_commands_keep_the_exit_contract(tmp_path, capsys, data):
    # dft, idft and mul on generated files: small p (primes and not), K, s or N, up to 7 coefficients just inside
    # or outside [0, p^K), mul headers that may disagree, idft bodies a line short or long; every input ends in
    # exit 0, 2, 3 or 4, and a nonzero exit prints exactly one stderr line
    command = data.draw(st.sampled_from(["dft", "idft", "mul"]))
    # odd primes half the time, so that runs which pass every check are not rare
    primes = st.one_of(st.sampled_from([3, 5, 7, 13]), st.sampled_from([-1, 0, 1, 2, 9]))
    precisions = st.integers(-1, 4)
    p, K = data.draw(primes), data.draw(precisions)

    def poly(path, p, K):
        bound = p**K if K >= 0 else 1
        inside = [0, 1, bound // 2, bound - 1]
        coeffs = data.draw(st.lists(st.sampled_from(inside if data.draw(st.booleans()) else inside + [-1, bound]),
                                    max_size=7))
        path.write_text("".join(f"{x}\n" for x in [f"{p} {K}", 0, *coeffs]))
        return str(path)

    size = [] if command == "idft" else data.draw(st.sampled_from([[], ["-s"], ["-N"]]))
    size += [str(data.draw(st.integers(-1, 21)))] if size else []
    out = str(tmp_path / "out")
    if command == "dft":
        argv = ["dft", "-i", poly(tmp_path / "f.poly", p, K), "-o", out, *size]
    elif command == "mul":
        other = (p, K) if data.draw(st.booleans()) else (data.draw(primes), data.draw(precisions))
        argv = ["mul", poly(tmp_path / "f.poly", p, K), poly(tmp_path / "g.poly", *other), "-o", out, *size]
    else:
        s, d = data.draw(st.integers(-1, 21)), data.draw(st.integers(-1, 7))
        lines = max(0, s * d) + data.draw(st.sampled_from([-1, 0, 1]))
        body = data.draw(st.lists(st.sampled_from([0, 1, max(0, p) ** max(0, K)]), min_size=max(0, lines),
                                  max_size=max(0, lines)))
        (tmp_path / "e.evals").write_text("".join(f"{x}\n" for x in [f"{s} {d}", 0, *body]))
        argv = ["idft", "-i", str(tmp_path / "e.evals"), "-o", out, "-p", str(p), "-K", str(K)]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    if code:
        assert len(err.splitlines()) == 1 and err.startswith("error ") and "Traceback" not in err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(unbuffered):
    # a reader that has gone (as `| head` goes after its lines): stdout a pipe whose read end is closed, so each
    # write to it breaks, whether in a print (unbuffered) or in the last flush; exit 0 and no stderr line
    env = {**os.environ, "PYTHONPATH": str(Path(padicfft.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "padicfft.cli", "plan", "-p", "3", "-N", "100"], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_huge_precision_is_refused_at_once(tmp_path, capsys):
    # a p^K wider than the float64 kernels' bound is refused before p^K is built: on the command line (exit 3) and
    # in a file header (exit 2), with one stderr line each, within a second; plan too, whose basis routes need p^K
    a, big = tmp_path / "a.poly", tmp_path / "big.poly"
    write_poly(a, PolyData(3, 8, 0, [1, 2, 3]))
    big.write_text("3 99999999999\n0\n1\n2\n")
    for argv, want in ((("mul", str(a), str(a), "-o", str(tmp_path / "o"), "-K", "100000000000"), 3),
                       (("mul", str(big), str(big), "-o", str(tmp_path / "o")), 2),
                       (("plan", "-p", "3", "-N", "1000", "-K", "10000000"), 3)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == want and out == "" and len(err.splitlines()) == 1 and "is wider than" in err
    assert not (tmp_path / "o").exists()


def test_residues_past_the_interpreters_digit_limit(tmp_path, capsys):
    # 3^1400 has 668 digits, past a digit limit of 640 on CPython's int <-> str conversions: mul, dft, idft and root
    # write the same bytes under it as under the default limit, which each command leaves as it was
    rng = random.Random(5)
    src = tmp_path / "a.poly"
    write_poly(src, PolyData(3, 1400, 0, [rng.randrange(3**1400) for _ in range(3)]))

    def outputs(out):
        out.mkdir()
        codes = [run(capsys, *map(str, argv))[0] for argv in (
            ("mul", src, src, "-o", out / "mul.poly"),
            ("dft", "-i", src, "-o", out / "dft.evals", "-s", 4),
            ("idft", "-i", tmp_path / "default" / "dft.evals", "-o", out / "idft.poly", "-p", 3, "-K", 1400))]
        code, text, _ = run(capsys, "root", "-p", "3", "-s", "2", "-K", "1400")
        (out / "root.txt").write_text(text)
        return codes + [code], {path.name: path.read_bytes() for path in out.iterdir()}

    want = outputs(tmp_path / "default")
    assert want[0] == [0] * 4 and want[1]["idft.poly"] == src.read_bytes()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert outputs(tmp_path / "low") == want
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_exit_code_internal(tmp_path, capsys):
    # an evaluation vector that is not the transform of any polynomial file
    evals = tmp_path / "fake.evals"
    evals.write_text("4 2\n0\n0\n1\n" + "0\n" * 6)
    code, _, err = run(capsys, "idft", "-i", str(evals), "-o", str(tmp_path / "o.poly"),
                       "-p", "3", "-K", "4")
    assert code == 4 and err.startswith("error internal")


def test_out_of_range_coordinates_are_refused(tmp_path, capsys):
    # coordinates must lie in [0, p^K); they used to be reduced silently
    evals = tmp_path / "big.evals"
    evals.write_text("2 1\n0\n5\n7\n")
    out = tmp_path / "o.poly"
    code, _, err = run(capsys, "idft", "-i", str(evals), "-o", str(out), "-p", "3", "-K", "1")
    assert code == 3 and len(err.splitlines()) == 1 and err.startswith("error precondition BadInput")
    src = tmp_path / "f.poly"
    write_poly(src, PolyData(3, 4, 0, [1, 80]))
    code, _, err = run(capsys, "dft", "-i", str(src), "-o", str(out), "-s", "8", "-K", "2")
    assert code == 3 and len(err.splitlines()) == 1 and err.startswith("error precondition BadInput")
    assert not out.exists()


def test_idft_degree_mismatch(tmp_path, capsys):
    evals = tmp_path / "bad.evals"
    evals.write_text("4 3\n0\n" + "0\n" * 12)
    code, _, err = run(capsys, "idft", "-i", str(evals), "-o", str(tmp_path / "o.poly"),
                       "-p", "3", "-K", "4")
    assert code == 3 and "degree" in err


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "1,2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("criterion")]
    assert len(lines) == 2
    assert all("PASS" in l for l in lines)


def test_bench_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "bench", "-p", "3", "-N", "10", "50", "-K", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith(",measured_mults")
    assert len(lines) == 3
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "bench", "-p", "3", "-N", "10", "-K", "4",
                       "--no-measure", "-o", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("N,r,s,d,")
    assert "measured" not in text
