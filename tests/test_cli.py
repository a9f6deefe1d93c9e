"""CLI subcommands: artifacts, schema validity, reproducibility, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hmt
import hmt.cli
import hmt.limits
import hmt.parallel
import hmt.spectra
from hmt.cli import (
    DEFAULT_SEED,
    EIGENVALUE_BUDGET,
    EXIT_CAPACITY,
    EXIT_INVALID,
    EXIT_NUMERIC,
    EXIT_OK,
    HISTOGRAM_BIN_BUDGET,
    SIMULATE_ORDER_CAP,
    build_parser,
    main,
)
from hmt.errors import NumericError
from hmt.limits import MC_DRAW_BUDGET, MC_ENUM_CHARGE, MC_WORD_CHARGE


@pytest.fixture(scope="module")
def schema():
    text = resources.files("hmt").joinpath("schemas/artifact.schema.json").read_text()
    return json.loads(text)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestWordsCommand:
    def test_k2_table(self, capsys):
        code, out, _ = run(["words", "--k", "2"], capsys)
        assert code == EXIT_OK
        rows = {row["word"]: row for row in parse_csv(out)}
        assert set(rows) == {"aabb", "abba", "abab"}
        assert rows["aabb"]["p_toeplitz"] == "1"
        assert rows["abba"]["p_toeplitz"] == "1"
        assert rows["abab"]["p_toeplitz"] == "2/3"
        assert rows["abab"]["p_hankel"] == "0"
        assert rows["abab"]["irreducible"] == "True"
        assert rows["aabb"]["noncrossing"] == "True"

    def test_k1_single_row(self, capsys):
        code, out, _ = run(["words", "--k", "1"], capsys)
        rows = parse_csv(out)
        assert code == EXIT_OK and len(rows) == 1
        assert rows[0]["word"] == "aa" and rows[0]["height"] == "1"

    def test_json_schema_valid(self, capsys, schema):
        code, out, _ = run(["words", "--k", "2", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["command"] == "words"

    def test_mc_method_has_stderr(self, capsys):
        code, out, _ = run(
            ["words", "--k", "2", "--method", "mc", "--samples", "20000"], capsys
        )
        rows = {row["word"]: row for row in parse_csv(out)}
        assert code == EXIT_OK
        est = float(rows["abab"]["p_toeplitz"])
        se = float(rows["abab"]["p_toeplitz_stderr"])
        assert abs(est - 2.0 / 3.0) <= 4 * se
        # the hankel closure short-circuit stays exact even under mc
        assert rows["abab"]["p_hankel"] == "0"

    def test_cap_errors(self, capsys):
        code, _, err = run(["words", "--k", "0"], capsys)
        assert code == EXIT_INVALID and "invalid" in err
        code, _, err = run(["words", "--k", "7", "--method", "exact"], capsys)
        assert code == EXIT_CAPACITY and "capacity" in err
        code, _, err = run(["words", "--k", "9"], capsys)
        assert code == EXIT_CAPACITY and "capacity" in err

    def test_caps_checked_before_enumerating(self, capsys, monkeypatch):
        # auto resolves to exact volumes at k = 5, which draw no samples
        code, _, _ = run(["words", "--k", "5", "--samples", "0"], capsys)
        assert code == EXIT_OK

        class Enumerated(Exception):
            pass

        def stub(k):
            raise Enumerated(k)

        for module, name in ((hmt.cli, "enumerate_words"), (hmt.limits, "enumerate_words")):
            monkeypatch.setattr(module, name, stub)
        # Monte Carlo draws: MC_ENUM_CHARGE per word enumerated, (2k-1)!! of them,
        # plus MC_WORD_CHARGE + samples * (k + 1) per word system built, (2k-1)!!
        # for Toeplitz and k! for Hankel, whose other words (letters not at one
        # odd and one even place) have volume 0
        def most_samples(words, systems, k):
            return ((MC_DRAW_BUDGET - words * MC_ENUM_CHARGE) // systems
                    - MC_WORD_CHARGE) // (k + 1)

        words_k7 = most_samples(135135, 135135 + 5040, 7)
        toeplitz_m14 = most_samples(135135, 135135, 7)
        hankel_m16 = most_samples(2027025, 40320, 8)
        assert (words_k7, toeplitz_m14, hankel_m16) == (14172, 14739, 40712)
        # enumerating the k = 8 words and building their Toeplitz systems alone
        # is over the budget
        assert most_samples(2027025, 2027025 + 40320, 8) < 0
        assert most_samples(2027025, 2027025, 8) < 0
        # k = 8 has 2,027,025 words; auto resolves to mc from k = 7 on
        for argv, want in ((["--k", "7", "--method", "exact"], EXIT_CAPACITY),
                           (["--k", "8", "--method", "exact"], EXIT_CAPACITY),
                           (["--k", "7", "--method", "mc", "--samples", "0"], EXIT_INVALID),
                           (["--k", "7", "--samples", "0"], EXIT_INVALID),
                           (["--k", "7"], EXIT_CAPACITY),
                           (["--k", "8", "--method", "mc"], EXIT_CAPACITY),
                           (["--k", "8", "--method", "mc", "--samples", "1"], EXIT_CAPACITY),
                           (["--k", "7", "--samples", str(words_k7 + 1)], EXIT_CAPACITY)):
            code, out, _ = run(["words", *argv], capsys)
            assert (code, out) == (want, ""), argv
        for argv in (["--family", "toeplitz", "--order", "14"],
                     ["--family", "toeplitz", "--max-order", "14"],
                     ["--family", "toeplitz", "--order", "14", "--samples",
                      str(toeplitz_m14 + 1)],
                     ["--family", "toeplitz", "--order", "16", "--samples", "1"],
                     ["--family", "hankel", "--order", "16", "--samples", str(hankel_m16 + 1)]):
            code, out, _ = run(["moments", *argv, "--method", "mc"], capsys)
            assert (code, out) == (EXIT_CAPACITY, ""), argv
        # the most samples within the budget reach the enumerator
        for argv in (["words", "--k", "7", "--samples", str(words_k7)],
                     ["moments", "--family", "toeplitz", "--order", "14", "--method", "mc",
                      "--samples", str(toeplitz_m14)],
                     ["moments", "--family", "hankel", "--order", "16", "--method", "mc",
                      "--samples", str(hankel_m16)]):
            with pytest.raises(Enumerated):
                main(argv)


class TestMomentsCommand:
    def test_hankel_exact_table(self, capsys):
        code, out, _ = run(
            ["moments", "--family", "hankel", "--max-order", "8"], capsys
        )
        assert code == EXIT_OK
        by_order = {int(r["order"]): r for r in parse_csv(out)}
        assert by_order[2]["value"] == "1"
        assert by_order[4]["value"] == "2"
        assert by_order[6]["value"] == "11/2"
        assert by_order[8]["value"] == "281/15"
        assert by_order[8]["numerator"] == "281" and by_order[8]["denominator"] == "15"
        for odd in (1, 3, 5, 7):
            assert by_order[odd]["value"] == "0"

    def test_markov_exact(self, capsys):
        code, out, _ = run(["moments", "--family", "markov", "--max-order", "4"], capsys)
        by_order = {int(r["order"]): r for r in parse_csv(out)}
        assert code == EXIT_OK
        assert by_order[2]["value"] == "2" and by_order[4]["value"] == "9"

    def test_toeplitz_single_order(self, capsys):
        code, out, _ = run(["moments", "--family", "toeplitz", "--order", "4"], capsys)
        rows = parse_csv(out)
        assert code == EXIT_OK and len(rows) == 1
        assert rows[0]["value"] == "8/3"

    def test_mc_brackets_exact(self, capsys):
        code, out, _ = run(
            ["moments", "--family", "toeplitz", "--order", "4", "--method", "mc",
             "--samples", "100000", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        row = payload["results"][0]
        assert abs(row["value"] - 8.0 / 3.0) <= 3 * row["stderr"]

    def test_single_order_samples_only_its_words(self, capsys, monkeypatch):
        calls = []
        real = hmt.limits.volumes_mc
        monkeypatch.setattr(
            hmt.limits, "volumes_mc", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        code, out, _ = run(
            ["moments", "--family", "toeplitz", "--order", "6", "--method", "mc",
             "--samples", "1000"],
            capsys,
        )
        assert code == EXIT_OK and len(parse_csv(out)) == 1
        assert len(calls) == 15  # the 15 words of length 6, none of orders 2 and 4

    @pytest.mark.parametrize("k, flags, wants", [
        (4, ["--method", "mc", "--samples", "5000", "--seed", "7"],
         {"toeplitz": 60.598800000000033, "hankel": 18.744800000000001}),
        (5, ["--method", "exact"], {"toeplitz": Fraction(415), "hankel": Fraction(2717, 36)}),
    ], ids=["mc", "exact"])
    def test_word_table_sums_to_the_moment(self, capsys, k, flags, wants):
        # both commands read limits.word_volumes: the same volume per word, and
        # under mc the same stream per (seed, k, word index)
        code, out, _ = run(["words", "--k", str(k), *flags], capsys)
        assert code == EXIT_OK
        rows = parse_csv(out)
        for family, want in wants.items():
            kind = type(want)
            total = kind(0)
            for row in rows:
                total += kind(row[f"p_{family}"])
            code, out, _ = run(["moments", "--family", family, "--order", str(2 * k), *flags],
                               capsys)
            assert code == EXIT_OK
            assert kind(parse_csv(out)[0]["value"]) == total == want, family

    def test_json_schema_valid(self, capsys, schema):
        code, out, _ = run(
            ["moments", "--family", "toeplitz", "--max-order", "6", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        jsonschema.validate(json.loads(out), schema)

    def test_mc_zero_samples_rejected(self, capsys):
        for argv in (["--order", "4"], ["--max-order", "4"]):
            code, out, _ = run(
                ["moments", "--family", "toeplitz", *argv, "--method", "mc", "--samples", "0"],
                capsys,
            )
            assert code == EXIT_INVALID and out == ""

    def test_odd_order_rejected(self, capsys):
        code, _, err = run(["moments", "--family", "toeplitz", "--order", "3"], capsys)
        assert code == EXIT_INVALID

    def test_capacity_exceeded(self, capsys):
        # one order above the exact toeplitz cap (order 20)
        code, _, err = run(
            ["moments", "--family", "toeplitz", "--max-order", "22"], capsys
        )
        assert code == EXIT_CAPACITY

    def test_exact_order_fourteen(self, capsys):
        for family, value in (("toeplitz", "325719/10"), ("hankel", "1331087/720")):
            code, out, _ = run(["moments", "--family", family, "--order", "14"], capsys)
            assert code == EXIT_OK
            assert parse_csv(out)[0]["value"] == value


class TestSimulateCommand:
    def test_artifacts(self, capsys, tmp_path, schema):
        prefix = str(tmp_path / "run")
        code, out, _ = run(
            ["simulate", "--ensemble", "toeplitz", "--n", "64", "--replicates", "4",
             "--dist", "rademacher", "--output-prefix", prefix],
            capsys,
        )
        assert code == EXIT_OK
        eig_lines = (tmp_path / "run_eigenvalues.csv").read_text().strip().split("\n")
        assert eig_lines[0] == "eigenvalue"
        assert len(eig_lines) == 1 + 64 * 4
        hist_text = (tmp_path / "run_histogram.csv").read_text()
        assert hist_text.startswith("bin_left,bin_right,count,density\n")
        rows = parse_csv(hist_text)
        mass = sum(
            float(r["density"]) * (float(r["bin_right"]) - float(r["bin_left"]))
            for r in rows
        )
        assert mass == pytest.approx(1.0)
        payload = json.loads((tmp_path / "run_moments.json").read_text())
        jsonschema.validate(payload, schema)
        m2 = next(r for r in payload["results"] if r["order"] == 2)
        assert m2["mean"] == pytest.approx(1.0, rel=0.1)

    def test_scale_n_flag(self, capsys, tmp_path):
        prefix = str(tmp_path / "scaled")
        code, _, _ = run(
            ["simulate", "--ensemble", "markov", "--n", "48", "--replicates", "2",
             "--dist", "shifted_gaussian", "--mean", "1.0", "--scale", "n",
             "--output-prefix", prefix],
            capsys,
        )
        assert code == EXIT_OK
        values = [
            float(line)
            for line in (tmp_path / "scaled_eigenvalues.csv").read_text().split("\n")[1:-1]
        ]
        assert min(values) > -3.0 and max(values) < 1.0  # 1/n scaling compresses

    def test_budget(self, capsys, tmp_path):
        code, _, err = run(
            ["simulate", "--ensemble", "toeplitz", "--n", "8192",
             "--replicates", "2048", "--output-prefix", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_CAPACITY

    def test_matrix_budget_checked_before_sampling(self, capsys, monkeypatch, tmp_path):
        class Sampled(Exception):
            pass

        calls = []

        def stub(ensemble, n, *args):
            calls.append(n)
            raise Sampled

        monkeypatch.setattr(hmt.cli, "sample_matrix", stub)
        # one replicate in flight by default, so each run reaches the stub once
        monkeypatch.setattr(hmt.parallel, "usable_cpus", lambda: 1)
        prefix = str(tmp_path / "x")

        def simulate(n, replicates):
            return ["simulate", "--ensemble", "toeplitz", "--n", str(n),
                    "--replicates", str(replicates), "--output-prefix", prefix]

        def norm_scan(ns, replicates):
            return ["norm-scan", "--ns", ns, "--replicates", str(replicates)]

        # matrices in flight: min(threads, replicates) * n^2 <= 2^26; work budgets:
        # replicates * max(n^3, 2^21) <= 2^40 and replicates * sum(max(n^2, 2^17))
        # <= 2^31; replicates * n <= 2^20 pooled eigenvalues
        for argv in (["simulate", "--ensemble", "toeplitz", "--n", "8193",
                      "--replicates", "1", "--output-prefix", prefix],
                     ["simulate", "--ensemble", "markov", "--n", "100000",
                      "--replicates", "1", "--output-prefix", prefix],
                     ["norm-scan", "--ns", "16,8193", "--replicates", "1"],
                     simulate(8192, 3), simulate(1024, 1025),
                     simulate(16, 1) + ["--bins", str(HISTOGRAM_BIN_BUDGET + 1)],
                     norm_scan("8192", 33), norm_scan("4096,8192", 26),
                     ["simulate", "--ensemble", "hankel", "--n", "8192", "--replicates", "2",
                      "--threads", "2", "--output-prefix", prefix],
                     norm_scan("8192", 2) + ["--threads", "2"],
                     simulate(1, 10**9), simulate(8, 2 * 10**9), simulate(1, 2**19 + 1),
                     simulate(16, EIGENVALUE_BUDGET // 16 + 1),
                     simulate(16, 1) + ["--max-order", "2000000000", "--scale", "n"],
                     simulate(16, 1) + ["--max-order", str(SIMULATE_ORDER_CAP + 2)],
                     norm_scan("1", 10**10), norm_scan("1", 2**14 + 1),
                     norm_scan("64,1", 2**13 + 1)):
            code, _, err = run(argv, capsys)
            assert code == EXIT_CAPACITY and "capacity" in err
        # histogram bins and the moment order are checked before sampling too
        for flags in (["--bins", "0"], ["--bins", "-3"], ["--max-order", "7"],
                      ["--max-order", "-2"]):
            code, _, err = run(simulate(16, 1) + flags, capsys)
            assert code == EXIT_INVALID and "invalid" in err, flags
        assert calls == []
        assert list(tmp_path.iterdir()) == []
        # one n = 8192 matrix (512 MB of float64) in flight is within the budget
        # and reaches the sampler
        for argv in (["simulate", "--ensemble", "toeplitz", "--n", "8192",
                      "--replicates", "1", "--output-prefix", prefix],
                     ["norm-scan", "--ns", "8192", "--replicates", "1"],
                     simulate(8192, 2), simulate(1024, 1024),
                     ["simulate", "--ensemble", "hankel", "--n", "8192", "--replicates", "2",
                      "--threads", "1", "--output-prefix", prefix],
                     ["simulate", "--ensemble", "hankel", "--n", "8192", "--replicates", "1",
                      "--threads", "2", "--output-prefix", prefix],
                     norm_scan("8192", 32), norm_scan("4096,8192", 25),
                     simulate(1, 2**19), simulate(16, EIGENVALUE_BUDGET // 16),
                     simulate(16, 1) + ["--max-order", str(SIMULATE_ORDER_CAP)],
                     norm_scan("1", 2**14), norm_scan("64,1", 2**13)):
            with pytest.raises(Sampled):
                main(argv)
        # norm-scan samples its largest size first, whatever the --ns order
        assert calls == [8192, 8192, 8192, 1024, 8192, 8192, 8192, 8192, 1, 16, 16, 1, 64]

    @staticmethod
    def simulate_peaks(tmp_path, ensemble: str) -> dict[int, int]:
        """VmHWM in bytes of `simulate --replicates 1` at n = 16 and 2048, each
        run in a fresh interpreter.  The child reads its peak as VmHWM, not
        ru_maxrss: Linux keeps ru_maxrss across execve, so a child would
        report at least the RSS of this process."""
        src = str(Path(hmt.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = ("import re, sys; from hmt.cli import main; code = main(sys.argv[1:]); "
                 "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1]); "
                 "sys.exit(code)")
        peaks = {}
        for n in (16, 2048):
            proc = subprocess.run(
                [sys.executable, "-c", child, "simulate", "--ensemble", ensemble, "--n", str(n),
                 "--replicates", "1", "--output-prefix", str(tmp_path / f"{ensemble}{n}")],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            peaks[n] = int(proc.stdout.split()[-1]) * 1024
        return peaks

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmHWM")
    def test_full_solve_holds_one_matrix(self, tmp_path):
        # the Hankel sample is a window of 2n - 1 entries, copied once,
        # C-ordered, for the solve to overwrite: at n = 2048 (32 MiB of
        # float64) the child peaks about 1.03 x 32 MiB above an n = 16 twin,
        # where a solve on a copy of that copy would peak about 2 x 32 MiB
        # above it
        peaks = self.simulate_peaks(tmp_path, "hankel")
        matrix_bytes = 2048 * 2048 * 8
        assert peaks[2048] - peaks[16] < 1.5 * matrix_bytes, peaks

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmHWM")
    def test_threaded_draw_holds_one_matrix(self, tmp_path):
        # at n = 2048 the markov triangle is drawn in row blocks, one thread
        # each where two or more CPUs are usable; every block writes its rows
        # into the one matrix, so the child still peaks about 1.0 x 32 MiB
        # above an n = 16 twin, with no second matrix and no per-block buffer
        # of that size
        peaks = self.simulate_peaks(tmp_path, "markov")
        matrix_bytes = 2048 * 2048 * 8
        assert peaks[2048] - peaks[16] < 1.1 * matrix_bytes, peaks

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmHWM")
    def test_toeplitz_split_holds_one_matrix(self, tmp_path):
        # the Toeplitz sample is a window of 2n - 1 entries, and the two
        # half-size blocks (8 MiB each at n = 2048) are formed from it one at
        # a time: the child peaks 0.288-0.294 x 32 MiB above an n = 16 twin
        # (three runs each, 2-core x86-64 VM), one block and LAPACK's work
        # space.  Both blocks at once would peak about 0.5 x, and an n x n
        # matrix 1.0 x or more
        peaks = self.simulate_peaks(tmp_path, "toeplitz")
        matrix_bytes = 2048 * 2048 * 8
        assert peaks[2048] - peaks[16] < 0.35 * matrix_bytes, peaks

    def test_overflowing_moment_writes_no_file(self, capsys, tmp_path):
        # 2^1600 overflows a double: the moments would hold inf, which JSON cannot
        code, _, err = run(
            ["simulate", "--ensemble", "wigner", "--n", "8", "--replicates", "2",
             "--max-order", "1600", "--bins", "10", "--output-prefix", str(tmp_path / "x")],
            capsys,
        )
        assert code == EXIT_NUMERIC and "not finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_toeplitz_second_moment_near_one(self, capsys, tmp_path):
        prefix = str(tmp_path / "big")
        code, _, _ = run(
            ["simulate", "--ensemble", "toeplitz", "--n", "1024",
             "--replicates", "20", "--output-prefix", prefix],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "big_moments.json").read_text())
        m2 = next(r for r in payload["results"] if r["order"] == 2)
        assert abs(m2["mean"] - 1.0) <= 0.02


@pytest.fixture
def blas_threads():
    """(get, set) of scipy's OpenBLAS thread count, set to 2 for the test
    and put back after it; skips where scipy's BLAS has no thread setter."""
    functions = hmt.spectra._openblas_threads()
    if functions is None:
        pytest.skip("scipy's BLAS exports no thread setter")
    get, set_ = functions
    before = get()
    set_(2)
    yield get, set_
    set_(before)


class TestSimulateThreads:
    """simulate solves replicates side by side, each on one BLAS thread."""

    def argv(self, tmp_path, n=16, replicates=4):
        return ["simulate", "--ensemble", "hankel", "--n", str(n), "--replicates",
                str(replicates), "--output-prefix", str(tmp_path / "x")]

    def test_blas_thread_count_restored(self, blas_threads, capsys, monkeypatch, tmp_path):
        get, _ = blas_threads
        seen = []
        solve = hmt.cli.empirical_spectrum

        def spy(*args, **kwargs):
            seen.append(get())
            return solve(*args, **kwargs)

        monkeypatch.setattr(hmt.cli, "empirical_spectrum", spy)
        for threads in ([], ["--threads", "1"], ["--threads", "2"]):
            assert main(self.argv(tmp_path) + threads) == EXIT_OK
            assert get() == 2
        assert seen == [1] * 12
        capsys.readouterr()

    def test_blas_thread_count_restored_when_a_replicate_raises(self, blas_threads, capsys,
                                                                monkeypatch, tmp_path):
        get, _ = blas_threads
        calls = []
        solve = hmt.cli.empirical_spectrum

        def fails_once(*args, **kwargs):
            calls.append(get())
            if len(calls) == 2:
                raise NumericError("planted")
            return solve(*args, **kwargs)

        monkeypatch.setattr(hmt.cli, "empirical_spectrum", fails_once)
        for threads in ("1", "2"):
            calls.clear()
            code, _, err = run(self.argv(tmp_path) + ["--threads", threads], capsys)
            assert code == EXIT_NUMERIC and "planted" in err
            assert calls[0] == 1 and get() == 2

    @pytest.mark.parametrize("n, replicates, workers", [
        (8192, 2, 1), (5793, 4, 1), (5792, 4, 2), (4096, 8, 4), (1024, 3, 3), (16, 20, 6)])
    def test_default_workers(self, n, replicates, workers, blas_threads, monkeypatch,
                             tmp_path):
        # min(usable CPUs, replicates, 2^26 // n^2): at n = 8192 one n x n
        # matrix fills the matrix budget, so one replicate is solved at a time
        class Pooled(Exception):
            pass

        asked = []

        def pool(fn, count, w):
            asked.append((count, w))
            raise Pooled

        monkeypatch.setattr(hmt.parallel, "usable_cpus", lambda: 6)
        monkeypatch.setattr(hmt.parallel, "ordered_map", pool)
        with pytest.raises(Pooled):
            main(self.argv(tmp_path, n, replicates))
        assert asked == [(replicates, workers)]

    def test_two_threads_at_8192_refused(self, capsys, tmp_path):
        code, _, err = run(self.argv(tmp_path, 8192, 2) + ["--threads", "2"], capsys)
        assert code == EXIT_CAPACITY and "matrix entries in flight" in err
        assert list(tmp_path.iterdir()) == []


class TestNormScanCommand:
    def test_small_sizes(self, capsys):
        code, out, _ = run(
            ["norm-scan", "--ns", "16,32", "--replicates", "2"], capsys
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert [int(r["n"]) for r in rows] == [16, 32]
        for row in rows:
            assert float(row["ratio_sqrt_2nlogn_mean"]) > 0
            assert int(row["replicates"]) == 2

    def test_rows_follow_ns_order(self, capsys, monkeypatch):
        # each distinct size is sampled once, largest first; the rows keep the
        # --ns order and equal those of one-size runs
        def rows(ns):
            code, out, _ = run(["norm-scan", "--ns", ns, "--replicates", "2", "--seed", "5",
                                "--format", "json"], capsys)
            assert code == EXIT_OK
            return json.loads(out)["results"]

        calls = []
        sample = hmt.cli.sample_matrix

        def spy(ensemble, n, *args):
            calls.append(n)
            return sample(ensemble, n, *args)

        monkeypatch.setattr(hmt.cli, "sample_matrix", spy)
        scan = rows("256,64,256")
        assert calls == [256, 256, 64, 64]
        assert [row["n"] for row in scan] == [256, 64, 256]
        assert scan == [rows("256")[0], rows("64")[0], rows("256")[0]]

    def test_json_schema_valid(self, capsys, schema):
        code, out, _ = run(
            ["norm-scan", "--ns", "16", "--replicates", "2", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        jsonschema.validate(json.loads(out), schema)

    def test_degenerate_size_one(self, capsys):
        code, out, _ = run(["norm-scan", "--ns", "1", "--replicates", "1"], capsys)
        assert code == EXIT_OK
        row = parse_csv(out)[0]
        assert float(row["ratio_n_mean"]) == 0.0  # M_1 = [0]

    def test_bad_ns(self, capsys):
        code, _, _ = run(["norm-scan", "--ns", "16,banana"], capsys)
        assert code == EXIT_INVALID
        code, out, _ = run(["norm-scan", "--ns", "16,0"], capsys)
        assert code == EXIT_INVALID and out == ""

    @pytest.mark.parametrize("mean", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dist", ["shifted_gaussian", "gaussian"])
    def test_non_finite_mean_rejected(self, capsys, tmp_path, mean, dist):
        # gaussian ignores --mean, but the artifacts would still echo it
        for argv in (["norm-scan", "--ns", "16", "--format", "json"],
                     ["simulate", "--ensemble", "markov", "--n", "16",
                      "--output-prefix", str(tmp_path / "x")]):
            code, out, err = run(argv + ["--dist", dist, f"--mean={mean}"], capsys)
            assert code == EXIT_INVALID and out == "" and "finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_mean_is_numeric_failure(self, capsys, tmp_path):
        # Markov row sums of 1e308-mean entries overflow to -inf on the diagonal
        for argv in (["norm-scan", "--ns", "16"],
                     ["simulate", "--ensemble", "markov", "--n", "16",
                      "--output-prefix", str(tmp_path / "x")]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = run(
                    argv + ["--dist", "shifted_gaussian", "--mean", "1e308"], capsys)
            assert code == EXIT_NUMERIC and out == "" and "non-finite" in err
            # the failure is reported once, with no numpy overflow warning before it
            assert [str(w.message) for w in caught] == []
            assert err == "hmt: numerical failure: matrix has non-finite entries\n"

    def test_zero_replicates_rejected(self, capsys):
        code, out, _ = run(["norm-scan", "--ns", "16", "--replicates", "0"], capsys)
        assert code == EXIT_INVALID and out == ""


# one small run of each command; each reaches the stubbed work below
OUTPUT_COMMANDS = {
    "words": ["words", "--k", "2"],
    "moments": ["moments", "--family", "hankel", "--max-order", "4"],
    "norm-scan": ["norm-scan", "--ns", "8", "--replicates", "1"],
    "simulate": ["simulate", "--ensemble", "hankel", "--n", "4", "--replicates", "1"],
}


class TestOutputPaths:
    class Computed(Exception):
        pass

    @pytest.fixture
    def no_work(self, monkeypatch):
        def stub(*args, **kwargs):
            raise self.Computed

        for name in ("word_volumes", "limit_moment", "moment_table", "sample_matrix"):
            monkeypatch.setattr(hmt.cli, name, stub)

    def refused(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("hmt: invalid argument:") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("target", ["missing", "directory"])
    @pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
    def test_refused_before_any_work(self, capsys, tmp_path, no_work, command, target):
        # a missing directory and a directory target, not permission bits,
        # which do not stop root
        flag = "--output-prefix" if command == "simulate" else "--output"
        argv = OUTPUT_COMMANDS[command] + [flag]
        if target == "missing":
            path = tmp_path / "missing" / "out"
        else:
            path = tmp_path / "out"
            (tmp_path / ("out_moments.json" if command == "simulate" else "out")).mkdir()
        made = sorted(tmp_path.iterdir())
        err = self.refused(argv + [str(path)], capsys)
        assert flag in err
        assert sorted(tmp_path.iterdir()) == made
        with pytest.raises(self.Computed):
            main(argv + [str(tmp_path / "fine")])

    @pytest.mark.parametrize("suffix", ["_eigenvalues.csv", "_histogram.csv", "_moments.json"])
    def test_simulate_refuses_a_directory_at_any_file(self, capsys, tmp_path, no_work, suffix):
        (tmp_path / f"p{suffix}").mkdir()
        err = self.refused(OUTPUT_COMMANDS["simulate"]
                           + ["--output-prefix", str(tmp_path / "p")], capsys)
        assert f"p{suffix} is a directory" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_exits_2(self, capsys):
        # /dev/full passes the checks and fails the write itself (ENOSPC)
        err = self.refused(OUTPUT_COMMANDS["words"] + ["-o", "/dev/full"], capsys)
        assert "cannot write /dev/full: No space left on device" in err

    def test_closed_stdout_pipe_exits_2(self):
        # the k = 5 json table (about 360 KB) overfills a 64 KB pipe buffer, so
        # its writes meet the pipe the reader closed after one line
        src = str(Path(hmt.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hmt.cli", "words", "--k", "5", "--method", "exact",
             "--format", "json"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_INVALID
        # one line: no traceback, and no "Exception ignored" at interpreter exit
        assert err == "hmt: invalid argument: cannot write stdout: Broken pipe\n"


class TestConfigEcho:
    """A JSON artifact echoes every flag the command parsed, None flags left out."""

    def echo(self, argv, capsys):
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        return json.loads(out)["config"]

    def test_words(self, capsys):
        assert self.echo(["words", "--k", "2", "--format", "json"], capsys) == {
            "subcommand": "words", "k": 2, "method": "auto", "samples": 100_000,
            "seed": DEFAULT_SEED, "threads": 1, "format": "json"}

    def test_moments(self, capsys):
        argv = ["moments", "--family", "hankel", "--max-order", "4", "--format", "json"]
        assert self.echo(argv, capsys) == {
            "subcommand": "moments", "family": "hankel", "max_order": 4, "method": "exact",
            "samples": 100_000, "seed": DEFAULT_SEED, "threads": 1, "format": "json"}

    def test_norm_scan(self, capsys):
        argv = ["norm-scan", "--ns", "8,16", "--replicates", "2", "--threads", "2",
                "--seed", "7", "--format", "json"]
        assert self.echo(argv, capsys) == {
            "subcommand": "norm-scan", "ns": [8, 16], "replicates": 2, "dist": "gaussian",
            "mean": 0.0, "seed": 7, "threads": 2, "format": "json"}

    def test_simulate_moments_json(self, capsys, tmp_path):
        prefix = str(tmp_path / "p")
        code, _, _ = run(["simulate", "--ensemble", "markov", "--n", "8", "--replicates", "2",
                          "--dist", "shifted_gaussian", "--mean", "0.5",
                          "--output-prefix", prefix], capsys)
        assert code == EXIT_OK
        payload = json.loads(Path(f"{prefix}_moments.json").read_text())
        # simulate has no --format flag; its echo has always held "csv"
        assert payload["config"] == {
            "subcommand": "simulate", "ensemble": "markov", "n": 8, "replicates": 2,
            "dist": "shifted_gaussian", "mean": 0.5, "bins": 60, "scale": "sqrt_n",
            "max_order": 8, "output_prefix": prefix, "seed": DEFAULT_SEED, "format": "csv"}


class TestJsonRows:
    """JSON artifacts are written one row at a time, with the bytes of one json.dumps."""

    @pytest.mark.parametrize("rows", [
        [],
        [{"order": 0, "value": Fraction(1), "numerator": 1, "denominator": 1}],
        [{"word": "abab", "p": {"value": 2 / 3, "numerator": 2}, "flags": [True, None]},
         {"word": "aabb", "p": {"value": 1.0, "stderr": 0.25}, "flags": []}],
    ], ids=["empty", "one", "nested"])
    def test_streamed_bytes_equal_one_dump(self, rows):
        args = build_parser().parse_args(["words", "--k", "2", "--format", "json"])
        payload = {"command": "words",
                   "config": {key: value for key, value in vars(args).items()
                              if value is not None},
                   "results": rows}
        want = json.dumps(payload, indent=2, sort_keys=True, default=float,
                          allow_nan=False) + "\n"
        assert "".join(hmt.cli._json_chunks(args, iter(rows))) == want


class TestReproducibility:
    def test_identical_invocations_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                ["moments", "--family", "toeplitz", "--max-order", "6",
                 "--method", "mc", "--samples", "30000", "-o", str(path)],
                capsys,
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_thread_count_invariant(self, capsys, tmp_path):
        outputs = []
        for threads, tag in (("1", "s"), ("4", "p")):
            prefix = str(tmp_path / tag)
            code, _, _ = run(
                ["simulate", "--ensemble", "hankel", "--n", "48", "--replicates", "6",
                 "--dist", "triangular", "--threads", threads,
                 "--output-prefix", prefix],
                capsys,
            )
            assert code == EXIT_OK
            outputs.append(
                tuple(
                    (tmp_path / f"{tag}_{kind}").read_bytes()
                    for kind in ("eigenvalues.csv", "histogram.csv")
                )
            )
        assert outputs[0] == outputs[1]

    def test_norm_scan_thread_count_invariant(self, capsys, tmp_path):
        paths = []
        for threads, name in (("1", "t1.csv"), ("3", "t3.csv")):
            path = tmp_path / name
            code, _, _ = run(
                ["norm-scan", "--ns", "16,24", "--replicates", "3",
                 "--threads", threads, "-o", str(path)],
                capsys,
            )
            assert code == EXIT_OK
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_simulate_bytes_ignore_blas_and_worker_threads(self, tmp_path):
        # every simulate solve runs on one BLAS thread: at n = 256 the
        # blocked LAPACK reduction rounds differently on one and on two
        # threads, yet the artifacts are the same bytes for any
        # OPENBLAS_NUM_THREADS and any --threads
        src = str(Path(hmt.__file__).resolve().parents[1])
        base = dict(os.environ,
                    PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        base.pop("OPENBLAS_NUM_THREADS", None)
        outputs = {}
        for blas in (None, "1", "2"):
            env = base if blas is None else dict(base, OPENBLAS_NUM_THREADS=blas)
            for threads in (None, "1", "2"):
                prefix = tmp_path / f"blas{blas}_threads{threads}"
                proc = subprocess.run(
                    [sys.executable, "-c",
                     "import sys; from hmt.cli import main; sys.exit(main(sys.argv[1:]))",
                     "simulate", "--ensemble", "hankel", "--n", "256", "--replicates", "2",
                     "--output-prefix", str(prefix)]
                    + ([] if threads is None else ["--threads", threads]),
                    env=env, capture_output=True, text=True, timeout=300,
                )
                assert proc.returncode == EXIT_OK, proc.stderr
                outputs[blas, threads] = [Path(f"{prefix}_{kind}").read_bytes()
                                          for kind in ("eigenvalues.csv", "histogram.csv")]
        first = outputs[None, None]
        assert len(first[0].split()) == 1 + 2 * 256
        assert all(got == first for got in outputs.values()), sorted(
            key for key, got in outputs.items() if got != first)

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(
            ["moments", "--family", "toeplitz", "--order", "4", "--method", "mc",
             "--samples", "20000", "--seed", "1"],
            capsys,
        )
        _, out2, _ = run(
            ["moments", "--family", "toeplitz", "--order", "4", "--method", "mc",
             "--samples", "20000", "--seed", "2"],
            capsys,
        )
        assert out1 != out2


class TestParser:
    def test_seed_default_documented(self):
        parser = build_parser()
        help_text = parser.format_help()
        assert "hmt" in help_text
        for sub in ("words", "moments", "simulate", "norm-scan"):
            assert sub in help_text

    def test_default_seed_constant(self, capsys):
        # the default seed is a fixed documented constant, not time-based
        assert DEFAULT_SEED == 314159
        parser = build_parser()
        args = parser.parse_args(["words", "--k", "1"])
        assert args.seed == DEFAULT_SEED

    @pytest.mark.parametrize("argv", [
        ["norm-scan", "--ns", "5", "--replicates", "2", "--threads", "-1"],
        ["moments", "--family", "hankel", "--order", "4", "--method", "mc",
         "--samples", "10", "--threads", "-3"],
        ["simulate", "--ensemble", "hankel", "--n", "3", "--replicates", "2",
         "--threads", "0"],
        ["words", "--k", "2", "--threads", "0"],
    ])
    def test_threads_below_one_rejected(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        flag = "--output-prefix" if argv[0] == "simulate" else "--output"
        code, out, err = run(argv + [flag, str(target)], capsys)
        assert code == EXIT_INVALID and out == ""
        assert err.startswith("hmt: invalid argument:") and "--threads" in err
        assert list(tmp_path.iterdir()) == []

    def test_sampler_choices_from_one_source(self):
        # --ensemble and both --dist flags offer rng's names, and the
        # samplers accept every one of them
        from hmt.ensembles import distribution_from_tag, sample_matrix
        from hmt.rng import DISTRIBUTIONS, ENSEMBLES

        subparsers = build_parser()._subparsers._group_actions[0].choices
        choices = {(command, action.dest): tuple(action.choices)
                   for command in ("simulate", "norm-scan")
                   for action in subparsers[command]._actions
                   if action.dest in ("ensemble", "dist")}
        assert choices == {("simulate", "ensemble"): ENSEMBLES,
                           ("simulate", "dist"): DISTRIBUTIONS,
                           ("norm-scan", "dist"): DISTRIBUTIONS}
        for tag in DISTRIBUTIONS:
            dist = distribution_from_tag(tag, mean=1)
            assert dist.tag == tag
            for ensemble in ENSEMBLES:
                assert sample_matrix(ensemble, 3, dist, 1).matrix.shape == (3, 3)

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--family", "circulant"])
        assert exc.value.code == 2


class TestOneCommandParser:
    """main builds the parser of the command argv[0] names, and all four only
    when it names none; each gives the namespace and text of the full parser."""

    ARGVS = [
        ["words", "--k", "3"],
        ["words", "--k", "5", "--method", "mc", "--samples", "200", "--seed", "7",
         "--format", "json", "-o", "table.json"],
        ["words", "--k", "2", "--threads", "2", "--output", "table.csv"],
        ["moments", "--family", "hankel"],
        ["moments", "--family", "toeplitz", "--order", "6", "--method", "mc",
         "--samples", "50"],
        ["moments", "--family", "markov", "--max-order", "14", "--format", "json"],
        ["simulate", "--ensemble", "hankel", "--n", "8", "--output-prefix", "run"],
        ["simulate", "--ensemble", "markov", "--n", "5", "--replicates", "3", "--dist",
         "shifted_gaussian", "--mean", "0.5", "--bins", "5", "--scale", "n",
         "--max-order", "4", "--seed", "1", "--threads", "2", "--output-prefix", "run"],
        ["norm-scan"],
        ["norm-scan", "--ns", "5,9", "--replicates", "2", "--dist", "rademacher",
         "--format", "json", "-o", "norms.csv"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_namespace_equals_the_full_parser(self, argv):
        one = build_parser(argv[0]).parse_args(argv)
        assert vars(one) == vars(build_parser().parse_args(argv))

    @staticmethod
    def text(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["mom"], ["--seed", "3", "moments"], ["moments"],
        ["moments", "--family", "x"], ["moments", "--family", "hankel", "extra"],
        ["simulate", "--help"], ["simulate", "--n", "x"], ["words", "--k"],
        ["norm-scan", "--format", "xml"],
    ], ids=" ".join)
    def test_text_equals_the_full_parser(self, argv, capsys, monkeypatch):
        # on any Python: the pinned hashes of test_golden_artifacts hold on 3.11 alone
        monkeypatch.setenv("COLUMNS", "80")
        want = self.text(build_parser().parse_args, argv, capsys)
        assert self.text(main, argv, capsys) == want

    @staticmethod
    def counted(monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    def test_a_command_builds_two_parsers(self, capsys, monkeypatch):
        built = self.counted(monkeypatch)
        assert main(["moments", "--family", "hankel", "--max-order", "18"]) == EXIT_CAPACITY
        assert built == ["hmt", "hmt moments"]

    @pytest.mark.parametrize("argv", [["mom"], ["--version"], ["-h"]])
    def test_no_command_builds_all_five(self, argv, capsys, monkeypatch):
        built = self.counted(monkeypatch)
        with pytest.raises(SystemExit):
            main(argv)
        assert built == ["hmt", "hmt words", "hmt moments", "hmt simulate", "hmt norm-scan"]
