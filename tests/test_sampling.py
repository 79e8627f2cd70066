import ast
import math
import os
import shlex
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from properloss import (
    Distribution,
    Domain,
    FileSource,
    Histogram,
    InternalSource,
    Mode,
    Poisson,
    SampleTooSmallError,
    SourceExhaustedError,
    SubprocessFailureError,
    SubprocessSource,
    TokenUnknownError,
    block_average,
    builtin_l2,
    compile_known_target,
    compile_two_sample,
    cross_entropy_poisson,
    draw_fixed,
    estimate_loss,
    exact_expected_two_sample,
    stream_rng,
)

HALF_F = Distribution.floating([0.5, 0.5])
AB = Domain(("a", "b"))

# child that answers each count request with alternating tokens
ALTERNATING_CHILD = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    n = int(line.strip())\n"
    "    if n == 0:\n"
    "        break\n"
    "    for i in range(n):\n"
    "        sys.stdout.write('a\\n' if i % 2 == 0 else 'b\\n')\n"
    "    sys.stdout.flush()\n"
)


class TestStreamRng:
    def test_deterministic(self):
        assert stream_rng(7, 0).random(4).tolist() == stream_rng(7, 0).random(4).tolist()

    def test_streams_are_distinct(self):
        assert stream_rng(7, 0).random(4).tolist() != stream_rng(7, 1).random(4).tolist()


class TestDrawFixed:
    def test_point_mass(self):
        src = InternalSource(Distribution.floating([1.0, 0.0]))
        assert draw_fixed(src, 5, seed=3).counts == (5, 0)

    def test_same_seed_same_histogram(self):
        src = InternalSource(HALF_F)
        assert draw_fixed(src, 50, seed=11) == draw_fixed(src, 50, seed=11)

    def test_seeded_concentration(self):
        src = InternalSource(HALF_F)
        h = draw_fixed(src, 10**4, seed=20240808)
        assert 0.45 <= h.counts[0] / h.total <= 0.55

    def test_batch_rows_match_sequential_draws(self):
        # row i of a batch is exactly the histogram of draws [i*n, (i+1)*n)
        # of the same stream: the replicate-purity contract, checked against
        # an inverse-CDF reference that draws one replicate at a time
        probs = [0.2, 0.5, 0.3]
        src = InternalSource(Distribution.floating(probs))
        batch = src.draw_batch([4] * 5, stream_rng(9, 0))
        rng = stream_rng(9, 0)
        cum = np.cumsum(probs)
        for i in range(5):
            idx = np.minimum(np.searchsorted(cum, rng.random(4), side="right"), len(probs) - 1)
            assert batch.dense()[i].tolist() == np.bincount(idx, minlength=len(probs)).tolist()


class TestDrawPoisson:
    """Poisson-size rows drawn as ``estimate_loss`` draws them: one size vector, then one batch of rows."""

    @staticmethod
    def draw(probs, rate: float, reps: int, seed: int):
        from properloss.sampling import STREAM_MODEL, STREAM_MODEL_SIZES, _size_vector

        sizes = _size_vector(Poisson(rate), reps, stream_rng(seed, STREAM_MODEL_SIZES))
        rows = InternalSource(Distribution.floating(probs)).draw_batch(sizes, stream_rng(seed, STREAM_MODEL))
        return sizes, rows.dense()

    def test_point_mass_source(self):
        sizes, counts = self.draw([0.0, 1.0], 4.0, 200, seed=5)
        assert not counts[:, 0].any()
        assert counts[:, 1].tolist() == sizes.tolist()

    def test_zero_size_gives_zero_histogram(self):
        sizes, counts = self.draw([0.5, 0.5], 0.05, 200, seed=3)
        assert (sizes == 0).any()  # rate 0.05 yields N = 0 most of the time
        assert not counts[sizes == 0].any()

    def test_per_coordinate_mean(self):
        reps = 20000
        _, counts = self.draw([0.5, 0.5], 4.0, reps, seed=11)
        mean = counts.mean(axis=0)
        se = math.sqrt(2.0 / reps)  # Var Poisson(2) = 2
        assert abs(mean[0] - 2.0) <= 4 * se
        assert abs(mean[1] - 2.0) <= 4 * se

    def test_marginal_law_chi_square(self):
        # counts of one coordinate against Poisson(alpha * p_x), pooled tails
        from scipy import stats

        reps = 10**5
        _, counts = self.draw([0.5, 0.5], 4.0, reps, seed=13)
        draws = counts[:, 0]
        kmax = 9
        observed = np.array([(draws == k).sum() for k in range(kmax)] + [(draws >= kmax).sum()])
        pmf = [math.exp(-2.0) * 2.0**k / math.factorial(k) for k in range(kmax)]
        expected = np.array(pmf + [1.0 - sum(pmf)]) * reps
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.001


class TestFileSource:
    def test_counts_tokens(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("a\nb\na\na\n", encoding="utf-8")
        with FileSource(str(path), AB) as src:
            assert src.draw(4).counts == (3, 1)

    def test_sequential_consumption(self, tmp_path):
        path = tmp_path / "sample.txt"
        path.write_text("a\na\nb\nb\n", encoding="utf-8")
        with FileSource(str(path), AB) as src:
            assert src.draw(2).counts == (2, 0)
            assert src.draw(2).counts == (0, 2)

    def test_exhaustion(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("a\n", encoding="utf-8")
        with FileSource(str(path), AB) as src:
            with pytest.raises(SourceExhaustedError):
                src.draw(2)

    def test_unknown_token(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a\nz\n", encoding="utf-8")
        with FileSource(str(path), AB) as src:
            with pytest.raises(TokenUnknownError):
                src.draw(2)

    def test_histograms_ignore_token_order(self, tmp_path):
        # the histogram is a sufficient statistic: permuting the file's lines
        # cannot change it
        ordered = tmp_path / "ordered.txt"
        shuffled = tmp_path / "shuffled.txt"
        ordered.write_text("a\na\nb\na\nb\n", encoding="utf-8")
        shuffled.write_text("b\na\na\nb\na\n", encoding="utf-8")
        with FileSource(str(ordered), AB) as s1, FileSource(str(shuffled), AB) as s2:
            assert s1.draw(5) == s2.draw(5)

    def test_a_draw_after_close_is_an_error(self, tmp_path):
        # it must not reopen the file and replay it from line 1
        path = tmp_path / "sample.txt"
        path.write_text("a\nb\n", encoding="utf-8")
        src = FileSource(str(path), AB)
        assert src.draw(1).counts == (1, 0)
        src.close()
        with pytest.raises(ValueError, match=f"sample file {str(path)!r} is closed"):
            src.draw(1)


class TestSubprocessSource:
    def test_protocol_round_trip(self):
        with SubprocessSource([sys.executable, "-c", ALTERNATING_CHILD], AB) as src:
            assert src.draw(5).counts == (3, 2)
            assert src.draw(4).counts == (2, 2)

    def test_clean_shutdown(self):
        src = SubprocessSource([sys.executable, "-c", ALTERNATING_CHILD], AB)
        src.draw(2)
        src.close()  # sends the zero sentinel; exit code 0 expected

    def test_zero_draw_keeps_the_generator_running(self):
        # a request of 0 is the exit sentinel, so an empty draw must not send one
        src = SubprocessSource([sys.executable, "-c", ALTERNATING_CHILD], AB)
        assert src.draw(0).counts == (0, 0)
        assert src.draw(3).counts == (2, 1)
        src.close()

    def test_child_that_dies_early(self):
        child = "import sys; sys.stdin.readline(); sys.exit(1)"
        src = SubprocessSource([sys.executable, "-c", child], AB)
        with pytest.raises(SubprocessFailureError):
            src.draw(3)
        with pytest.raises(SubprocessFailureError, match="exited with code 1"):
            src.close()

    def test_unknown_token_from_child(self):
        child = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    n = int(line.strip())\n"
            "    if n == 0:\n"
            "        break\n"
            "    sys.stdout.write('z\\n' * n)\n"
            "    sys.stdout.flush()\n"
        )
        src = SubprocessSource([sys.executable, "-c", child], AB)
        with pytest.raises(TokenUnknownError):
            src.draw(1)
        src.close()

    def test_a_draw_after_close_is_an_error(self):
        # it must not start a new child, which would replay the stream from its first token
        src = SubprocessSource([sys.executable, "-c", ALTERNATING_CHILD], AB)
        assert src.draw(1).counts == (1, 0)
        src.close()
        with pytest.raises(ValueError, match=r"generator \[.*\] is closed"):
            src.draw(1)
        src.close()  # a second close does nothing


# child that appends each read of its stdin, as the repr of the bytes read, to the file named by argv[1], and
# answers each count request with 'a' tokens; a writer's single write of a few bytes is read in one piece
LOGGING_CHILD = (
    "import os, sys\n"
    "log, pending = open(sys.argv[1], 'a'), b''\n"
    "while True:\n"
    "    chunk = os.read(0, 65536)\n"
    "    log.write(repr(chunk) + '\\n')\n"
    "    log.flush()\n"
    "    if not chunk:\n"
    "        sys.exit(5)\n"
    "    pending += chunk\n"
    "    while b'\\n' in pending:\n"
    "        line, pending = pending.split(b'\\n', 1)\n"
    "        if int(line) == 0:\n"
    "            sys.exit(0)\n"
    "        sys.stdout.write('a\\n' * int(line))\n"
    "        sys.stdout.flush()\n"
)


def logged_reads(path) -> list:
    return [ast.literal_eval(line) for line in path.read_text().splitlines()]


class TestExitSentinel:
    """The ``0`` rides with an estimate's last request, in the same write, or comes from ``close``; never twice."""

    def test_an_eval_run_sends_one_zero_in_the_write_of_the_last_count(self, capsys, tmp_path, monkeypatch):
        import properloss.sampling as sampling
        from properloss.cli import main

        log = tmp_path / "reads.txt"
        argv = ["eval", "--divergence", "l2", "--n", "2", "--m", "2", "--labels", "a,b",
                "--model-cmd", shlex.join([sys.executable, "-c", LOGGING_CHILD, str(log)]), "--target-probs", "0.5,0.5",
                "--replicates", "3"]
        assert main(argv) == 0
        assert logged_reads(log) == [b"6\n0\n"]
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 1)  # one replicate per chunk
        log.unlink()
        assert main(argv) == 0
        assert logged_reads(log) == [b"2\n", b"2\n", b"2\n0\n"]
        capsys.readouterr()

    def test_a_poisson_run_whose_last_batch_draws_nothing_ends_the_child_at_close(self, monkeypatch, tmp_path):
        import properloss.sampling as sampling
        from properloss.sampling import STREAM_MODEL_SIZES, _poisson_size

        monkeypatch.setattr(sampling, "CHUNK_BYTES", 1)  # one replicate per chunk
        assert _poisson_size(stream_rng(16, STREAM_MODEL_SIZES).random(8), 0.3).tolist() == [1, 1, 1, 2, 0, 0, 0, 0]
        log = tmp_path / "reads.txt"
        src = SubprocessSource([sys.executable, "-c", LOGGING_CHILD, str(log)], AB)
        estimate_loss(src, InternalSource(HALF_F, AB), cross_entropy_poisson(0.3, 8.0), 8, seed=16)
        proc = src._proc
        src.close()
        assert proc.returncode == 0
        assert logged_reads(log) == [b"1\n", b"1\n", b"1\n", b"2\n", b"0\n"]

    def test_one_generator_on_both_sides_gets_the_zero_with_its_model_request(self, tmp_path):
        log = tmp_path / "reads.txt"
        with SubprocessSource([sys.executable, "-c", LOGGING_CHILD, str(log)], AB) as src:
            report = estimate_loss(src, src, compile_two_sample(builtin_l2(2), 2, 3, Mode.FLOAT), 4, seed=1)
            proc = src._proc
        assert report.mean == 0.0 and proc.returncode == 0  # every draw is 'a'
        assert logged_reads(log) == [b"12\n", b"8\n0\n"]  # the target's rows first

    def test_a_draw_after_the_last_request_is_an_error(self, tmp_path):
        log = tmp_path / "reads.txt"
        src = SubprocessSource([sys.executable, "-c", LOGGING_CHILD, str(log)], AB)
        assert src.draw_batch([1, 2], last=True).dense().tolist() == [[1, 0], [2, 0]]
        with pytest.raises(ValueError, match=r"generator \[.*\] is closed"):
            src.draw(1)
        with pytest.raises(ValueError, match=r"generator \[.*\] is closed"):
            src.draw_batch([0], last=True)
        proc = src._proc
        src.close()
        assert proc.returncode == 0
        assert logged_reads(log) == [b"3\n0\n"]


class TestSubprocessShutdown:
    def test_child_that_ignores_the_zero_request_is_killed(self, monkeypatch):
        import properloss.sampling as sampling

        monkeypatch.setattr(sampling, "CLOSE_TIMEOUT_S", 0.2)
        child = (
            "import sys, time\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('a\\n' * int(line.strip()))\n"
            "    sys.stdout.flush()\n"
            "time.sleep(60)\n"
        )
        src = SubprocessSource([sys.executable, "-c", child], AB)
        assert src.draw(3).counts == (3, 0)
        proc = src._proc
        with pytest.raises(SubprocessFailureError, match="did not exit within 0.2 s"):
            src.close()
        assert proc.returncode is not None  # killed and reaped, not left running

    def test_without_pidfds_close_waits_with_popen_wait(self, monkeypatch):
        import properloss.sampling as sampling

        monkeypatch.delattr(os, "pidfd_open", raising=False)
        src = SubprocessSource([sys.executable, "-c", ALTERNATING_CHILD], AB)
        assert src.draw(3).counts == (2, 1)
        src.close()
        monkeypatch.setattr(sampling, "CLOSE_TIMEOUT_S", 0.2)
        src = SubprocessSource([sys.executable, "-c", "import sys, time\nsys.stdin.read()\ntime.sleep(60)\n"], AB)
        proc = src._proc
        with pytest.raises(SubprocessFailureError, match="did not exit within 0.2 s"):
            src.close()
        assert proc.returncode is not None

    def test_failures_quote_the_childs_stderr(self):
        child = "import sys\nsys.stderr.write('bad weights\\n')\nsys.exit(3)\n"
        src = SubprocessSource([sys.executable, "-c", child], AB)
        with pytest.raises(SubprocessFailureError, match="ended after 0 of 2 requested tokens; its stderr: bad weights$"):
            src.draw(2)
        with pytest.raises(SubprocessFailureError, match="exited with code 3; its stderr: bad weights$"):
            src.close()

    def test_a_long_stderr_is_quoted_from_its_end(self, monkeypatch):
        import properloss.sampling as sampling

        monkeypatch.setattr(sampling, "STDERR_TAIL_CHARS", 10)
        # 1 MB, far more than a pipe buffer: the child must not block on it
        child = "import sys\nsys.stderr.write('x' * 10**6 + 'last words')\nsys.exit(3)\n"
        src = SubprocessSource([sys.executable, "-c", child], AB)
        with pytest.raises(SubprocessFailureError) as info:
            src.draw(2)
        assert str(info.value).endswith("; its stderr: ...last words")
        with pytest.raises(SubprocessFailureError):
            src.close()

    def test_a_clean_close_passes_the_childs_stderr_on(self, capsys):
        child = (
            "import sys\n"
            "sys.stderr.write('loading\\n')\n"
            "for line in sys.stdin:\n"
            "    if int(line) == 0:\n"
            "        break\n"
            "    sys.stdout.write('a\\n' * int(line))\n"
            "    sys.stdout.flush()\n"
        )
        src = SubprocessSource([sys.executable, "-c", child], AB)
        assert src.draw(3).counts == (3, 0)
        src.close()
        assert capsys.readouterr().err == "loading\n"

    @pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="the exit is awaited on a pidfd only where one exists")
    def test_a_clean_close_wakes_on_the_exit_without_polling(self, monkeypatch):
        src = SubprocessSource([sys.executable, "-c", ALTERNATING_CHILD], AB)
        assert src.draw(3).counts == (2, 1)

        def no_sleep(seconds):
            raise AssertionError(f"close slept {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        proc = src._proc
        src.close()
        assert proc.returncode == 0


class TestEstimateReport:
    @pytest.mark.parametrize("field", ["mean", "std_error"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_are_rejected_by_name(self, field, value):
        from properloss import EstimateReport

        values = dict(mean=1.0, std_error=0.1, ci_low=0.0, ci_high=2.0, replicates=10, seed=0)
        values[field] = value
        with pytest.raises(ValueError, match=f"the estimate's {field} is"):
            EstimateReport(**values)


class TestEstimateLoss:
    def test_needs_two_replicates(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
        src = InternalSource(HALF_F)
        with pytest.raises(ValueError):
            estimate_loss(src, src, loss, 1, seed=0)

    def test_bit_identical_reports(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
        model = InternalSource(Distribution.floating([0.25, 0.75]))
        target = InternalSource(HALF_F)
        a = estimate_loss(model, target, loss, 5000, seed=42)
        b = estimate_loss(model, target, loss, 5000, seed=42)
        assert a == b

    def test_fast_path_equals_scalar_path(self):
        # the batch path gives the report of a reference that draws one
        # replicate at a time (size first, then items) and calls the scalar
        # evaluator: the stream contract makes both see the same histograms
        from properloss.sampling import (
            STREAM_MODEL,
            STREAM_MODEL_SIZES,
            STREAM_TARGET,
            STREAM_TARGET_SIZES,
            _poisson_size,
        )

        model = InternalSource(Distribution.floating([0.25, 0.75]))
        target = InternalSource(HALF_F)
        seed, replicates = 7, 2000

        def draw(src, scheme, item_stream, size_stream):
            item_rng, size_rng = stream_rng(seed, item_stream), stream_rng(seed, size_stream)
            for _ in range(replicates):
                n = scheme.n if hasattr(scheme, "n") else _poisson_size(float(size_rng.random()), scheme.rate)
                yield src.draw(n, item_rng)

        for loss in (compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT), cross_entropy_poisson(6.0, 6.0)):
            pairs = zip(
                draw(model, loss.scheme_p, STREAM_MODEL, STREAM_MODEL_SIZES),
                draw(target, loss.scheme_q, STREAM_TARGET, STREAM_TARGET_SIZES),
            )
            values = np.array([float(loss.evaluator(h, g)) for h, g in pairs])
            report = estimate_loss(model, target, loss, replicates, seed=seed)
            assert report.mean == float(np.mean(values))
            assert report.std_error == float(np.std(values, ddof=1)) / math.sqrt(replicates)

    def test_poisson_batch_of_zero_sizes_sends_no_request(self):
        from properloss.sampling import STREAM_MODEL_SIZES, _poisson_size

        loss = cross_entropy_poisson(1e-6, 8.0)
        assert not _poisson_size(stream_rng(3, STREAM_MODEL_SIZES).random(10), 1e-6).any()
        src = SubprocessSource([sys.executable, "-c", ALTERNATING_CHILD], AB)
        report = estimate_loss(src, InternalSource(HALF_F, AB), loss, 10, seed=3)
        assert report.mean == 0.0  # S(0) = 0 on every row
        assert src.draw(3).counts == (2, 1)  # the generator is still serving requests
        src.close()

    def test_one_row_chunks_give_the_same_report(self, monkeypatch, tmp_path):
        import properloss.sampling as sampling
        from properloss import entropy_poisson, kl_poisson

        path = tmp_path / "tokens.txt"
        path.write_text("a\nb\na\n" * 2000, encoding="utf-8")
        model = InternalSource(Distribution.floating([0.25, 0.75]), AB)
        target = InternalSource(HALF_F, AB)
        cases = [
            (compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT), model, target),
            (cross_entropy_poisson(6.0, 4.0), model, target),
            (kl_poisson(6.0, 4.0), model, target),
            (entropy_poisson(4.0), None, target),
            (compile_two_sample(builtin_l2(2), 2, 3, Mode.FLOAT), lambda: FileSource(str(path), AB), target),
        ]

        def reports():
            out = []
            for loss, p, q in cases:
                src = p() if callable(p) else p
                out.append(estimate_loss(src, q, loss, 300, seed=5))
                if src is not None:
                    src.close()
            return out

        whole = reports()
        monkeypatch.setattr(sampling, "CHUNK_BYTES", 1)
        assert reports() == whole

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    def test_a_generator_model_gives_the_report_of_model_side_first_draws(self, monkeypatch, tmp_path, chunk_bytes):
        # estimate_loss reads each chunk's target rows before its model rows;
        # each side has its own stream, so the histograms are those drawn
        # with the model side first and in one piece
        import properloss.sampling as sampling
        from properloss import kl_poisson
        from properloss.sampling import STREAM_MODEL, STREAM_MODEL_SIZES, STREAM_TARGET, STREAM_TARGET_SIZES

        if chunk_bytes is not None:
            monkeypatch.setattr(sampling, "CHUNK_BYTES", chunk_bytes)
        child = (
            "import random, sys\n"
            "rng = random.Random(11)\n"
            "for line in sys.stdin:\n"
            "    n = int(line)\n"
            "    if n == 0:\n"
            "        break\n"
            "    sys.stdout.write(''.join(rng.choice('aab') + '\\n' for _ in range(n)))\n"
            "    sys.stdout.flush()\n"
        )
        path = tmp_path / "target.txt"
        path.write_text("".join(np.random.default_rng(4).choice(["a\n", "b\n"], 8000)), encoding="utf-8")
        seed, replicates = 8, 60
        for loss in (compile_two_sample(builtin_l2(2), 2, 3, Mode.FLOAT), kl_poisson(6.0, 4.0)):
            with SubprocessSource([sys.executable, "-c", child], AB) as model, FileSource(str(path), AB) as target:
                report = estimate_loss(model, target, loss, replicates, seed=seed)
            sizes_p = sampling._size_vector(loss.scheme_p, replicates, stream_rng(seed, STREAM_MODEL_SIZES))
            sizes_q = sampling._size_vector(loss.scheme_q, replicates, stream_rng(seed, STREAM_TARGET_SIZES))
            with SubprocessSource([sys.executable, "-c", child], AB) as model, FileSource(str(path), AB) as target:
                hp = model.draw_batch(sizes_p, stream_rng(seed, STREAM_MODEL))
                hq = target.draw_batch(sizes_q, stream_rng(seed, STREAM_TARGET))
            values = loss.batch_evaluator(hp, hq)
            assert report.mean == float(np.mean(values))
            assert report.std_error == float(np.std(values, ddof=1)) / math.sqrt(replicates)

    def test_memory_follows_the_draws_not_the_domain_size(self):
        # draws stay in index form and rows over a large domain are scored
        # over their observed coordinates, so no (R, d) array is built
        import tracemalloc

        import properloss.sampling as sampling

        def peak(d):
            src = InternalSource(Distribution.uniform(d, Mode.FLOAT))
            loss = compile_two_sample(builtin_l2(d), 2, 2, Mode.FLOAT)
            tracemalloc.start()
            try:
                estimate_loss(src, src, loss, 10_000, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50_000) <= 2 * peak(500)
        assert peak(50_000) < sampling.CHUNK_BYTES / 2  # a dense chunk fills CHUNK_BYTES with count rows

    def test_ci_covers_the_exact_value(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
        model = InternalSource(Distribution.floating([0.25, 0.75]))
        target = InternalSource(HALF_F)
        report = estimate_loss(model, target, loss, 20000, seed=1)
        truth = 0.125
        assert abs(report.mean - truth) <= 4 * report.std_error
        assert report.ci_low <= report.mean <= report.ci_high

    def test_poisson_loss_estimation(self):
        loss = cross_entropy_poisson(8.0, 8.0)
        model = InternalSource(HALF_F)
        target = InternalSource(HALF_F)
        report = estimate_loss(model, target, loss, 20000, seed=2)
        assert abs(report.mean - math.log(2)) <= 4 * report.std_error

    def test_grand_mean_converges_to_the_oracle(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
        p = Distribution.exact([Fraction(1, 4), Fraction(3, 4)])
        q = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])
        truth = float(exact_expected_two_sample(compile_two_sample(builtin_l2(2), 2, 2), p, q))
        model = InternalSource(Distribution.floating([0.25, 0.75]))
        target = InternalSource(HALF_F)
        means = []
        ses = []
        for s in range(50):
            r = estimate_loss(model, target, loss, 2000, seed=s)
            means.append(r.mean)
            ses.append(r.std_error)
        grand = float(np.mean(means))
        grand_se = float(np.mean(ses)) / math.sqrt(len(means))
        assert abs(grand - truth) <= 4 * grand_se

    def test_file_sources_run_out_cleanly(self, tmp_path):
        path = tmp_path / "few.txt"
        path.write_text("a\nb\n" * 3, encoding="utf-8")
        loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
        with FileSource(str(path), AB) as model:
            with pytest.raises(SourceExhaustedError):
                estimate_loss(model, InternalSource(HALF_F, AB), loss, 10, seed=0)


class TestBlockAverage:
    def test_single_block_is_a_single_evaluation(self):
        loss = compile_known_target(builtin_l2(2), 2)
        q = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])
        h = Histogram((1, 1))
        assert block_average(h, 2, loss, q=q, seed=0) == float(loss.evaluator(h, q))

    def test_floor_rule_discards_leftovers(self):
        loss = compile_known_target(builtin_l2(2), 2)
        q = Distribution.exact([Fraction(1, 2), Fraction(1, 2)])
        h = Histogram((2, 1))  # N=3, one block of 2, one draw dropped
        value = block_average(h, 2, loss, q=q, seed=4)
        possible = {float(loss.evaluator(Histogram(c), q)) for c in ((2, 0), (1, 1))}
        assert value in possible

    def test_block_size_must_match_the_loss(self):
        loss = compile_known_target(builtin_l2(2), 2)
        with pytest.raises(ValueError):
            block_average(Histogram((4, 4)), 4, loss, q=HALF_F, seed=0)

    def test_known_target_needs_q(self):
        with pytest.raises(ValueError):
            block_average(Histogram((2, 2)), 2, compile_known_target(builtin_l2(2), 2), seed=0)

    def test_sample_too_small(self):
        loss = compile_known_target(builtin_l2(2), 2)
        with pytest.raises(SampleTooSmallError):
            block_average(Histogram((1, 0)), 2, loss, q=HALF_F, seed=0)

    def test_two_sample_blocks(self):
        loss = compile_two_sample(builtin_l2(2), 2, 2, Mode.FLOAT)
        value = block_average(
            Histogram((4, 4)), 2, loss, target_sample=Histogram((3, 5)), seed=1
        )
        assert math.isfinite(value)

    def test_averaging_reduces_variance(self):
        # four blocks of the minimal size beat one block, trial for trial
        loss = compile_known_target(builtin_l2(2), 2, Mode.FLOAT)
        q = HALF_F
        src = InternalSource(HALF_F)
        singles = []
        averaged = []
        for s in range(2000):
            h1 = draw_fixed(src, 2, seed=s)
            h4 = draw_fixed(src, 8, seed=10**6 + s)
            singles.append(block_average(h1, 2, loss, q=q, seed=s))
            averaged.append(block_average(h4, 2, loss, q=q, seed=s))
        assert np.var(averaged) < np.var(singles)

    def test_unbiased_at_the_harness_level(self):
        loss = compile_known_target(builtin_l2(2), 2, Mode.FLOAT)
        q = HALF_F
        src = InternalSource(Distribution.floating([0.25, 0.75]))
        truth = float(builtin_l2(2).evaluate((0.25, 0.75), (0.5, 0.5)))
        values = [
            block_average(draw_fixed(src, 8, seed=s), 2, loss, q=q, seed=s) for s in range(4000)
        ]
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert abs(float(np.mean(values)) - truth) <= 4 * se
