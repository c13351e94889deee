import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import orjson
import pytest

from smoothscore import (CoDiagonalLawPair, ScoreOracle, build_grid, estimate_mean, eval_r,
                         eval_sq_sum, kl_codiagonal, sample_exact, sample_independent,
                         sample_quantized, sample_uncentered, sampler_params, target_from_dict,
                         tv_bound)
from smoothscore import channel, cli, samplers, streams
from smoothscore.cli import main
from smoothscore.errors import ParameterError
from test_diagnostics import tv_by_quadrature, tv_gaussians_1d


def data_rows(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def assert_parameter_error(capsys, token=""):
    err = capsys.readouterr().err
    assert err.startswith("parameter error:") and token in err
    assert "Traceback" not in err


def run_twice(tmp_path, argv_builder):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(argv_builder(str(out1))) == 0
    assert main(argv_builder(str(out2))) == 0
    return data_rows(out1), data_rows(out2)


@pytest.fixture
def run_config(tmp_path):
    cfg = {
        "algorithm": "exact",
        "target": {"dim": 2, "kappa": 100.0, "eigvals": [1.0, 100.0],
                   "mean": [0.0, 0.0]},
        "delta_tv": 0.2,
        "seed": 7,
        "runs": 5,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def repr_rows(values):
    return [",".join(map(repr, row)) for row in values.tolist()]


def banded_floats(rng, n):
    # Random finite bit patterns with binary exponents in [-20, 60], so about
    # a sixth lie outside [1e-4, 1e16) and orjson formats most of a block.
    bits = rng.integers(0, 2**52, n, dtype=np.uint64)
    bits |= rng.integers(1023 - 20, 1023 + 61, n).astype(np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    return bits.view(np.float64)


# The neighbours of both layout thresholds and the ends of float64.
EDGE_FLOATS = [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e16, 0.0), 1e16,
               0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               float("inf"), float("nan")]
EDGE_FLOATS += [-v for v in EDGE_FLOATS]

ALGORITHMS = ("exact", "independent", "quantized", "uncentered")


class TestFloatRows:
    """cli._float_rows writes each row as ",".join(map(repr, row)) would."""

    @pytest.mark.parametrize("shape", [(1000, 100), (25_000, 4), (1, 100_000)])
    def test_random_bit_patterns(self, shape):
        # Whole float64 bit patterns lie mostly outside [1e-4, 1e16), so most
        # of their fields are rewritten; banded ones are mostly written by
        # orjson.  The 1 x 10**5 row is longer than a chunk and is an orjson
        # call of its own.
        rng = np.random.default_rng(sum(shape))
        x = np.frombuffer(rng.bytes(8 * 101_000), np.float64)
        x = x[np.isfinite(x)][:100_000]
        for values in (x, banded_floats(rng, 100_000)):
            values = values.reshape(shape)
            assert list(cli._float_rows(values)) == repr_rows(values)

    @pytest.mark.parametrize("rows", [1, 3, 40])
    def test_edge_values_inside_and_outside_orjson_chunks(self, rows):
        # Among normal values orjson writes most of a chunk and only the edge
        # fields are rewritten; alone, nearly every field is rewritten.
        rng = np.random.default_rng(rows)
        block = rng.standard_normal((rows, 200))
        for k, v in enumerate(EDGE_FLOATS):
            block[k % rows, (7 * k) % 200] = v
        edges = np.array([EDGE_FLOATS])
        for values in (block, edges, edges.T):
            got = list(cli._float_rows(values))
            assert got == repr_rows(values)
            assert not any("null" in line for line in got)

    @pytest.mark.parametrize("shape", [(0, 5), (0, 1), (7, 1), (300, 1), (1, 9), (1, 300),
                                       (1, 1)])
    def test_degenerate_shapes(self, shape):
        values = np.random.default_rng(5).standard_normal(shape)
        assert list(cli._float_rows(values)) == repr_rows(values)

    def test_strided_and_integral_input(self):
        values = np.arange(6000.0).reshape(60, 100)[::2, 1::3]
        assert list(cli._float_rows(values)) == repr_rows(values)

    @pytest.mark.parametrize("cap", [None, 64])
    def test_each_orjson_call_is_capped(self, monkeypatch, cap):
        # Every block reaches orjson, in calls of at most FORMAT_CHUNK_ENTRIES
        # entries; a row longer than that is a call of its own.
        sizes = []
        monkeypatch.setattr(orjson, "dumps",
                            lambda obj, *a, dumps=orjson.dumps, **k:
                            sizes.append(obj.size) or dumps(obj, *a, **k))
        if cap is not None:
            monkeypatch.setattr(cli, "FORMAT_CHUNK_ENTRIES", cap)
        cap = cli.FORMAT_CHUNK_ENTRIES
        rng = np.random.default_rng(9)
        for (n, d), calls in [((1, 1), 1), ((4, 3), 1), ((3 * cap // 5 + 7, 5), 4),
                              ((cap + 1, 1), 2), ((cap // 2, 2), 1), ((3, cap + 1), 3)]:
            sizes.clear()
            values = rng.standard_normal((n, d))
            lines = cli._float_rows(values)
            first = next(lines)
            assert len(sizes) == 1  # lines are yielded chunk by chunk
            assert [first, *lines] == repr_rows(values)
            assert len(sizes) == calls and max(sizes) <= max(cap, d)
            assert sum(sizes) == values.size

    def test_mostly_tiny_block(self):
        # Every row of a 20 x 1024 block near 1e-5 is mostly fields that
        # orjson lays out unlike repr, and each of them is rewritten.
        rng = np.random.default_rng(12)
        values = rng.standard_normal((20, 1024)) * 1e-5
        values[3, :400] = rng.standard_normal(400)  # 40% ordinary fields
        assert list(cli._float_rows(values)) == repr_rows(values)

    def test_salted_block(self):
        # 8% of a 20 x 1024 block set to +-inf, NaN, 1e16, -1e16 or a tiny
        # value: orjson writes the row and repr's text replaces each of its
        # "null"s and misformatted numbers, also next to one another and at
        # either end of a row.
        rng = np.random.default_rng(13)
        values = rng.standard_normal((20, 1024))
        salt = np.array([np.inf, -np.inf, np.nan, 1e16, -1e16, 3e-7, -5e-324, 1.5e300])
        cells = rng.choice(values.size, values.size * 8 // 100, replace=False)
        values.flat[cells] = rng.choice(salt, cells.size)
        values[:, [0, 1, 2, -2, -1]] = salt[:5]
        assert list(cli._float_rows(values)) == repr_rows(values)
        assert list(cli._float_rows(values[:, :130])) == repr_rows(values[:, :130])


def fstring_trial_rows(messages, decoded):
    return [f"{t},{m},{g},{'true' if m == g else 'false'}"
            for t, (m, g) in enumerate(zip(messages.tolist(), decoded.tolist()))]


class TestTrialRows:
    """cli._trial_rows writes the rows a per-trial f-string would."""

    @pytest.mark.parametrize("cap", [None, 64])
    def test_rows_match_the_fstring_rows(self, monkeypatch, cap):
        sizes = []
        monkeypatch.setattr(orjson, "dumps",
                            lambda obj, *a, dumps=orjson.dumps, **k:
                            sizes.append(len(obj)) or dumps(obj, *a, **k))
        if cap is not None:
            monkeypatch.setattr(cli, "FORMAT_CHUNK_ENTRIES", cap)
        cap = cli.FORMAT_CHUNK_ENTRIES
        rng = np.random.default_rng(14)
        for n in (1, 400, cap - 1, cap, cap + 1):
            sizes.clear()
            # Indices up to the largest m_code a codebook allows, about half
            # decoded right.
            messages = rng.integers(channel.CODE_MAX_ENTRIES, size=n)
            decoded = np.where(rng.random(n) < 0.5, messages, rng.integers(3, size=n))
            texts = list(cli._trial_rows(messages, decoded))
            assert "\n".join(texts) == "\n".join(fstring_trial_rows(messages, decoded))
            assert sizes == [min(cap, n - lo) for lo in range(0, n, cap)]
            assert len(texts) == len(sizes)


class TestValidateQuadrature:
    def test_default_grid_has_27_rows(self, tmp_path):
        out = tmp_path / "vq.csv"
        assert main(["validate-quadrature", "--n-points", "512",
                     "--output", str(out)]) == 0
        rows = data_rows(out)
        assert rows[0].strip() == "eta,kappa,h,M,N,q,E1,E2"
        assert len(rows) == 1 + 27

    def test_every_row_certifies_lemma_bound(self, tmp_path):
        out = tmp_path / "vq.csv"
        main(["validate-quadrature", "--n-points", "512", "--output", str(out)])
        for line in data_rows(out)[1:]:
            cols = line.split(",")
            eta, e1, e2 = float(cols[0]), float(cols[6]), float(cols[7])
            assert e1 <= eta
            assert e2 <= 2 * eta

    def test_empty_eta_list_gives_header_only(self, tmp_path):
        out = tmp_path / "vq.csv"
        assert main(["validate-quadrature", "--etas", "", "--output", str(out)]) == 0
        assert len(data_rows(out)) == 1

    @pytest.mark.parametrize("flags", [["--etas", "0.1,x"], ["--kappas", "1,abc"]])
    def test_bad_float_list_exit_2(self, tmp_path, capsys, flags):
        assert main(["validate-quadrature", *flags, "--output", str(tmp_path / "x.csv")]) == 2
        assert_parameter_error(capsys, repr(flags[1].split(",")[1]))

    def test_bad_rows_skipped_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "vq.csv"
        assert main(["validate-quadrature", "--etas", "0.9,0.1", "--kappas", "10",
                     "--n-points", "64", "--output", str(out)]) == 0
        assert len(data_rows(out)) == 2
        assert "skipping" in capsys.readouterr().err

    @pytest.mark.parametrize("n_points", ["1", "65538", "100000000"])  # 10**8: 17 GiB
    def test_n_points_out_of_range_exit_2(self, tmp_path, capsys, n_points):
        out = tmp_path / "vq.csv"
        assert main(["validate-quadrature", "--etas", "0.01", "--kappas", "1e4",
                     "--n-points", n_points, "--output", str(out)]) == 2
        assert not out.exists()
        assert_parameter_error(capsys, "n_points")


class TestSample:
    def test_runs_zero_gives_header_only(self, tmp_path, run_config):
        path, cfg = run_config
        cfg["runs"] = 0
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s.csv"
        assert main(["sample", "--config", str(path), "--output", str(out)]) == 0
        rows = data_rows(out)
        assert len(rows) == 1
        assert rows[0].strip() == "run,y0,y1,q,Q,clip_overflow,tv_certificate"

    def test_certificate_below_delta_for_exact(self, tmp_path, run_config):
        path, _ = run_config
        out = tmp_path / "s.csv"
        main(["sample", "--config", str(path), "--output", str(out)])
        for line in data_rows(out)[1:]:
            assert float(line.split(",")[-1]) <= 0.2

    def test_seeded_rerun_identical(self, tmp_path, run_config):
        path, _ = run_config
        rows1, rows2 = run_twice(
            tmp_path, lambda out: ["sample", "--config", str(path), "--output", out])
        assert rows1 == rows2

    @pytest.mark.parametrize("seed", [2**64 + 3, 10**40])
    def test_seeds_beyond_64_bits_are_read_exactly(self, tmp_path, run_config, seed):
        # orjson reads such a seed as its nearest float; the CLI re-reads the
        # seed as written, so the rows are those of the exact integer's streams.
        path, cfg = run_config
        path.write_text(json.dumps({**cfg, "seed": seed}))
        out = tmp_path / "s.csv"
        assert main(["sample", "--config", str(path), "--output", str(out)]) == 0
        rows = [line.rstrip("\n").split(",") for line in data_rows(out)[1:]]
        target = target_from_dict(cfg["target"])

        def block(s):
            return samplers.sample_many(cfg["algorithm"], target, cfg["delta_tv"],
                                        streams.run_streams(s, cfg["runs"]))

        want = block(seed)
        assert [[float(v) for v in row[1:3]] for row in rows] == want.outputs.tolist()
        assert [int(row[3]) for row in rows] == want.query_counts.tolist()
        assert not np.array_equal(block(int(float(seed))).outputs, want.outputs)

    @pytest.mark.parametrize("mutate", [
        {"delta_tv": 1.5},
        {"algorithm": "nonsense"},
        {"runs": -1},
        {"delta_tv": 1e-80},
        {"target": {"dim": 2, "kappa": 100.0, "eigvals": [float("nan"), 100.0]}},
        {"algorithm": "quantized",
         "target": {"dim": 2, "kappa": 1e100, "eigvals": [1.0, 1e100]}},
        {"algorithm": "quantized", "runs": 0,
         "target": {"dim": 2, "kappa": 1e100, "eigvals": [1.0, 1e100]}},
        # With no runs a block still checks the target and the roundoff floor.
        {"runs": 0, "target": {"dim": 2, "kappa": 100.0, "eigvals": [1.0, 100.0],
                               "mean": [1.0, -1.0]}},
        {"runs": 0, "delta_tv": 1e-7, "target": {"dim": 2, "kappa": 4.0, "eigvals": [1.0, 4.0]}},
        {"runs": 0, "algorithm": "uncentered", "delta_mu": -1.0},
        pytest.param("[1, 2]", id="not-an-object"),
        pytest.param('{"seed": 7,', id="not-json"),
        {"seed": -1},
        {"seed": 1.7},
        {"runs": "a"},
        {"runs": 2.9},
        {"runs": True},
        {"runs": 1e30},
        {"delta_tv": "x"},
        {"algorithm": "uncentered", "delta_mu": "z"},
        {"target": {"dim": 2, "kappa": 100.0, "eigvals": [1.0, 100.0], "mean": [1, "a"]}},
        {"target": {"dim": 2, "kappa": 100.0, "eigvals": [1.0, 100.0],
                    "basis": [1.0, 0.0, 0.0, "q"]}},
        # delta_mu is checked whenever it is given, not only where it is used.
        {"delta_mu": -5},
        {"algorithm": "independent", "delta_mu": 0.0},
        {"algorithm": "quantized", "runs": 0, "delta_mu": -1.0},
        {"delta_tv": True},
        {"delta_mu": True},
        # A seed beyond 64 bits is re-read by json, which recurses per level.
        pytest.param('{"target": {}, "delta_tv": 0.1, "seed": 18446744073709551619, "x": %s}'
                     % ("[" * 3000 + "]" * 3000), id="deep-nest-big-seed"),
        # Integral floats and negative seeds beyond 64 bits go through the same re-read.
        {"seed": 7.0},
        {"seed": 1e30},
        {"seed": -2**64 - 3},
        # A bool among numbers would read as 1.0.
        pytest.param({"target": {"dim": 2, "kappa": 100.0, "eigvals": [True, 100.0]}},
                     id="eigvals-bool"),
    ])
    def test_domain_errors_exit_2(self, tmp_path, capsys, run_config, mutate):
        # A dict changes fields of a valid descriptor; a str is the whole file.
        path, cfg = run_config
        path.write_text(mutate if isinstance(mutate, str) else json.dumps({**cfg, **mutate}))
        assert main(["sample", "--config", str(path),
                     "--output", str(tmp_path / "x.csv")]) == 2
        assert_parameter_error(capsys)

    def test_missing_config_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sample", "--config", str(tmp_path / "missing.json"),
                     "--output", str(out)]) == 2
        assert_parameter_error(capsys, "missing.json")
        assert not out.exists()

    @pytest.mark.parametrize("runs, cap, code", [(10**12, cli.SAMPLE_MAX_ENTRIES, 2),
                                                 (6, 11, 2), (5, 10, 0)])
    def test_runs_capped_before_any_stream_is_spawned(self, tmp_path, capsys, monkeypatch,
                                                       run_config, runs, cap, code):
        # runs * d against the cap, at d = 2; 10**12 streams would take weeks.
        path, cfg = run_config
        path.write_text(json.dumps({**cfg, "runs": runs}))
        monkeypatch.setattr(cli, "SAMPLE_MAX_ENTRIES", cap)
        seeds = []
        monkeypatch.setattr(cli, "run_streams",
                            lambda *a, make=cli.run_streams: seeds.append(a) or make(*a))
        out = tmp_path / "x.csv"
        assert main(["sample", "--config", str(path), "--output", str(out)]) == code
        if code == 2:
            assert seeds == []
            assert not out.exists()
            assert_parameter_error(capsys, "runs")
        else:
            assert len(data_rows(out)) == runs + 1

    def test_quantized_run_reports_bits(self, tmp_path, run_config):
        path, cfg = run_config
        cfg["algorithm"] = "quantized"
        cfg["runs"] = 2
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s.csv"
        assert main(["sample", "--config", str(path), "--output", str(out)]) == 0
        for line in data_rows(out)[1:]:
            cols = line.split(",")
            assert int(cols[4]) > 0  # Q column
            assert cols[5] in ("true", "false")


    @pytest.mark.parametrize("algorithm", ["exact", "independent", "quantized", "uncentered"])
    def test_certificate_is_the_law_of_the_reported_grid(self, tmp_path, run_config, algorithm):
        path, cfg = run_config
        cfg.update(algorithm=algorithm, delta_mu=0.1, runs=1)
        if algorithm == "uncentered":
            cfg["target"]["mean"] = [1.0, -2.0]
        path.write_text(json.dumps(cfg))
        out = tmp_path / "s.csv"
        assert main(["sample", "--config", str(path), "--output", str(out)]) == 0
        certificate = float(data_rows(out)[1].split(",")[-1])

        target = target_from_dict(cfg["target"])
        rng = np.random.default_rng(0)
        report = {"exact": lambda: sample_exact(target, 0.2, rng),
                  "independent": lambda: sample_independent(target, 0.2, rng),
                  "quantized": lambda: sample_quantized(target, 0.2, rng),
                  "uncentered": lambda: sample_uncentered(target, 0.2, 0.1, rng)}[algorithm]()
        p = report.params
        grid = build_grid(p["eta"], target.kappa)
        assert (grid.h, grid.M, grid.N) == (p["h"], p["M"], p["N"])
        # The closed forms written out, not read from SamplerParams.law.
        lam = target.eigvals
        ratios = {"exact": lambda: lam * eval_r(grid, lam) ** 2,
                  "independent": lambda: lam * eval_sq_sum(grid, lam) / grid.L_h,
                  "quantized": lambda: lam * (eval_r(grid, lam) ** 2 + p["sigma2"]),
                  "uncentered": lambda: lam * eval_r(grid, lam) ** 2}[algorithm]()
        if algorithm != "uncentered":
            assert certificate == tv_bound(CoDiagonalLawPair(ratios))
        else:
            # The mean offset (1 - r(0) + r(lam_i)) e, ||e||_Lambda <= delta_mu,
            # adds at most A^2 delta_mu^2 / 2 to the KL.
            a = np.max(np.abs(1.0 - np.sum(grid.coeffs / grid.alphas) + eval_r(grid, lam)))
            kl = kl_codiagonal(CoDiagonalLawPair(ratios))
            assert certificate == pytest.approx(math.sqrt((kl + 0.5 * (a * 0.1) ** 2) / 2.0),
                                                rel=1e-15)

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("d, kappa", [(5, 1e4), (8, 1e4), (16, 1e8)])
    def test_uncentered_certificate_bounds_each_marginal_tv(self, tmp_path, rotated, d, kappa):
        # A row's TV to the target is at least that of any 1-d marginal.
        # Along eigendirection i a row is N(mu_i + m_i, r(lam_i)^2) against
        # N(mu_i, 1/lam_i), where the mean offset m is the output at z = 0,
        # mu_hat + sum_j c_j tau_j^2 s_j(mu_hat), less mu.  Up to delta_mu =
        # 1e-2 the worst marginal's TV reaches about 1, while the centered
        # law's bound stays near 3e-3.
        rng = np.random.default_rng(d)
        doc = {"dim": d, "kappa": kappa, "eigvals": np.geomspace(1.0, kappa, d).tolist(),
               "mean": (3.0 * rng.standard_normal(d)).tolist()}
        if rotated:
            doc["basis"] = np.linalg.qr(rng.standard_normal((d, d)))[0].reshape(-1).tolist()
        target = target_from_dict(doc)
        grid = sampler_params("uncentered", d, kappa, 0.1).grid
        taus, lam = 1.0 / grid.alphas, target.eigvals
        r = eval_r(grid, lam)
        path, out = tmp_path / "run.json", tmp_path / "s.csv"
        for delta_mu in (1e-6, 1e-4, 1e-3, 1e-2):
            path.write_text(json.dumps({"algorithm": "uncentered", "target": doc, "delta_tv": 0.1,
                                        "delta_mu": delta_mu, "seed": 3, "runs": 4}))
            assert main(["sample", "--config", str(path), "--output", str(out)]) == 0
            certificates = {float(line.rsplit(",", 1)[1]) for line in data_rows(out)[1:]}

            mu_hat = estimate_mean(target, delta_mu)
            scores = ScoreOracle(target).smoothed_scores(taus, mu_hat)
            offset = mu_hat + np.sum((grid.coeffs * taus**2)[:, None] * scores, axis=0)
            m = target.to_eigenbasis(offset - target.mean)
            tvs = [tv_gaussians_1d(mi, ri**2, 0.0, 1.0 / li) for mi, ri, li in zip(m, r, lam)]
            i = int(np.argmax(tvs))
            assert tv_by_quadrature(m[i], r[i] ** 2, 0.0, 1.0 / lam[i]) == pytest.approx(
                tvs[i], abs=1e-8)
            assert len(certificates) == 1 and certificates.pop() >= max(tvs), delta_mu


    @pytest.mark.parametrize("rotated, algorithm, d, kappa, eigvals, runs, digest", [
        # d = 5, 12 runs: blocks of 60 entries.
        *(pytest.param(rotated, alg, 5, 1e4, None, 12, None, id=f"{rotated}-{alg}")
          for rotated in (False, True) for alg in ALGORITHMS),
        # d = 16, 12 runs: blocks of 192 entries.
        *(pytest.param(rotated, alg, 16, 1e4, None, 12, None, id=f"{rotated}-{alg}-d16")
          for rotated in (False, True) for alg in ALGORITHMS),
        # Rotated d = 17 and 33, odd widths where row and column layouts round
        # differently; one product over a whole block's rows changes rows here.
        *(pytest.param(True, alg, d, 1e4, None, 12, None, id=f"True-{alg}-d{d}")
          for d in (17, 33) for alg in ALGORITHMS),
        # At kappa = 1e8 most coordinates have standard deviations of 1e-4 to
        # 3e-4, so 98 of the 240 fields are in repr's exponent layout and are
        # rewritten.  The digest of the header and data rows was taken before
        # orjson wrote any row.
        pytest.param(False, "exact", 12, 1e8, [1.0, *np.geomspace(1e7, 1e8, 11).tolist()], 20,
                     "c1b3bfcd308d157fe2bd74c55371ff2dedec1bba5634dd2039237d5142ff70dc",
                     id="False-exact-kappa1e8"),
    ])
    def test_rows_match_a_per_run_loop(self, tmp_path, rotated, algorithm, d, kappa, eigvals,
                                       runs, digest):
        # One block call writes the rows a loop of per-run samplers on the
        # spawned streams gives, formatted value by value with _fmt.
        rng = np.random.default_rng(4)
        doc = {"dim": d, "kappa": kappa,
               "eigvals": eigvals or np.geomspace(1.0, kappa, d).tolist(),
               "mean": (3.0 * rng.standard_normal(d) if algorithm == "uncentered"
                        else np.zeros(d)).tolist()}
        if rotated:
            doc["basis"] = np.linalg.qr(rng.standard_normal((d, d)))[0].reshape(-1).tolist()
        cfg = {"algorithm": algorithm, "target": doc, "delta_tv": 0.1, "delta_mu": 1e-6,
               "seed": 17, "runs": runs}
        path, out = tmp_path / "run.json", tmp_path / "s.csv"
        path.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(path), "--output", str(out)]) == 0
        rows = data_rows(out)
        if digest is not None:
            assert hashlib.sha256("".join(rows).encode()).hexdigest() == digest

        target = target_from_dict(doc)
        certificate = sampler_params(algorithm, d, kappa, 0.1).certificate(target, 1e-6)
        run = {"exact": lambda s: sample_exact(target, 0.1, s),
               "independent": lambda s: sample_independent(target, 0.1, s),
               "quantized": lambda s: sample_quantized(target, 0.1, s),
               "uncentered": lambda s: sample_uncentered(target, 0.1, 1e-6, s)}[algorithm]
        want = []
        for i, s in enumerate(np.random.default_rng(17).spawn(runs)):
            rep = run(s)
            row = (i, *rep.output, rep.query_count, rep.bits_total, rep.clip_overflow, certificate)
            want.append(",".join(cli._fmt(v) for v in row) + "\n")
        assert rows[1:] == want

    @pytest.mark.parametrize("d, kappa, rotated, digest", [
        (3, 1e4, False, "24ba8500a1fa00db75a0c751527aa711866459c4f862688c2596e2147106370c"),
        (64, 1e8, True, "a824cc356047345e6306f7b57d3805dbbccea0adbb3f4105bcceddbe11b3c8de"),
    ])
    def test_quantized_rows_are_pinned_per_seed(self, tmp_path, d, kappa, rotated, digest):
        # SHA-256 of the header and data rows of a seeded quantized block.
        # The basis is a Householder reflection I - 2 v v^T / (v^T v), built
        # elementwise; every row spends Q = d * B * q bits.
        doc = {"dim": d, "kappa": kappa, "eigvals": np.geomspace(1.0, kappa, d).tolist()}
        if rotated:
            v = np.cos(np.arange(1.0, d + 1.0))
            doc["basis"] = (np.eye(d) - 2.0 * np.outer(v, v) / np.sum(v * v)).reshape(-1).tolist()
        cfg = {"algorithm": "quantized", "target": doc, "delta_tv": 0.1, "seed": 11, "runs": 6}
        path, out = tmp_path / "run.json", tmp_path / "s.csv"
        path.write_text(json.dumps(cfg))
        assert main(["sample", "--config", str(path), "--output", str(out)]) == 0
        rows = data_rows(out)
        assert hashlib.sha256("".join(rows).encode()).hexdigest() == digest
        spec = sampler_params("quantized", d, kappa, 0.1)
        for line in rows[1:]:
            q, bits = map(int, line.split(",")[d + 1:d + 3])
            assert (q, bits) == (spec.grid.query_budget, d * spec.bits * q)


class TestScaling:
    def test_columns_and_determinism(self, tmp_path):
        def build(out):
            return ["scaling", "--kappas", "1,100,10000", "--delta-tv", "0.1",
                    "--d", "4", "--output", out]
        rows1, rows2 = run_twice(tmp_path, build)
        assert rows1 == rows2
        assert rows1[0].strip() == "kappa,d,q_exact,q_independent,Q_quantized,B,R_clip,sigma2"
        assert [int(r.split(",")[1]) for r in rows1[1:]] == [4, 4, 4]
        # equal decade steps in kappa: q_exact increments agree within +/-1
        q = [int(r.split(",")[2]) for r in rows1[1:]]
        assert abs((q[2] - q[1]) - (q[1] - q[0])) <= 1

    def test_budgets_reported_beyond_the_quantizer_ceiling(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["scaling", "--kappas", "1e100", "--delta-tv", "0.1", "--d", "4",
                     "--output", str(out)]) == 0
        assert int(data_rows(out)[1].split(",")[5]) == 182  # B > 52: sampling refuses

    def test_domain_error_exit_2(self, tmp_path, capsys):
        for kappas, d in [("0.5", "2"), ("1,abc", "2"), ("100", "0"), ("100", "-3")]:
            assert main(["scaling", "--kappas", kappas, "--delta-tv", "0.1", "--d", d,
                         "--output", str(tmp_path / "x.csv")]) == 2
            assert_parameter_error(capsys)


class TestChannelExp:
    def test_csv_and_summary(self, tmp_path):
        out = tmp_path / "ch.csv"
        summ = tmp_path / "ch.json"
        assert main(["channel-exp", "--d", "8", "--r", "2", "--kappa", "100",
                     "--mcode", "4", "--trials", "64", "--seed", "5",
                     "--output", str(out), "--summary", str(summ)]) == 0
        rows = data_rows(out)
        assert rows[0].strip() == "trial,message,decoded,correct"
        assert len(rows) == 1 + 64
        doc = json.loads(summ.read_text())
        assert doc["k_prime"] == 2
        assert doc["trials"] == 64
        assert 0.0 <= doc["error_rate"] <= 1.0
        if not doc["vacuous"]:
            assert doc["q_lower"] <= doc["k_prime"]

    @pytest.mark.parametrize("delta_tv, errors", [(0.7, 3), (0.7, 2), (0.5, 5), (0.9, 0)])
    def test_summary_takes_the_verdict_of_converse_bound(self, tmp_path, monkeypatch,
                                                         delta_tv, errors):
        # eps = errors / 10; at delta_tv = 0.7, eps = 0.3 sums to exactly 1.0.
        decoded = (np.arange(10) < errors).astype(np.int64)
        monkeypatch.setattr(channel, "run_coding_experiment", lambda *a, **k:
                            channel.ExperimentResult(10, errors, np.zeros(10, np.int64), decoded))
        summ = tmp_path / "ch.json"
        assert main(["channel-exp", "--d", "8", "--r", "2", "--kappa", "100",
                     "--mcode", "4", "--trials", "10", "--seed", "5",
                     "--delta-tv", str(delta_tv), "--output", str(tmp_path / "ch.csv"),
                     "--summary", str(summ)]) == 0
        doc = json.loads(summ.read_text())
        want = channel.converse_bound(2, delta_tv, errors / 10)
        assert doc["q_lower"] == want
        assert doc["vacuous"] is (want is None) is (delta_tv + errors / 10 >= 1.0)

    def test_zero_trials_exit_2(self, tmp_path):
        assert main(["channel-exp", "--d", "8", "--r", "2", "--kappa", "100",
                     "--mcode", "4", "--trials", "0", "--seed", "5",
                     "--output", str(tmp_path / "x.csv")]) == 2

    def test_seeded_rerun_identical(self, tmp_path):
        def build(out):
            return ["channel-exp", "--d", "8", "--r", "2", "--kappa", "100",
                    "--mcode", "4", "--trials", "32", "--seed", "9",
                    "--output", out]
        rows1, rows2 = run_twice(tmp_path, build)
        assert rows1 == rows2

    @pytest.mark.parametrize("extra", [
        ["--mcode", "1000000000000", "--delta-tv", "0.5"],  # a 698 TiB codebook
        ["--mcode", "4", "--delta-tv", "1.5"],
        ["--mcode", "4", "--delta-tv", "-0.1"],
        ["--mcode", "4", "--seed", "-1"],
        ["--mcode", "4", "--trials", "1000000000000"],  # 3.9e9 block streams
        ["--mcode", "4", "--trials", "1000000000000", "--fixed-codebook"],
    ])
    def test_bad_size_or_delta_exit_2_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                        extra):
        draws = []
        monkeypatch.setattr(channel, "_draw_code",
                            lambda *a, draw=channel._draw_code: draws.append(1) or draw(*a))
        monkeypatch.setattr(channel, "_map_trials",
                            lambda *a: pytest.fail("trials ran after a parameter error"))
        out = tmp_path / "x.csv"
        assert main(["channel-exp", "--d", "32", "--r", "3", "--kappa", "1e4",
                     "--trials", "1", "--seed", "5", *extra, "--output", str(out)]) == 2
        assert draws == []
        assert not out.exists()
        assert_parameter_error(capsys)

    @pytest.mark.parametrize("d, r, kappa, m_code, trials, fixed, seed, digest", [
        (8, 2, "30", 8, 600, False, 3,
         "e77dec9b23123f8f8c800adf86acfe0c6f4a87aa84b1d7c60b200fe8039f3c27"),
        (8, 2, "30", 8, 600, False, 19,
         "cbd644afc8deb725e78e9e01840cb73aead859d1182a71c85fcc6b5674e83d9e"),
        (8, 2, "30", 8, 600, True, 3,
         "11c98305e32d593b9b9451f1e45759c8b0365f0e6b1f4fbe27f15fa8e0e9c1c2"),
        (8, 2, "30", 8, 600, True, 19,
         "c241754d66173c86553cb03cbf2f76e7dafa9f49619f9bcbecf161c3aca429a0"),
        (32, 3, "1e4", 64, 600, False, 3,
         "e079519e78a5c365355dc1d9cf79e9c4941ed9e14a5df7f9ae1ff0e24746a9c7"),
        (32, 3, "1e4", 1024, 300, True, 19,
         "d962732a21332516cdfe7f893cb28ce9f6ee78d2d5cffe01f6b4872a48353d6c"),
    ])
    def test_rows_are_pinned_per_seed(self, tmp_path, d, r, kappa, m_code, trials, fixed,
                                      seed, digest):
        # SHA-256 of the header and data rows; 600 trials make three blocks,
        # the last one partial.
        out = tmp_path / "ch.csv"
        argv = ["channel-exp", "--d", str(d), "--r", str(r), "--kappa", kappa,
                "--mcode", str(m_code), "--trials", str(trials), "--seed", str(seed),
                "--output", str(out)]
        assert main(argv + ["--fixed-codebook"] * fixed) == 0
        assert hashlib.sha256("".join(data_rows(out)).encode()).hexdigest() == digest

    def test_infinite_kappa_exit_2_without_summary(self, tmp_path, capsys):
        # --kappa inf used to exit 0 with "kappa": Infinity, which is not
        # JSON, in the summary.
        out, summ = tmp_path / "x.csv", tmp_path / "x.json"
        assert main(["channel-exp", "--d", "8", "--r", "2", "--kappa", "inf",
                     "--mcode", "4", "--trials", "4", "--seed", "5",
                     "--output", str(out), "--summary", str(summ)]) == 2
        assert not summ.exists() and not out.exists()
        assert_parameter_error(capsys, "kappa")


class TestTube:
    def test_table_and_determinism(self, tmp_path):
        def build(out):
            return ["tube", "--d", "8", "--r", "2", "--thetas", "0.3,0.5",
                    "--trials", "500", "--seed", "3", "--output", out]
        rows1, rows2 = run_twice(tmp_path, build)
        assert rows1 == rows2
        assert rows1[0].strip() == "theta,empirical,analytic"
        assert len(rows1) == 3

    def test_rows_match_one_draw_of_all_points(self, tmp_path):
        # The table as one subspace_distance_samples call of every point
        # gives it, theta by theta.
        out = tmp_path / "t.csv"
        thetas = [0.5, 0.88, 0.9, 0.97]
        assert main(["tube", "--d", "64", "--r", "8", "--thetas", "0.5,0.88,0.9,0.97",
                     "--trials", "5000", "--seed", "3", "--output", str(out)]) == 0
        dist2 = channel.subspace_distance_samples(64, 8, 5000, np.random.default_rng(3))
        want = [f"{theta!r},{float(np.mean(dist2 <= theta**2))!r},"
                f"{channel.betainc_reg(28.0, 4.0, theta**2)!r}\n" for theta in thetas]
        assert data_rows(out)[1:] == want

    def test_rows_are_pinned_per_seed(self, tmp_path):
        # SHA-256 of the header and data rows of the benchmark's tube table at
        # 20000 points: each point is drawn as chi^2_8, then chi^2_56.
        out = tmp_path / "t.csv"
        assert main(["tube", "--d", "64", "--r", "8", "--thetas", "0.88,0.9,0.92,0.94,0.97",
                     "--trials", "20000", "--seed", "3", "--output", str(out)]) == 0
        digest = hashlib.sha256("".join(data_rows(out)).encode()).hexdigest()
        assert digest == "66e7b9d79c5425b704f13fb9e7f7af256f48cc753a2a139ec12c8ca2d4d45710"

    def test_rows_on_both_branches_are_pinned(self, tmp_path):
        # SHA-256 of the header and data rows at (10, 3), 20000 points, as one
        # betainc_reg call per theta gives the analytic column.  The switch
        # point of the continued fraction is 9/14, so 0.3 and 0.8 take the
        # direct branch and 0.81 and 0.95 the reflected one.
        out = tmp_path / "t.csv"
        assert main(["tube", "--d", "10", "--r", "3", "--thetas", "0.3,0.8,0.81,0.95",
                     "--trials", "20000", "--seed", "5", "--output", str(out)]) == 0
        digest = hashlib.sha256("".join(data_rows(out)).encode()).hexdigest()
        assert digest == "33c2e8ea1f05e6f167bd19e2e6d6ee99dba34286168caa58ea22c3661c858b58"

    def test_bad_theta_exit_2(self, tmp_path, capsys):
        for thetas, seed in [("1.2", "0"), ("0.5,abc", "0"), ("0.5", "-1")]:
            assert main(["tube", "--d", "8", "--r", "2", "--thetas", thetas,
                         "--trials", "10", "--seed", seed,
                         "--output", str(tmp_path / "x.csv")]) == 2
            assert_parameter_error(capsys)

    @pytest.mark.parametrize("d, trials", [("8", "1000000000000"), ("10000000000", "10")])
    def test_oversized_draw_exit_2(self, tmp_path, capsys, d, trials):
        out = tmp_path / "x.csv"
        assert main(["tube", "--d", d, "--r", "3", "--thetas", "0.5", "--trials", trials,
                     "--seed", "0", "--output", str(out)]) == 2
        assert not out.exists()
        assert_parameter_error(capsys)


class TestMeanEst:
    def test_certificate_column(self, tmp_path):
        tgt = tmp_path / "t.json"
        tgt.write_text(json.dumps({"dim": 2, "kappa": 4.0, "eigvals": [1.0, 4.0],
                                   "mean": [1.5, -0.5]}))
        out = tmp_path / "m.csv"
        assert main(["mean-est", "--target", str(tgt), "--delta-mu", "0.1",
                     "--output", str(out)]) == 0
        rows = data_rows(out)
        assert rows[0].startswith("delta_mu,q,err_lambda,muhat0")
        cols = rows[1].split(",")
        assert int(cols[1]) == 2
        assert float(cols[2]) <= 0.1

    def test_infinite_delta_mu_exit_2(self, tmp_path, capsys):
        tgt = tmp_path / "t.json"
        tgt.write_text(json.dumps({"dim": 2, "kappa": 2.0, "eigvals": [1.0, 2.0],
                                   "mean": [1.0, 1.0]}))
        assert main(["mean-est", "--target", str(tgt), "--delta-mu", "inf",
                     "--output", str(tmp_path / "x.csv")]) == 2
        assert_parameter_error(capsys, "delta_mu")

    def test_overflowing_mean_exit_2(self, tmp_path):
        tgt = tmp_path / "t.json"
        tgt.write_text(json.dumps({"dim": 2, "kappa": 2.0, "eigvals": [1.0, 2.0],
                                   "mean": [1e308, 1e308]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mean-est", "--target", str(tgt), "--delta-mu", "0.1",
                         "--output", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("mean", [2e154, 1e300])
    def test_mean_beyond_squared_norm_range(self, tmp_path, mean):
        # ||b||**2 overflows float64 for both means, which are still estimated.
        tgt = tmp_path / "t.json"
        tgt.write_text(json.dumps({"dim": 2, "kappa": 2.0, "eigvals": [1.0, 2.0],
                                   "mean": [mean, mean]}))
        out = tmp_path / "m.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mean-est", "--target", str(tgt), "--delta-mu", "0.1",
                         "--output", str(out)]) == 0
        cols = [float(c) for c in data_rows(out)[1].split(",")]
        assert cols[1] == 2
        assert cols[2] <= 0.1
        assert cols[3:] == [mean, mean]

    def test_estimate_is_written_in_repr_layout(self, tmp_path, monkeypatch):
        # mu_hat = mu exactly here, and its 130 fields are formatted by one
        # orjson call; the fields at or beyond 1e16 and below 1e-4 keep repr's
        # exponent layout.
        sizes = []
        monkeypatch.setattr(orjson, "dumps",
                            lambda obj, *a, dumps=orjson.dumps, **k:
                            sizes.append(obj.size) or dumps(obj, *a, **k))
        d = 130
        mean = [1e17, -3e20, 2.5e-7, 1e16, -9999999999999998.0, 1e-4,
                *np.random.default_rng(3).standard_normal(d - 6).tolist()]
        tgt = tmp_path / "t.json"
        tgt.write_text(json.dumps({"dim": d, "kappa": 4.0,
                                   "eigvals": np.geomspace(1.0, 4.0, d).tolist(), "mean": mean}))
        out = tmp_path / "m.csv"
        assert main(["mean-est", "--target", str(tgt), "--delta-mu", "0.1",
                     "--output", str(out)]) == 0
        row = data_rows(out)[1]
        assert row.startswith("0.1,2,0.0,1e+17,-3e+20,2.5e-07,1e+16,-9999999999999998.0,0.0001,")
        assert row == ",".join(cli._fmt(v) for v in [0.1, 2, 0.0, *mean]) + "\n"
        assert sizes == [d]

    @pytest.mark.parametrize("text", [
        "not json",
        '{"dim": 2, "kappa": 4.0, "eigvals": [1.0, 4.0], "mean": [1, "a"]}',
        '{"dim": 2, "kappa": 4.0, "eigvals": [1.0, 4.0], "basis": [1, 0, 0, "q"]}',
        b"\xff\xfe",
    ], ids=["not-json", "mean", "basis", "not-utf8"])
    def test_malformed_target_exit_2(self, tmp_path, capsys, text):
        tgt = tmp_path / "t.json"
        tgt.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["mean-est", "--target", str(tgt), "--delta-mu", "0.1",
                     "--output", str(tmp_path / "x.csv")]) == 2
        assert_parameter_error(capsys)

    def test_missing_target_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["mean-est", "--target", str(tmp_path / "missing.json"),
                     "--delta-mu", "0.1", "--output", str(out)]) == 2
        assert_parameter_error(capsys, "missing.json")
        assert not out.exists()

    def test_bad_delta_exit_2(self, tmp_path):
        tgt = tmp_path / "t.json"
        tgt.write_text(json.dumps({"dim": 1, "kappa": 1.0, "eigvals": [1.0],
                                   "mean": [0.0]}))
        assert main(["mean-est", "--target", str(tgt), "--delta-mu", "-1",
                     "--output", str(tmp_path / "x.csv")]) == 2


def test_one_parser_serves_successive_calls(tmp_path, run_config, monkeypatch):
    # The parser is built once per process; alternating commands, and a bad
    # argument in between, give what fresh processes give.
    path, _ = run_config
    assert cli._parser() is cli._parser()
    builds = []
    monkeypatch.setattr(cli, "_build_parser",
                        lambda build=cli._build_parser: builds.append(1) or build())
    calls = {
        "sample": lambda out: ["sample", "--config", str(path), "--output", out],
        "scaling": lambda out: ["scaling", "--kappas", "1,1e4", "--delta-tv", "0.1",
                                "--d", "3", "--output", out],
    }
    fresh = {}
    for name, argv in calls.items():
        out = tmp_path / f"fresh-{name}.csv"
        proc = subprocess.run([sys.executable, "-m", "smoothscore", *argv(str(out))],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        fresh[name] = data_rows(out)
    bad = ["scaling", "--kappas", "1", "--d", "3"]
    proc = subprocess.run([sys.executable, "-m", "smoothscore", *bad], capture_output=True)
    assert proc.returncode == 2
    for k in range(2):
        for name, argv in calls.items():
            out = tmp_path / f"{name}-{k}.csv"
            assert main(argv(str(out))) == 0
            assert data_rows(out) == fresh[name]
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
    assert builds == []


def test_deep_nest_exits_2(tmp_path):
    # orjson recurses once per level and overflows the 8 MiB main stack near
    # 2*10**5 levels; the reader refuses the nest first.  A child process, so
    # that a crash reads as a failure.
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 300_000 + b"]" * 300_000)
    proc = subprocess.run([sys.executable, "-m", "smoothscore", "mean-est", "--target", str(deep),
                           "--delta-mu", "0.1", "--output", str(tmp_path / "m.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("parameter error: target descriptor opens more than")


def test_import_leaves_scipy_out():
    # scipy is a test-only reference; the package and its CLI run without it.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, smoothscore.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point(tmp_path):
    out = tmp_path / "vq.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "smoothscore", "validate-quadrature",
         "--etas", "0.1", "--kappas", "1", "--n-points", "64",
         "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(data_rows(out)) == 2


def test_outputs_overwrite_longer_files_in_place(tmp_path):
    # Existing regular files are rewritten in place and cut to the new
    # length: the same bytes as fresh files, and no stale tail.
    def argv(out, summary):
        return ["channel-exp", "--d", "8", "--r", "2", "--kappa", "30", "--mcode", "8",
                "--trials", "50", "--seed", "3", "--output", str(out), "--summary", str(summary)]

    fresh_out, fresh_summary = tmp_path / "fresh.csv", tmp_path / "fresh.json"
    assert main(argv(fresh_out, fresh_summary)) == 0
    out, summary = tmp_path / "old.csv", tmp_path / "old.json"
    out.write_text("stale\n" * 10000)
    summary.write_text("stale\n" * 10000)
    inode = out.stat().st_ino
    assert main(argv(out, summary)) == 0
    assert data_rows(out) == data_rows(fresh_out)
    assert summary.read_bytes() == fresh_summary.read_bytes()
    assert out.stat().st_ino == inode


def test_output_to_a_device_is_written_without_truncation(tmp_path, run_config):
    path, _ = run_config
    assert main(["sample", "--config", str(path), "--output", os.devnull]) == 0


def test_failed_write_leaves_no_stale_tail(tmp_path):
    # A row that fails mid-table leaves what was written, as "w" mode did.
    out = tmp_path / "t.csv"
    out.write_text("stale\n" * 1000)

    def lines():
        yield "1,2"
        raise ParameterError("bad row")

    with pytest.raises(ParameterError):
        cli._write_lines(str(out), ["a", "b"], lines())
    assert data_rows(out) == ["a,b\n", "1,2\n"]


@pytest.mark.parametrize("flush_chars", [None, 1, 10])
def test_failed_write_after_several_rows_keeps_them_all(tmp_path, monkeypatch, flush_chars):
    # The rows before a failing one are kept whether the file's buffer was
    # flushed already (every ``flush_chars`` characters) or only when the
    # block is left (None).
    if flush_chars is not None:
        real_open = cli._open_output

        @contextlib.contextmanager
        def flushing(path):
            with real_open(path) as fh:
                write, pending = fh.write, [0]

                def write_and_flush(text):
                    write(text)
                    pending[0] += len(text)
                    if pending[0] >= flush_chars:
                        fh.flush()
                        pending[0] = 0

                fh.write = write_and_flush
                yield fh

        monkeypatch.setattr(cli, "_open_output", flushing)
    out = tmp_path / "t.csv"
    out.write_text("stale\n" * 1000)

    def lines():
        for i in range(7):
            yield f"{i},{i * i}"
        raise ParameterError("bad row")

    with pytest.raises(ParameterError):
        cli._write_lines(str(out), ["a", "b"], lines())
    assert data_rows(out) == ["a,b\n"] + [f"{i},{i * i}\n" for i in range(7)]
