"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run with -s or check captured output on failure).

Criterion 5 is split: the affine-growth clause and the sqrt(kappa)-separation
clause are independent assertions and are reported separately. The separation
clause compares the queries that conditioning adds, q(kappa) - q(1), against
10% of ceil(sqrt(kappa)); q(1) is the kappa-free log^2(e sqrt(d)/delta_tv)
accuracy term, which polynomial access pays as well.
"""

import json
import math

import numpy as np

import smoothscore as ss
from smoothscore import diagnostics as dg
from smoothscore.cli import main as cli_main


def check(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}" + (f"  ({detail})" if detail and not ok else ""),
          flush=True)
    assert ok, f"{label}: {detail}"


def adversarial_target(d: int, kappa: float) -> ss.GaussianTarget:
    lam = np.array([1.0 if i % 2 == 0 else kappa for i in range(d)])
    return ss.GaussianTarget(eigvals=lam, kappa=kappa)


ETA_LADDER = [10.0 ** (-5.0 + 0.5 * k) for k in range(9)]
CERT_GRID = [(d, kap, dtv) for d in (1, 4, 16) for kap in (1e2, 1e4)
             for dtv in (0.05, 0.2)]


def test_criterion_01_sinc_lemma_certificate():
    worst = ""
    ok = True
    for kappa in (1.0, 1e2, 1e4):
        for eta in ETA_LADDER:
            grid = ss.build_grid(eta, kappa)
            e1 = ss.sup_error_E1(grid, 4000)
            e2 = ss.sup_error_E2(grid, 4000)
            if e1 > eta or e2 > 2 * eta:
                ok = False
                worst = f"eta={eta}, kappa={kappa}, E1={e1}, E2={e2}"
    check("criterion 1: uniform approximant errors E1<=eta, E2<=2eta on the "
          "27-pair grid", ok, worst)


def test_criterion_02_exact_sampler_tv_certificate():
    ok = True
    detail = ""
    for d, kap, dtv in CERT_GRID:
        eta = ss.exact_accuracy(d, dtv)
        law = ss.sampler_params("exact", d, kap, dtv).law(adversarial_target(d, kap))
        kl = dg.kl_codiagonal(law)
        tv = dg.tv_bound(law)
        if kl > 1.5 * d * eta**2 or tv > dtv:
            ok = False
            detail = f"d={d}, kappa={kap}, delta={dtv}: kl={kl}, tv={tv}"
    check("criterion 2: one-point sampler KL chain gives tv_bound <= delta_tv",
          ok, detail)


def test_criterion_03_independent_sampler_certificate():
    ok = True
    detail = ""
    for d, kap, dtv in CERT_GRID:
        eta = ss.independent_accuracy(d, dtv)
        params = ss.sampler_params("independent", d, kap, dtv)
        law = params.law(adversarial_target(d, kap))
        dev = law.max_deviation
        tv = dg.tv_bound(law)
        if dev > 2 * eta / params.grid.L_h or tv > dtv / 4:
            ok = False
            detail = f"d={d}, kappa={kap}, delta={dtv}: dev={dev}, tv={tv}"
    check("criterion 3: independent-query ratios within 2*eta/L_h and "
          "tv_bound <= delta_tv/4", ok, detail)


def test_criterion_04_quantized_sampler_decomposition():
    d, kap, dtv = 4, 100.0, 0.3
    target = adversarial_target(d, kap)
    params = ss.sampler_params("quantized", d, kap, dtv)
    sigma = math.sqrt(params.sigma2)

    tv_ideal = dg.tv_bound(params.law(target))
    part_a = tv_ideal <= dtv / 6

    n = 10_000
    block = ss.sample_many("quantized", target, dtv, ss.run_streams(20_240_817, n))
    clips = int(np.sum(block.clip_overflow))
    part_c = bool(np.all(block.quant_error_norms[~block.clip_overflow] <= sigma * dtv))
    part_d = bool(np.all(block.bits_totals == d * block.spec.bits * block.query_counts))
    p_budget = dtv / 3
    se = math.sqrt(p_budget * (1 - p_budget) / n)
    part_b = clips / n <= p_budget + 3 * se

    check("criterion 4a: ideal dithered law tv_bound <= delta_tv/6", part_a,
          f"tv={tv_ideal}")
    check("criterion 4b: clip frequency within budget", part_b,
          f"freq={clips / n}, budget={p_budget + 3 * se}")
    check("criterion 4c: no-clip quantization error <= sigma*delta_tv", part_c)
    check("criterion 4d: reported bit total equals d*B*q", part_d)


def test_criterion_05_query_scaling_affine():
    d, dtv = 4, 0.1
    kappas = [1.0, 1e2, 1e4, 1e8]
    q = [ss.build_grid(ss.exact_accuracy(d, dtv), k).query_budget for k in kappas]
    # ladder gaps in log kappa are (2, 2, 4) decades; normalize increments to
    # a common two-decade step before comparing
    increments = [q[1] - q[0], q[2] - q[1], (q[3] - q[2]) / 2.0]
    spread = max(increments) - min(increments)
    check("criterion 5: query budget affine in log kappa (increments within "
          "+/-1 per two decades)", spread <= 1.0,
          f"q={q}, normalized increments={increments}")


def test_criterion_05_query_scaling_separation():
    d, dtv, kap = 4, 0.1, 1e4
    eta = ss.exact_accuracy(d, dtv)
    q1 = ss.build_grid(eta, 1.0).query_budget
    qk = ss.build_grid(eta, kap).query_budget
    bound = 0.10 * math.ceil(math.sqrt(kap))
    check("criterion 5: queries added by conditioning, q(kappa) - q(1), below "
          "10% of ceil(sqrt(kappa))",
          qk - q1 < bound, f"q(1)={q1}, q(kappa)={qk}, bound={bound}")


def test_criterion_06_bit_scaling():
    d, dtv = 4, 0.2
    ok = True
    detail = ""
    for kap in (1e2, 1e3, 1e4):
        q_lo = ss.sampler_params("quantized", d, kap, dtv).total_bits(d)
        q_hi = ss.sampler_params("quantized", d, kap**2, dtv).total_bits(d)
        if q_hi / q_lo > 4.5:
            ok = False
            detail = f"kappa={kap}: Q ratio {q_hi / q_lo}"
    check("criterion 6: quantized bit total grows at most 4.5x when kappa is "
          "squared", ok, detail)


def test_criterion_07_mean_estimation():
    t = ss.GaussianTarget(eigvals=[1.0], kappa=1.0, mean=[3.0])
    oracle = ss.ScoreOracle(t)
    mu_hat = ss.estimate_mean(t, 0.1, oracle=oracle)
    worked = abs(mu_hat[0] - 90.0 / 31.0) <= 1e-12 and oracle.tape.query_count == 2

    rng = np.random.default_rng(424_242)
    ok = True
    detail = ""
    for _ in range(100):
        d = int(rng.integers(1, 17))
        kap = float(np.exp(rng.uniform(0.0, math.log(1e4))))
        lam = np.clip(np.exp(rng.uniform(0.0, math.log(kap), size=d)), 1.0, kap)
        mu = rng.standard_normal(d)
        mu *= rng.uniform(0.0, 10.0) / max(np.linalg.norm(mu), 1e-300)
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        target = ss.GaussianTarget(eigvals=lam, kappa=kap, mean=mu, basis=basis)
        orc = ss.ScoreOracle(target)
        delta_mu = float(rng.uniform(0.01, 0.5))
        est = ss.estimate_mean(target, delta_mu, oracle=orc)
        err = ss.lambda_norm(target, est - mu)
        if err > delta_mu or orc.tape.query_count != 2:
            ok = False
            detail = f"d={d}, kappa={kap}: err={err}, q={orc.tape.query_count}"
    check("criterion 7: mean estimate within delta_mu in the precision norm, "
          "two queries; worked example to 1e-12", worked and ok, detail)


def test_criterion_08_tube_law():
    analytic = ss.betainc_reg(0.5, 0.5, 0.5)
    exact_half = abs(analytic - 0.5) <= 1e-10

    crit_coeff = math.sqrt(-math.log(0.5e-3) / 2.0)  # two-sided KS, alpha = 1e-3
    ok = True
    detail = ""
    for d, r in ((8, 2), (20, 5), (64, 8)):
        n = 100_000
        dist2 = np.sort(ss.subspace_distance_samples(
            d, r, n, np.random.default_rng(1000 * d + r)))
        cdf = ss.betainc_reg((d - r) / 2.0, r / 2.0, dist2)
        hi = np.max(np.abs(np.arange(1, n + 1) / n - cdf))
        lo = np.max(np.abs(cdf - np.arange(0, n) / n))
        stat = max(hi, lo)
        if stat >= crit_coeff / math.sqrt(n):
            ok = False
            detail = f"(d={d}, r={r}): KS={stat}"
    check("criterion 8: squared subspace distance passes KS test against the "
          "Beta law; arcsine point exact to 1e-10", exact_half and ok, detail)


def test_criterion_09_one_shot_coding():
    main = ss.run_coding_experiment(32, 3, 1e4, 64, 10_000,
                                    np.random.default_rng(90_001))
    main_ok = main.error_rate <= 0.1

    ladder_m = [ss.run_coding_experiment(32, 3, 1e4, m, 4000,
                                         np.random.default_rng(90_002 + m))
                for m in (4, 64, 1024)]
    mono_m = all(
        b.error_rate >= a.error_rate - 3 * math.hypot(a.stderr, b.stderr)
        for a, b in zip(ladder_m, ladder_m[1:]))

    ladder_k = [ss.run_coding_experiment(32, 3, kap, 64, 4000,
                                         np.random.default_rng(90_010 + int(math.log10(kap))))
                for kap in (1e2, 1e3, 1e4)]
    mono_k = all(
        b.error_rate <= a.error_rate + 3 * math.hypot(a.stderr, b.stderr)
        for a, b in zip(ladder_k, ladder_k[1:]))

    check("criterion 9: subspace-code error <= 0.1 at the reference point; "
          "monotone in m_code and kappa within 3 SE",
          main_ok and mono_m and mono_k,
          f"err={main.error_rate}, m-ladder={[x.error_rate for x in ladder_m]}, "
          f"k-ladder={[x.error_rate for x in ladder_k]}")


def test_criterion_10_converse_arithmetic():
    exact = ss.converse_bound(10, 0.5, 0.25) == 8.0
    sweep = all(
        abs(ss.fixed_error_bound(k, delta) - (k - math.log2(2.0 / (1.0 - delta)))) < 1e-12
        for k in (2, 5, 12, 30) for delta in (0.0, 0.1, 0.5, 0.75, 0.9))
    rows = ss.bit_lower_bound_table(
        [1e2, 1e4], 0.5, [(32, 6, 0.25), (32, 6, 0.7)])
    flagged = (rows[0]["q_lower"] == 4.0 and not rows[0]["vacuous"]
               and rows[1]["vacuous"] and rows[1]["q_lower"] is None)
    check("criterion 10: converse arithmetic exact; fixed-error identity; "
          "vacuous rows flagged", exact and sweep and flagged)


def test_criterion_11_binary_subchannel():
    results = [ss.binary_subchannel_experiment(d, 16.0, 0.1, 10_000,
                                               np.random.default_rng(110_000 + d))
               for d in (16, 32, 64)]
    rates = [r.error_rate for r in results]
    ok = all(
        a.error_rate - b.error_rate > 3 * math.hypot(a.stderr, b.stderr)
        for a, b in zip(results, results[1:]))
    check("criterion 11: ML decoding error strictly decreases in d with 3 SE "
          "separation", ok, f"rates={rates}")


def test_criterion_12_cli_determinism(tmp_path):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "algorithm": "quantized",
        "target": {"dim": 2, "kappa": 100.0, "eigvals": [1.0, 100.0],
                   "mean": [0.0, 0.0]},
        "delta_tv": 0.3, "seed": 11, "runs": 4}))
    tgt = tmp_path / "tgt.json"
    tgt.write_text(json.dumps({"dim": 2, "kappa": 4.0, "eigvals": [1.0, 4.0],
                               "mean": [1.0, -2.0]}))
    commands = {
        "validate-quadrature": lambda out: [
            "validate-quadrature", "--etas", "0.1,0.01", "--kappas", "1,100",
            "--n-points", "256", "--output", out],
        "sample": lambda out: ["sample", "--config", str(run_cfg), "--output", out],
        "scaling": lambda out: ["scaling", "--kappas", "1,100,10000",
                                "--delta-tv", "0.2", "--d", "3", "--output", out],
        "channel-exp": lambda out: ["channel-exp", "--d", "8", "--r", "2",
                                    "--kappa", "100", "--mcode", "4",
                                    "--trials", "40", "--seed", "5",
                                    "--output", out],
        "tube": lambda out: ["tube", "--d", "8", "--r", "2", "--thetas",
                             "0.3,0.6", "--trials", "400", "--seed", "2",
                             "--output", out],
        "mean-est": lambda out: ["mean-est", "--target", str(tgt),
                                 "--delta-mu", "0.05", "--output", out],
    }
    ok = True
    detail = ""
    for name, build in commands.items():
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{name}-{tag}.csv"
            code = cli_main(build(str(path)))
            if code != 0:
                ok = False
                detail = f"{name} exited {code}"
                continue
            with open(path) as fh:
                outs.append([ln for ln in fh if not ln.startswith("#")])
        if len(outs) == 2 and outs[0] != outs[1]:
            ok = False
            detail = f"{name} rows differ between reruns"
    check("criterion 12: every CLI command reruns to byte-identical data rows",
          ok, detail)
