"""Certificates, replay, sweeps, and the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pscert import analytic, exactnum, pipeline
from pscert.analytic import BoundReport
from pscert.cli import main, poly_str
from pscert.exactnum import RealInterval
from pscert.pipeline import (SweepSpec, certify_a1, certify_general_bounds,
                             certify_mod_p, certify_pair, certify_triple,
                             dyadic_hex, frac_str, interval_from_json,
                             interval_json, parse_dyadic_hex, parse_frac,
                             replay_certificate, run_sweep)
from pscert.powersum import RegSeqVerdict, ZSet
from pscert.unipoly import QQ, ExactPoly, IrreducibilityCertificate


class TestSerialization:
    def test_frac_roundtrip(self):
        q = Fraction(-355, 113)
        assert parse_frac(frac_str(q)) == q

    def test_dyadic_roundtrip(self):
        for q in (Fraction(0), Fraction(5, 8), Fraction(-3, 1024),
                  Fraction(12345), Fraction(-1, 2 ** 200)):
            assert parse_dyadic_hex(dyadic_hex(q)) == q

    def test_dyadic_rejects_non_dyadic(self):
        with pytest.raises(ValueError):
            dyadic_hex(Fraction(1, 3))

    def test_interval_roundtrip(self):
        iv = RealInterval(Fraction(1, 3), Fraction(2, 3), prec=96)
        back = interval_from_json(interval_json(iv))
        assert back.lo == iv.lo and back.hi == iv.hi and back.prec == 96

    def test_interval_past_the_float_range(self):
        # float(10^400) raises OverflowError; the exact ends still round-trip
        iv = RealInterval(Fraction(10 ** 400), prec=128)
        d = interval_json(iv)
        assert d["approx"] == [None, None]
        assert '"approx": [null, null]' in json.dumps(d)
        back = interval_from_json(d)
        assert (back.lo, back.hi) == (iv.lo, iv.hi)
        tiny = interval_json(RealInterval(Fraction(1, 10 ** 400), prec=128))
        assert tiny["approx"] == [0.0, 0.0]

    def test_interval_wider_than_prec_roundtrips(self):
        # an exact int endpoint, and endpoints relabelled by at_prec, carry
        # more bits than prec: parsing keeps them exact, not rounded
        for iv in (RealInterval(10 ** 400, prec=128),
                   RealInterval(Fraction(1, 3), prec=256).at_prec(64)):
            back = interval_from_json(interval_json(iv))
            assert (back.lo, back.hi, back.prec) == (iv.lo, iv.hi, iv.prec)


@lru_cache(maxsize=None)
def _a1_outcome(b: int) -> tuple:
    """(status, mechanism) of certify_a1(b) at its default 128 bits."""
    conclusion = certify_a1(b).conclusion
    return conclusion["status"], conclusion.get("mechanism")


class TestCertifyA1:
    def test_b7_vacuous(self):
        cert = certify_a1(7)
        assert cert.conclusion["status"] == "closed"
        assert cert.conclusion["mechanism"] == "vacuous"

    def test_b8_window_scan(self):
        cert = certify_a1(8)
        assert cert.conclusion["status"] == "closed"
        assert cert.conclusion["mechanism"] == "window-scan"
        assert cert.conclusion["c_lo"] >= 2500
        assert cert.conclusion["m_count"] <= 1000

    def test_b9_leading_coefficient(self):
        cert = certify_a1(9)
        assert cert.conclusion["mechanism"] == "leading-coefficient"
        assert any("Beukers" in c for c in cert.caveats)

    def test_b15_leading_coefficient(self):
        assert certify_a1(15).conclusion["mechanism"] == "leading-coefficient"

    def test_even_b_no_parity_caveat(self):
        cert = certify_a1(8)
        assert not any("Beukers" in c for c in cert.caveats)

    def test_steps_recorded(self):
        cert = certify_a1(8)
        ops = [s["op"] for s in cert.steps]
        assert ops[0] == "pq-decomposition"
        assert "irreducibility" in ops
        assert any("window" in op for op in ops)

    def test_other_window_cases_close(self):
        for b in (10, 11, 13):
            cert = certify_a1(b)
            assert cert.conclusion["status"] == "closed", b

    @pytest.mark.parametrize("b", [6, 8, 11, 13, 25, 30, 36])
    def test_low_starting_precision_escalates(self, b):
        # at 1-3 bits the enclosures of t and r are far too wide, which
        # must double the precision, not end the run
        for prec in range(1, 17):
            cert = certify_a1(b, prec=prec)
            assert cert.conclusion["status"] == "closed", prec

    @pytest.mark.parametrize("b", [100, 150, 178, 200, 300])
    def test_conclusive_past_the_benchmark_range(self, b):
        # from b = 178 on, pi r^b / 2 lies past the float range; b = 400
        # closes too, in about 2 s, which is more than this suite spends
        assert certify_a1(b).conclusion["status"] == "closed"

    @given(b=st.sampled_from([6, 8, 11, 13, 25]),
           prec=st.sampled_from([*range(1, 40), 48, 64, 96]))
    @settings(max_examples=100, deadline=None)
    def test_escalation_keeps_the_outcome(self, b, prec):
        # every starting precision escalates to the verdict of 128 bits
        cert = certify_a1(b, prec)
        assert cert.conclusive
        assert (cert.conclusion["status"],
                cert.conclusion.get("mechanism")) == _a1_outcome(b)

    def test_modulus_at_the_cap_is_undecided(self, monkeypatch, capsys):
        # 32 bits cannot hold r to 10^-12
        monkeypatch.setattr(exactnum, "MAX_PREC", 32)
        cert = certify_a1(8, 8)
        assert cert.conclusion == {"status": "undecided",
                                   "detail": "max modulus not enclosed",
                                   "reason": "precision cap at n=8, root 0"}
        assert [s["op"] for s in cert.steps][-1] == \
            "leading-coefficient obstruction"
        assert not cert.conclusive
        assert main(["certify", "--b", "8", "--precision", "8"]) == 2
        capsys.readouterr()

    def test_theta_at_the_cap_is_undecided(self, monkeypatch, capsys):
        # theta = [1, 2] is never narrow enough, at any precision
        monkeypatch.setattr(analytic, "window_theta", lambda b, zeta, prec:
                            RealInterval(1, 2, prec=prec))
        cert = certify_a1(8)
        assert cert.conclusion == {"status": "undecided",
                                   "detail": "theta not narrowed",
                                   "reason": "precision cap at n=8, root 0"}
        assert cert.steps[-1]["op"] == "large-c exclusion bound"
        assert not cert.conclusive
        assert main(["certify", "--b", "8"]) == 2
        capsys.readouterr()

    def test_large_c_bracket_undecided(self, monkeypatch):
        monkeypatch.setattr(pipeline, "lmn3_c_max", lambda b, prec:
                            BoundReport("large-c bracket", {"b": b}, None,
                                        "Undecided"))
        cert = certify_a1(8)
        assert cert.conclusion == {"status": "undecided",
                                   "detail": "large-c bracket not certified"}
        assert cert.steps[-1]["verdict"] == "Undecided"
        assert not cert.conclusive

    def test_window_scan_undecided(self, monkeypatch, capsys):
        def stuck(b, c_lo, c_hi, prec):
            return BoundReport("window scan", {"b": b}, None, "Undecided",
                               {"offending_m": 17})
        monkeypatch.setattr(pipeline, "close_window", stuck)
        cert = certify_a1(8)
        assert cert.conclusion == {"status": "undecided",
                                   "detail": "window scan could not certify",
                                   "offending_m": 17}
        assert not cert.conclusive
        assert main(["certify", "--b", "8"]) == 2
        capsys.readouterr()


class TestGoldenBytes:
    """SHA-256 of certificate bytes recorded while the interval core ran in
    mpmath's global interval context (they held through its moves to
    per-interval precision and to correctly rounded stdlib dyadics),
    (b = 25, 42) before factor-degree patterns came from the distinct-degree
    kernel instead of full factorizations, and (the 14/9 fallback and the
    pair sweep) before the cofactors Q_n were cached and the integer gcd
    skipped its round trip through Fraction, (b = 6, 10, 13) before the
    window scan moved from interval products to fixed-point integers,
    (the mod-p deciders) before the y-resultant moved from interpolation to
    its closed form, (b = 30, 36 and the triple sweep) before F_p
    arithmetic moved to the packed kernel and the triple gcds to ZZ, and
    (the a1 certificates that read the top segment root, b = 7, 9 and 25
    aside, and the roots output) when segment roots moved from u-brackets
    bisected in theta to rho-brackets refined by integer Newton."""

    A1 = {
        6: "e05fd9efd1dabfcd94d4a54f60322658f13ec32ffce10e07abde3900f23ca72e",
        7: "3f31528cc8fbd9db9d475cdc1ae10e9359985e2c6dbf0058ed1100d7c5aaada4",
        8: "24b22f44173775226a1bb74817cc4a6e36ecf968fbb975552fcdcd589f279e71",
        9: "a1cb2010d6267beca9dfc6909a95c10c9506bbcea91c7dbbcdbc41feeb77f1fe",
        10: "1b87b629e16d80325d79eb93dc5d819c0737e88108bc651bfaa220035ad71753",
        11: "fdaececa3b363a928cacb532d18256308425224b71d923524be31e0807fcad91",
        13: "0201b055f03c450c91020e841d858234f2d1a9a91b8151745fdcd64150ae76fa",
        25: "af26c964a51b8d7a8b19d8b5dc5542821cb6d46742a73352011c6da6a6f00a93",
        30: "76f318fa3b89973b2abb23809a21dfe299296a35dd114e7269608f561affa789",
        36: "989522ae184ad226d13ad4f2f05dcd5f5982bc5a81f0527d7869c40901c7502d",
        42: "55f3151bd4db0f91c9e8c3a31ee80f9c98051e71b94a2c6cb2b5e6a878058bbb",
    }
    GENERAL_BOUNDS = {
        128: "178a799776e302e00f4390c4d9ef587294d35a99903bfcc79719fd8e8a559f31",
        256: "68e759d5aa32e2f04341feb9b87c880a1392ee76b26269097ffb83311d9d96e0",
    }
    ROOTS_10 = \
        "785d93391a6fc404892c1322b2ffbe27ef2acb1bbb845b5c3fba9126889cd55a"
    # certify_a1 with the irreducibility step forced to "Inconclusive", so
    # that it falls back to the modulus lower bound 14/9; keyed by prec
    A1_FALLBACK_B8 = {
        128: "34211e910ab888912f0eeb1cec1880aa89bce3a28ca95d2e74a33c2cba1b2a22",
        64: "de4ce7b81dc087c2ea0693c281bb80cb2f08132d6f849d4a9f4c715315953ba1",
    }
    # certify_a1(b, prec) at low and escalating starting precisions,
    # concatenated b by b and, within each b, by prec in this order
    A1_LOW_PREC_B = (6, 8, 11, 13, 25, 30, 36, 42)
    A1_LOW_PREC_P = (1, 2, 3, 8, 16, 64, 256)
    A1_LOW_PREC = \
        "4a08885925b9af6a613f97bd9d26874d1917d3f337459e5d04baa698ae0c7693"
    # the 1711 pair-a1 certificates for 2 <= b < c <= 60, concatenated in
    # file-name order
    PAIR_SWEEP_60 = \
        "ec9d530f6c1a07e1f20447d55b352e3c8e5fd4de72168955473e335c712fa79d"
    # the 575 triple certificates for a + b + c <= 30, concatenated in
    # file-name order
    TRIPLE_SWEEP_30 = \
        "00d1e7ff50c0ea9a541f4507dce92779ac0d6662c0f8e9a79ce30fabcea416bc"
    # the mod-p certificates of the benchmark with a >= 2, concatenated in
    # this order
    MOD_P = ((2, 9, 40, 1000003), (3, 8, 40, 1000003), (4, 9, 50, 1000003),
             (5, 12, 60, 1000003), (6, 7, 64, 1000003), (2, 3, 100, 4594399),
             (3, 10, 100, 4594399), (2, 4, 5, 101))
    MOD_P_CERTS = \
        "564ca5451ccb4dcfdd215e8f59f24ff0f4e5d833280a7859385af153187bb8c0"
    # the a = 1 mod-p certificates, recorded while chart z = 1 built P_b and
    # P_c apart from the resultants: two chart-z=1 candidates, a chart-z=0
    # candidate and an empty instance, concatenated in this order
    A1_MOD_P = ((1, 6, 100, 4594399), (1, 2, 4, 101), (1, 3, 5, 101),
                (1, 4, 6, 1000003))
    A1_MOD_P_CERTS = \
        "b66d3a01b1b234b7a33ba3c6c41e2f55dfdcd7c4a5637b43da8fff2ddc45aa4e"
    # `pscert --json pq --n N` then `pscert pq --n N`, for N = 2..60,
    # concatenated; recorded while Q_n was divided out over QQ
    PQ_2_60 = \
        "0950b20dadc255a166d08179e3f7c8772a6ecf523cb574dcf401d5c2a2e15771"
    # repr(_rho_bracket(n, i, bits)) for every segment root of n = 2..60,
    # concatenated by n, then bits in (128, 256), then root index: 542
    # brackets, recorded while `_refine` evaluated S_n and S_n' apart
    RHO_BRACKETS_2_60 = \
        "c534ee037bec0287812d82ed1114d2332bed11d6821dcc75af944c0e65da44cc"

    @staticmethod
    def sha(blob: bytes) -> str:
        return hashlib.sha256(blob).hexdigest()

    def test_a1_certificates(self):
        for b, digest in self.A1.items():
            assert self.sha(certify_a1(b).json_bytes()) == digest, b

    def test_a1_low_precision_certificates(self):
        blob = b"".join(certify_a1(b, prec).json_bytes()
                        for b in self.A1_LOW_PREC_B
                        for prec in self.A1_LOW_PREC_P)
        assert self.sha(blob) == self.A1_LOW_PREC

    def test_general_bounds_certificates(self):
        for prec, digest in self.GENERAL_BOUNDS.items():
            r = RealInterval(Fraction(21, 20), prec=prec)
            cert = certify_general_bounds(2, "other", 7, r, prec=prec)
            assert self.sha(cert.json_bytes()) == digest, prec

    def test_a1_fallback_certificates(self, monkeypatch):
        real = pipeline.certify_irreducible

        def inconclusive(f):
            cert = real(f)
            return IrreducibilityCertificate(cert.polynomial, cert.primes,
                                             cert.degree_patterns,
                                             "Inconclusive")
        monkeypatch.setattr(pipeline, "certify_irreducible", inconclusive)
        for prec, digest in self.A1_FALLBACK_B8.items():
            cert = certify_a1(8, prec=prec)
            assert cert.conclusion["status"] == "closed"
            assert self.sha(cert.json_bytes()) == digest, prec

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_sweep_certificates(self, tmp_path, workers):
        spec = SweepSpec("pair-a1", {"b_max": 60, "c_max": 60}, [],
                         workers=workers, outdir=str(tmp_path))
        assert run_sweep(spec)["instances"] == 1711
        digest = hashlib.sha256()
        for f in sorted(tmp_path.iterdir(), key=lambda f: f.name):
            digest.update(f.read_bytes())
        assert digest.hexdigest() == self.PAIR_SWEEP_60

    def test_triple_sweep_certificates(self, tmp_path):
        spec = SweepSpec("triple", {"sum_max": 30}, [], workers=1,
                         outdir=str(tmp_path))
        assert run_sweep(spec)["instances"] == 575
        digest = hashlib.sha256()
        for f in sorted(tmp_path.iterdir(), key=lambda f: f.name):
            digest.update(f.read_bytes())
        assert digest.hexdigest() == self.TRIPLE_SWEEP_30

    def test_roots_json(self, capsys):
        assert main(["roots", "--n", "10", "--json"]) == 0
        assert self.sha(capsys.readouterr().out.encode()) == self.ROOTS_10

    def test_pq_output(self, capsys):
        out = []
        for n in range(2, 61):
            assert main(["--json", "pq", "--n", str(n)]) == 0
            assert main(["pq", "--n", str(n)]) == 0
            out.append(capsys.readouterr().out)
        assert self.sha("".join(out).encode()) == self.PQ_2_60

    def test_rho_brackets(self):
        blob = "".join(repr(analytic._rho_bracket(n, i, bits))
                       for n in range(2, 61) for bits in (128, 256)
                       for i in range(len(analytic._segment_form(n)[1])))
        assert self.sha(blob.encode()) == self.RHO_BRACKETS_2_60

    def test_mod_p_certificates(self):
        blob = b"".join(certify_mod_p(*inst).json_bytes()
                        for inst in self.MOD_P)
        assert self.sha(blob) == self.MOD_P_CERTS

    def test_a1_mod_p_certificates(self):
        blob = b"".join(certify_mod_p(*inst).json_bytes()
                        for inst in self.A1_MOD_P)
        assert self.sha(blob) == self.A1_MOD_P_CERTS


class TestThreadedDeterminism:
    def test_threads_match_serial_runs(self):
        jobs = [(8, 128), (10, 512)]
        serial = [certify_a1(b, prec=p).json_bytes() for b, p in jobs]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            for _ in range(3):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = [pool.submit(certify_a1, b, prec=p)
                               for b, p in jobs]
                    threaded = [f.result(timeout=300).json_bytes()
                                for f in futures]
                assert threaded == serial
        finally:
            sys.setswitchinterval(old)


class TestOtherCertificates:
    def test_pair(self):
        assert certify_pair(6, 10).conclusion["status"] == "empty"
        assert certify_pair(3, 5).conclusion["status"] == "nonempty-trivial"

    def test_pair_candidate(self, monkeypatch):
        monkeypatch.setattr(pipeline, "pair_zset", lambda b, c: ZSet(
            ExactPoly([1, 1, 1], QQ), False, False, (b, c)))
        cert = certify_pair(6, 10)
        assert cert.conclusion == {"status": "candidate"}
        assert cert.steps[0]["outputs"]["gcd_degree"] == 2

    def test_triple(self):
        assert certify_triple(1, 2, 3).conclusion["status"] == "empty"
        assert certify_triple(1, 3, 5).conclusion["status"] == \
            "nonempty-trivial"

    def test_triple_candidate(self, monkeypatch):
        witness = ExactPoly([1, 1, 1], QQ)
        monkeypatch.setattr(pipeline, "regseq3_rational", lambda a, b, c:
                            RegSeqVerdict((a, b, c), "QQ", "NotRegular",
                                          witness=witness))
        cert = certify_triple(2, 3, 5)
        assert cert.conclusion == {"status": "candidate"}
        assert cert.steps[0]["outputs"]["witness"] == repr(witness)

    def test_mod_p(self):
        assert certify_mod_p(1, 6, 100, 4594399).conclusion["status"] == \
            "candidate"
        assert certify_mod_p(1, 2, 3, 5).conclusion["status"] == "empty"

    def test_general_bounds(self):
        cert = certify_general_bounds(2)
        assert cert.conclusion["status"] == "decided"

    @given(ab=st.sampled_from([(2, 7), (3, 10), (2, 9)]),
           r=st.sampled_from([Fraction(21, 20), Fraction(3, 2),
                              Fraction(1, 3), Fraction(5)]),
           prec=st.sampled_from([1, 2, 3, 4, 5, 8, 16, 64]))
    @settings(max_examples=24, deadline=None)
    def test_general_bounds_escalation_never_raises(self, ab, r, prec):
        # a sample of the 96 cases: each escalates to a verdict, or stays
        # undecided at the cap, without raising
        a, b = ab
        cert = certify_general_bounds(a, "other", b, RealInterval(r, prec=prec),
                                      prec=prec)
        assert cert.conclusion["status"] in ("decided", "undecided")

    def test_general_bounds_undecided(self):
        # r^b for r in [3/2, 10] straddles the threshold 2 b^8
        r = RealInterval(Fraction(3, 2), 10, prec=128)
        cert = certify_general_bounds(2, "other", 10, r)
        assert cert.conclusion == {"status": "undecided"}
        assert cert.steps[2]["verdict"] == "Undecided"
        assert not cert.conclusive


class TestReplay:
    def test_a1_replay(self):
        for b in (7, 8, 9):
            blob = certify_a1(b).json_bytes()
            assert replay_certificate(json.loads(blob))["match"], b

    def test_pair_replay(self):
        blob = certify_pair(6, 10).json_bytes()
        assert replay_certificate(json.loads(blob))["match"]

    def test_mod_p_replay(self):
        blob = certify_mod_p(1, 6, 100, 4594399).json_bytes()
        assert replay_certificate(json.loads(blob))["match"]

    def test_sweep_error_certificate_replay(self):
        _, blob, status = pipeline._run_instance(("mod-p", 1, 6, 10, 25))
        assert status == "undecided"
        d = json.loads(blob)
        assert replay_certificate(d)["match"]
        d["conclusion"]["error"] = "BadPrime('5 is not a prime')"
        assert replay_certificate(d) == {"match": False,
                                         "diffs": ["conclusion"]}

    def test_triple_replay(self):
        for t in ((1, 2, 3), (1, 3, 5), (2, 3, 5)):
            blob = certify_triple(*t).json_bytes()
            assert replay_certificate(json.loads(blob))["match"], t

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("with_r", [False, True])
    def test_general_bounds_replay(self, prec, with_r):
        # replay reads the precision from the first precision_trace entry
        if with_r:
            r = RealInterval(Fraction(21, 20), prec=prec)
            cert = certify_general_bounds(2, "other", 7, r, prec=prec)
        else:
            cert = certify_general_bounds(3, "exactly-one-even", prec=prec)
        d = json.loads(cert.json_bytes())
        assert d["precision_trace"][0]["prec"] == prec
        assert replay_certificate(d) == {"match": True, "diffs": []}
        d["steps"][0]["outputs"]["b_strictly_below"] += 1
        assert replay_certificate(d) == {"match": False, "diffs": ["steps"]}

    def test_edited_inputs_detected(self):
        d = json.loads(certify_a1(8).json_bytes())
        d["inputs"]["a"] = 2
        assert replay_certificate(d) == {"match": False, "diffs": ["inputs"]}
        d = json.loads(certify_pair(6, 10).json_bytes())
        d["inputs"]["a"] = 1
        assert replay_certificate(d) == {"match": False, "diffs": ["inputs"]}

    def test_tampered_certificate_detected(self):
        d = json.loads(certify_a1(8).json_bytes())
        d["conclusion"]["c_lo"] = 1
        assert not replay_certificate(d)["match"]

    @pytest.mark.parametrize("key, edit", [
        ("precision_trace", lambda d: d["precision_trace"][1].update(
            prec=4096)),
        ("schema", lambda d: d.update(schema=7)),
        ("tool", lambda d: d["tool"].update(version="0.0.9")),
    ])
    def test_every_top_level_key_compared(self, key, edit):
        d = json.loads(certify_a1(8).json_bytes())
        edit(d)
        result = replay_certificate(d)
        assert not result["match"] and key in result["diffs"]

    def test_missing_input_is_an_inputs_diff(self):
        d = json.loads(certify_pair(6, 10).json_bytes())
        del d["inputs"]["c"]
        assert replay_certificate(d) == {"match": False, "diffs": ["inputs"]}

    def test_rejected_input_is_an_inputs_diff(self):
        d = json.loads(certify_general_bounds(3, "exactly-one-even")
                       .json_bytes())
        d["inputs"]["parity"] = "odd"
        assert replay_certificate(d) == {"match": False, "diffs": ["inputs"]}

    def test_unknown_kind(self):
        d = json.loads(certify_pair(6, 10).json_bytes())
        d["kind"] = "quadruple"
        assert replay_certificate(d) == {"match": False,
                                         "diffs": ["unknown kind quadruple"]}

    @pytest.mark.parametrize("mode, ranges, edit, key", [
        ("pair-a1", {"b_max": 8},
         lambda d: d["steps"][0].update(verdict="edited"), "steps"),
        ("triple", {"sum_max": 9},
         lambda d: d["conclusion"].update(status="edited"), "conclusion"),
        ("mod-p", {"instances": [{"exps": [1, 6, 10], "p": 25},
                                 {"exps": [1, 2, 4], "p": 101},
                                 {"exps": [2, 4, 5], "p": 101}]},
         lambda d: d["conclusion"].update(status="edited"), "conclusion"),
    ])
    def test_sweep_files_replay(self, tmp_path, mode, ranges, edit, key):
        run_sweep(SweepSpec(mode, ranges, outdir=str(tmp_path)))
        files = sorted(tmp_path.iterdir())
        assert files
        for f in files:
            d = json.loads(f.read_bytes())
            assert replay_certificate(d) == {"match": True, "diffs": []}, f
            edit(d)
            result = replay_certificate(d)
            assert not result["match"] and key in result["diffs"], f


class TestSweep:
    def test_pair_sweep_counts(self, tmp_path):
        spec = SweepSpec("pair-a1", {"b_max": 10, "c_max": 12}, ["6|bc"],
                         workers=1, outdir=str(tmp_path))
        summary = run_sweep(spec)
        assert summary["counts"]["empty"] == summary["instances"]
        assert len(list(tmp_path.iterdir())) == summary["instances"]

    def test_both_odd_sweep_all_trivial(self):
        spec = SweepSpec("pair-a1", {"b_max": 9, "c_max": 11}, ["2!|bc"])
        summary = run_sweep(spec)
        assert summary["counts"]["nonempty-trivial"] == summary["instances"]
        assert summary["counts"]["candidate"] == 0

    def test_parallel_determinism(self, tmp_path):
        blobs = []
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            spec = SweepSpec("pair-a1", {"b_max": 12, "c_max": 14}, [],
                             workers=workers, outdir=str(out))
            run_sweep(spec)
            blobs.append({f.name: f.read_bytes()
                          for f in sorted(out.iterdir())})
        assert blobs[0] == blobs[1]

    def test_serial_import_leaves_multiprocessing_out(self, tmp_path):
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        code = ("import sys, pscert.pipeline as p; "
                "s = p.SweepSpec('pair-a1', {'b_max': 6, 'c_max': 8}, "
                f"['6|bc'], outdir={str(tmp_path)!r}); "
                "pools = {'multiprocessing', 'concurrent.futures'}; "
                "print(p.run_sweep(s)['instances'], "
                "sorted(pools & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "9 []"
        assert len(list(tmp_path.iterdir())) == 9

    def test_parallel_sweep_memory_is_bounded(self, tmp_path):
        # at two workers the pool holds a bounded number of chunks, so the
        # sweep to 120 (7021 instances) peaks near the sweep to 60 (1711);
        # each runs in a fresh process, imports inside the traced window
        code = ("import sys, tracemalloc, pscert.pipeline as p; "
                "m = int(sys.argv[1]); tracemalloc.start(); "
                "p.run_sweep(p.SweepSpec('pair-a1', {'b_max': m, "
                "'c_max': m}, workers=2, outdir=sys.argv[2])); "
                "print(tracemalloc.get_traced_memory()[1])")
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        peaks = {}
        for m in (60, 120):
            out = subprocess.run(
                [sys.executable, "-c", code, str(m), str(tmp_path / str(m))],
                check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src})
            peaks[m] = int(out.stdout)
        assert len(list((tmp_path / "120").iterdir())) == 7021
        assert peaks[120] <= 1.25 * peaks[60], peaks

    def test_files_appear_as_instances_complete(self, tmp_path, monkeypatch):
        # at one worker, instance k starts once the k files before it exist
        run, seen = pipeline._run_instance, []

        def recording(inst):
            seen.append(len(list(tmp_path.iterdir())))
            return run(inst)

        monkeypatch.setattr(pipeline, "_run_instance", recording)
        spec = SweepSpec("pair-a1", {"b_max": 8}, outdir=str(tmp_path))
        n = run_sweep(spec)["instances"]
        assert n > 0 and seen == list(range(n))

    def test_interrupted_sweep_leaves_a_prefix(self, tmp_path, monkeypatch):
        run, names = pipeline._run_instance, []

        def interrupted(inst):
            if len(names) == 5:
                raise InterruptedError
            result = run(inst)
            names.append(result[0])
            return result

        monkeypatch.setattr(pipeline, "_run_instance", interrupted)
        with pytest.raises(InterruptedError):
            run_sweep(SweepSpec("triple", {"sum_max": 12},
                                outdir=str(tmp_path)))
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(names)
        monkeypatch.undo()  # replay runs through the real runner
        for f in tmp_path.iterdir():
            assert replay_certificate(json.loads(f.read_bytes()))["match"]

    def test_outdir_that_is_a_file_fails_first(self, tmp_path, monkeypatch):
        run, calls = pipeline._run_instance, []
        monkeypatch.setattr(pipeline, "_run_instance",
                            lambda inst: calls.append(inst) or run(inst))
        target = tmp_path / "certs"
        target.write_bytes(b"")
        with pytest.raises(FileExistsError):
            run_sweep(SweepSpec("pair-a1", {"b_max": 8},
                                outdir=str(target)))
        assert calls == []

    def test_mod_p_sweep(self):
        spec = SweepSpec("mod-p", {"instances": [
            {"exps": [1, 6, 100], "p": 4594399},
            {"exps": [1, 2, 3], "p": 5}]})
        summary = run_sweep(spec)
        assert summary["counts"]["candidate"] == 1
        assert summary["counts"]["empty"] == 1

    def test_errors_do_not_abort(self):
        spec = SweepSpec("mod-p", {"instances": [
            {"exps": [1, 2, 3], "p": 2},   # unsupported prime
            {"exps": [1, 2, 3], "p": 5}]})
        summary = run_sweep(spec)
        assert summary["counts"]["undecided"] == 1
        assert summary["counts"]["empty"] == 1

    def test_composite_modulus_is_undecided(self, tmp_path):
        spec = SweepSpec("mod-p", {"instances": [
            {"exps": [1, 6, 10], "p": 25}]}, outdir=str(tmp_path))
        assert run_sweep(spec)["counts"]["undecided"] == 1
        cert = json.loads((tmp_path / "mod-p-1-6-10-25.json").read_bytes())
        assert cert["conclusion"]["status"] == "undecided"
        assert "BadPrime" in cert["conclusion"]["error"]

    @pytest.mark.parametrize("mode, ranges, filters", [
        ("pair-a1", {"b_max": 6, "c_max": 8}, ["6 | bc"]),
        ("pair-a1", {"bmax": 6}, []),
        ("triple", {"sum_max": 9}, ["6|bc"]),
        ("triple", {"b_max": 9}, []),
        ("mod-p", {"instance": []}, []),
        ("pairs", {}, []),
        # instance values that are not ints; a bool is not an int
        ("pair-a1", {"b_max": True}, []),
        ("pair-a1", {"b_max": 6, "c_max": 8.0}, []),
        ("pair-a1", {"b_max": "6"}, []),
        ("triple", {"sum_max": None}, []),
        ("triple", {"triples": [[1, 2, "3"]]}, []),
        ("triple", {"triples": [[1, 2, 3], [1, 2]]}, []),
        ("triple", {"triples": [(1, 2, True)]}, []),
        ("triple", {"triples": "123"}, []),
        ("mod-p", {"instances": [{"exps": [True, 6, 10], "p": 101}]}, []),
        ("mod-p", {"instances": [{"exps": [1, 6, "a/b"], "p": 101}]}, []),
        ("mod-p", {"instances": [{"exps": [1, 6], "p": 101}]}, []),
        ("mod-p", {"instances": [{"exps": [1, 6, 10], "p": 101.0}]}, []),
        ("mod-p", {"instances": [{"exps": [1, 6, 10], "p": "101"}]}, []),
        ("mod-p", {"instances": [{"exps": [1, 6, 10]}]}, []),
        ("mod-p", {"instances": [{"exps": [1, 6, 10], "p": 101, "q": 1}]},
         []),
        ("mod-p", {"instances": [[1, 6, 10, 101]]}, []),
    ])
    def test_unknown_spec_entries_raise(self, mode, ranges, filters):
        with pytest.raises(ValueError):
            SweepSpec(mode, ranges, filters)

    def test_from_dict_rejects_unknown_keys(self):
        d = {"mode": "pair-a1", "ranges": {"b_max": 6, "c_max": 8},
             "filters": ["6|bc"]}
        spec = SweepSpec.from_dict(d)
        assert run_sweep(spec)["instances"] == 9
        with pytest.raises(ValueError, match="worker"):
            SweepSpec.from_dict(dict(d, worker=2))

    @pytest.mark.parametrize("workers", [0, -1, True, False, "2", 2.0, None])
    def test_workers_must_be_a_positive_int(self, workers):
        with pytest.raises(ValueError, match="workers"):
            SweepSpec("pair-a1", {"b_max": 6}, [], workers=workers)


# one invocation per verb, run in a directory that holds spec.json
VERBS = {
    "pq": ["--n", "6"],
    "pair": ["--b", "6", "--c", "10"],
    "triple": ["--a", "2", "--b", "3", "--c", "4"],
    "regseq": ["--exps", "2,3"],
    "criteria": ["--set", "1,2,4,6"],
    "normal4": ["--a", "2", "--b", "4"],
    "member": ["--target", "p5", "--gens", "p1,p2", "--nvars", "4"],
    "roots": ["--n", "8"],
    "certify": ["--b", "7"],
    "bounds": ["--a", "2"],
    "sweep": ["--spec", "spec.json"],
}
READS_PRECISION = {"roots", "certify", "bounds"}


class TestCli:
    @pytest.fixture
    def spec_dir(self, tmp_path, monkeypatch):
        (tmp_path / "spec.json").write_text(json.dumps(
            {"mode": "pair-a1", "ranges": {"b_max": 6, "c_max": 8}}))
        monkeypatch.chdir(tmp_path)

    def test_help_lists_every_verb(self, capsys):
        assert main(["--help"]) == 0
        usage = capsys.readouterr().out
        listed = usage[usage.index("{") + 1:usage.index("}")].split(",")
        assert sorted(listed) == sorted(VERBS)

    @pytest.mark.parametrize("json_first", [True, False])
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_verb_json_smoke(self, spec_dir, capsys, verb, json_first):
        argv = [verb] + VERBS[verb]
        argv = ["--json"] + argv if json_first else argv + ["--json"]
        assert main(argv) == 0
        assert isinstance(json.loads(capsys.readouterr().out), dict)

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_precision_only_where_read(self, spec_dir, capsys, verb):
        argv = [verb] + VERBS[verb]
        code = main(argv + ["--precision", "192"])
        assert code == (0 if verb in READS_PRECISION else 1)
        assert main(["--precision", "192"] + argv) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["modp", "--exps", "1,6,100", "--p", "4594399"],
        ["certify", "--a", "1", "--b", "8"],
        ["pq", "--n", "6", "--precision", "256"],
        ["sweep", "--spec", "s", "--threads", "2"],
        ["roots", "--n", "8", "--precision", "0"],  # doubling 0 never ends
        ["certify", "--b", "8", "--precision", "-5"],
    ])
    def test_rejected_forms_exit_one(self, capsys, argv):
        assert main(argv) == 1
        capsys.readouterr()

    def test_regseq_prime_field_three_exponents(self, capsys):
        assert main(["regseq", "--exps", "1,6,100", "--char", "4594399"]) == 0
        assert capsys.readouterr().out == (
            "NotRegular over GF(4594399) (witness: ('chart z=1', "
            "ExactPoly([1, 3, 2297207, 10, 2297207, 3, 1], "
            "ring=('GF', 4594399))))\n")

    @pytest.mark.parametrize("char", ["318665857834031151167461",
                                      "3317044064679887385961981"])
    def test_regseq_refuses_strong_pseudoprimes(self, capsys, char):
        # psi_12 passes the Miller-Rabin bases up to 37, psi_13 every base
        # up to 41; neither may be taken as a field characteristic
        assert main(["regseq", "--exps", "2,3,5", "--char", char]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "BadPrime" in captured.err

    def test_json_error_diagnostic(self, capsys):
        assert main(["--json", "pair", "--b", "5", "--c", "3"]) == 1
        diag = json.loads(capsys.readouterr().out)
        assert diag["error"] == "ValueError" and diag["message"]

    def test_bounds_undecided_exit_two(self, capsys):
        assert main(["bounds", "--a", "2", "--b", "7", "--r", "21/20",
                     "--precision", "8", "--json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["conclusion"] == {"status": "undecided"}

    def test_poly_str(self):
        from pscert.unipoly import ExactPoly, ZZ
        assert poly_str(ExactPoly([2, 2, 2], ZZ)) == "2x^2 + 2x + 2"
        assert poly_str(ExactPoly([0, -1, 1], ZZ)) == "x^2 - x"
        assert poly_str(ExactPoly([], ZZ)) == "0"

    def test_max_precision_flag_is_gone(self, capsys):
        # the cap is the constant exactnum.MAX_PREC; no option sets it
        assert main(["--max-precision", "128", "roots", "--n", "8"]) == 1
        assert main(["roots", "--n", "8", "--max-precision", "128"]) == 1
        capsys.readouterr()
        assert main(["--help"]) == 0
        assert "--max-precision" not in capsys.readouterr().out

    def test_pq_exit_zero(self, capsys):
        assert main(["pq", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "2x^2 + 2x + 2" in out

    def test_regseq_conclusive(self, capsys):
        assert main(["regseq", "--exps", "1,3,5"]) == 0
        assert "NotRegular" in capsys.readouterr().out

    def test_regseq_small_field(self, capsys):
        assert main(["regseq", "--exps", "3,4,5", "--char", "7"]) == 0
        assert "Regular over GF(7)" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["--json", "pair", "--b", "6", "--c", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["empty"] is True

    def test_global_flag_after_subcommand(self, capsys):
        assert main(["pair", "--b", "6", "--c", "10", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["empty"] is True

    def test_certify_past_the_float_range(self, capsys):
        # pscert certify --b 178 once exited 1 with an OverflowError
        assert main(["certify", "--b", "178", "--json"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["conclusion"]["status"] == "closed"
        (small,) = [s for s in cert["steps"]
                    if s["op"] == "small-c exclusion threshold"]
        assert small["outputs"]["value"]["approx"] == [None, None]

    def test_certify_emit(self, tmp_path, capsys):
        out = tmp_path / "cert8.json"
        assert main(["certify", "--b", "8", "--emit", str(out)]) == 0
        capsys.readouterr()
        cert = json.loads(out.read_bytes())
        assert cert["schema"] == 1
        assert cert["conclusion"]["status"] == "closed"
        assert replay_certificate(cert)["match"]

    def test_usage_error_exit_one(self, capsys):
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_internal_error_exit_one(self, capsys):
        assert main(["pair", "--b", "5", "--c", "3"]) == 1
        capsys.readouterr()

    def test_member_command(self, capsys):
        assert main(["member", "--target", "p5", "--gens", "p1,p2",
                     "--nvars", "4"]) == 0
        assert "True" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["p2^0", "p2^-1", "p1*p2^0"])
    def test_member_rejects_an_exponent_below_one(self, capsys, target):
        # p2^0 once read as p2
        assert main(["member", "--nvars", "2", "--target", target,
                     "--gens", "p1"]) == 1
        assert "exponent must be at least 1" in capsys.readouterr().err

    def test_member_identity_any_generator_order(self, capsys):
        assert main(["member", "--target", "zerodivisor-identity",
                     "--gens", "p8,p2", "--nvars", "4"]) == 0
        assert "member: True" in capsys.readouterr().out

    def test_member_identity_needs_four_variables(self, capsys):
        for gens in ("p2,p8", "p8,p2"):
            assert main(["member", "--target", "zerodivisor-identity",
                         "--gens", gens, "--nvars", "5"]) == 1
            capsys.readouterr()

    def test_bounds_command(self, capsys):
        assert main(["bounds", "--a", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conclusion"]["status"] == "decided"

    def test_sweep_command(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"mode": "pair-a1", "ranges": {"b_max": 6, "c_max": 8},
             "filters": ["6|bc"]}))
        assert main(["sweep", "--spec", str(spec_file)]) == 0
        capsys.readouterr()

    def test_roots_command(self, capsys):
        assert main(["roots", "--n", "8", "--digits", "9"]) == 0
        assert "2.513228157" in capsys.readouterr().out

    @pytest.mark.parametrize("digits", ["-3", "-1"])
    def test_roots_rejects_negative_digits(self, capsys, digits):
        # a width of 10^3 once reached the library as a TypeError
        assert main(["roots", "--n", "8", "--digits", digits]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "digits must be at least 0" in err

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_roots_of_a_constant_cofactor(self, capsys, n):
        assert main(["roots", "--n", str(n)]) == 0
        assert capsys.readouterr().out == f"Q_{n}: 0 segment root(s)\n"
