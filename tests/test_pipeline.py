"""Certificates, replay, sweeps, and the command-line interface."""

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from pscert import exactnum
from pscert.cli import main, poly_str
from pscert.exactnum import RealInterval
from pscert.pipeline import (SweepSpec, certify_a1, certify_general_bounds,
                             certify_mod_p, certify_pair, certify_triple,
                             dyadic_hex, frac_str, interval_from_json,
                             interval_json, parse_dyadic_hex, parse_frac,
                             replay_certificate, run_sweep)


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


class TestGoldenBytes:
    """SHA-256 of certificate bytes recorded before the interval core moved
    from mpmath's global interval context to per-interval precision, and
    (b = 25, 42) before factor-degree patterns came from the distinct-degree
    kernel instead of full factorizations."""

    A1 = {
        7: "3f31528cc8fbd9db9d475cdc1ae10e9359985e2c6dbf0058ed1100d7c5aaada4",
        8: "997acca194396fde1c61b3b21b5333116ba4f1f40506a05b525314beba72ee47",
        9: "a1cb2010d6267beca9dfc6909a95c10c9506bbcea91c7dbbcdbc41feeb77f1fe",
        11: "036c00bda1d34de299f30df77edfa4c2d9d07b2af484ed44408acf82d18221eb",
        25: "af26c964a51b8d7a8b19d8b5dc5542821cb6d46742a73352011c6da6a6f00a93",
        42: "eff2b1be4ca684efd122718bd9d9603e470d17e293722a485161a36895a95ca9",
    }
    GENERAL_BOUNDS = {
        128: "178a799776e302e00f4390c4d9ef587294d35a99903bfcc79719fd8e8a559f31",
        256: "68e759d5aa32e2f04341feb9b87c880a1392ee76b26269097ffb83311d9d96e0",
    }
    ROOTS_10 = \
        "5ae67fb55fea820a3217a8c8adf54c5b664cb933ea685483cabc6d32518f87a4"

    @staticmethod
    def sha(blob: bytes) -> str:
        return hashlib.sha256(blob).hexdigest()

    def test_a1_certificates(self):
        for b, digest in self.A1.items():
            assert self.sha(certify_a1(b).json_bytes()) == digest, b

    def test_general_bounds_certificates(self):
        for prec, digest in self.GENERAL_BOUNDS.items():
            r = RealInterval(Fraction(21, 20), prec=prec)
            cert = certify_general_bounds(2, "other", 7, r, prec=prec)
            assert self.sha(cert.json_bytes()) == digest, prec

    def test_roots_json(self, capsys):
        assert main(["roots", "--n", "10", "--json"]) == 0
        assert self.sha(capsys.readouterr().out.encode()) == self.ROOTS_10


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

    def test_triple(self):
        assert certify_triple(1, 2, 3).conclusion["status"] == "empty"
        assert certify_triple(1, 3, 5).conclusion["status"] == \
            "nonempty-trivial"

    def test_mod_p(self):
        assert certify_mod_p(1, 6, 100, 4594399).conclusion["status"] == \
            "candidate"
        assert certify_mod_p(1, 2, 3, 5).conclusion["status"] == "empty"

    def test_general_bounds(self):
        cert = certify_general_bounds(2)
        assert cert.conclusion["status"] == "decided"


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

    def test_tampered_certificate_detected(self):
        d = json.loads(certify_a1(8).json_bytes())
        d["conclusion"]["c_lo"] = 1
        assert not replay_certificate(d)["match"]


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


class TestCli:
    def test_poly_str(self):
        from pscert.unipoly import ExactPoly, ZZ
        assert poly_str(ExactPoly([2, 2, 2], ZZ)) == "2x^2 + 2x + 2"
        assert poly_str(ExactPoly([0, -1, 1], ZZ)) == "x^2 - x"
        assert poly_str(ExactPoly([], ZZ)) == "0"

    def test_max_precision_is_restored(self, capsys):
        before = exactnum.MAX_PREC
        assert main(["--max-precision", "128", "roots", "--n", "8"]) == 0
        assert exactnum.MAX_PREC == before

    def test_pq_exit_zero(self, capsys):
        assert main(["pq", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "2x^2 + 2x + 2" in out

    def test_regseq_conclusive(self, capsys):
        assert main(["regseq", "--exps", "1,3,5"]) == 0
        assert "NotRegular" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["--json", "pair", "--b", "6", "--c", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["empty"] is True

    def test_global_flag_after_subcommand(self, capsys):
        assert main(["pair", "--b", "6", "--c", "10", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["empty"] is True

    def test_certify_emit(self, tmp_path, capsys):
        out = tmp_path / "cert8.json"
        assert main(["certify", "--a", "1", "--b", "8",
                     "--emit", str(out)]) == 0
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
