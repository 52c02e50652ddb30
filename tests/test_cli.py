import collections
import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stringy import cli, engine, exact_poly, render, resolution
from stringy.cli import main
from stringy.exact_poly import BivariatePolynomial, StringyRational
from stringy.hodge import HodgeDelignePolynomial

from conftest import FIXTURES
from oracles import DEEP_PROBES, SHARED_PROBES, deep_cancellation_config, shared_discrepancy_config

E6 = str(FIXTURES / "e6_fixture.json")
NODE = str(FIXTURES / "node_a1.json")
SMOOTH = str(FIXTURES / "smooth_p3.json")
AFFINE = str(FIXTURES / "affine_line.json")
D4 = str(FIXTURES / "d4_terminal.json")
_NINES = 10 ** 4300 - 1  # made without str -> int, so any digit limit collects it


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def parse_json_documents(out):
    """Batch mode concatenates one pretty-printed document per config."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(out):
        obj, end = decoder.raw_decode(out, pos)
        docs.append(obj)
        pos = end
        while pos < len(out) and out[pos] in "\r\n":
            pos += 1
    return docs


# a prime: values modulo it stand in for the rational functions at a point
_MERSENNE_127 = 2 ** 127 - 1


def _at(triples, u, v):
    """A polynomial given as [i, j, c] triples at (u, v), modulo 2^127 - 1."""
    p = _MERSENNE_127
    return sum(exact_poly.decode_json_int(c) * pow(u, i, p) * pow(v, j, p) for i, j, c in triples) % p


def _closed_formula_at(config, u, v):
    """E_st of a closed-convention config at (u, v), modulo 2^127 - 1, by the
    closed-strata formula sum_I H(D_I) prod_{i in I} (uv - (uv)^(a_i + 1)) /
    ((uv)^(a_i + 1) - 1), independently of the library's arithmetic."""
    p = _MERSENNE_127
    t = u * v % p
    discrepancy = {comp["label"]: comp["discrepancy"] for comp in config["components"]}
    total = _at(config["ambient"], u, v)
    for key, triples in config["strata"].items():
        term = _at(triples, u, v)
        for label in key.split(","):
            power = pow(t, discrepancy[label] + 1, p)
            term = term * (t - power) * pow(power - 1, -1, p) % p
        total += term
    return total % p


def assert_canonical_json(out):
    # The report must round-trip byte-identically through a sorted re-dump.
    for doc in parse_json_documents(out):
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" in out
    redumped = "".join(
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
        for doc in parse_json_documents(out)
    )
    assert redumped == out


class TestComputeText:
    def test_e6(self, run):
        code, out, _ = run("compute", E6, "--horizon", "12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "E_st = (-1 - 7uv - 9(uv)^2 + (uv)^3 - (uv)^4 + (uv)^6"
            " - (uv)^7 + 9(uv)^8 + 7(uv)^9 + (uv)^10) / ((uv)^7 - 1)"
        )
        assert lines[1] == (
            "series = 1 + 7uv + 9(uv)^2 - (uv)^3 + (uv)^4 - (uv)^6 + ..."
        )

    def test_smooth_is_polynomial(self, run):
        code, out, _ = run("compute", SMOOTH)
        assert code == 0
        assert "E_st = 1 + uv + (uv)^2 + (uv)^3 (polynomial)" in out

    def test_polynomial_below_horizon_still_marked_truncated(self, run):
        # A degree-3 answer cut off at horizon 2 must show the ellipsis.
        code, out, _ = run("compute", SMOOTH, "--horizon", "2")
        assert code == 0
        assert "series = 1 + uv + ..." in out

    def test_node_local(self, run):
        code, out, _ = run("compute", NODE, "--local")
        assert code == 0
        lines = out.splitlines()
        assert "E_st = 1 + 2uv + 2(uv)^2 + (uv)^3 (polynomial)" in lines
        assert "local contribution = 1 + uv" in lines
        assert "singular locus = 1" in lines

    def test_latex_format(self, run):
        code, out, _ = run("compute", E6, "--horizon", "12", "--format", "latex")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "E_st = \\frac{-1 - 7u v - 9(u v)^{2} + (u v)^{3} - (u v)^{4}"
            " + (u v)^{6} - (u v)^{7} + 9(u v)^{8} + 7(u v)^{9}"
            " + (u v)^{10}}{\\left((u v)^{7} - 1\\right)}"
        )
        assert lines[1] == (
            "series = 1 + 7u v + 9(u v)^{2} - (u v)^{3} + (u v)^{4}"
            " - (u v)^{6} + \\cdots"
        )


class TestComputeJson:
    def test_report_shape_and_byte_identity(self, run):
        code, out, _ = run("compute", NODE, "--local", "--format", "json")
        assert code == 0
        assert_canonical_json(out)
        doc = json.loads(out)
        assert sorted(doc) == [
            "agree", "command", "dimension", "e_st", "exit_code",
            "local_contribution", "path", "polynomial", "series", "sha256",
            "singular_locus", "timing_us", "warnings",
        ]
        assert doc["command"] == "compute"
        assert doc["exit_code"] == 0
        assert doc["agree"] is True
        assert doc["polynomial"] is True
        assert doc["e_st"] == {
            "den": [],
            "num": [[0, 0, 1], [1, 1, 2], [2, 2, 2], [3, 3, 1]],
        }
        assert doc["local_contribution"] == {
            "den": [],
            "num": [[0, 0, 1], [1, 1, 1]],
        }
        assert doc["singular_locus"] == [[0, 0, 1]]
        assert doc["series"] == {
            "coefficients": [[0, 0, 1], [1, 1, 2], [2, 2, 2], [3, 3, 1]],
            "horizon": 6,
            "truncated": False,
        }

    def test_sha256_is_file_digest(self, run):
        _, out, _ = run("compute", NODE, "--format", "json")
        doc = json.loads(out)
        with open(NODE, "rb") as fh:
            assert doc["sha256"] == hashlib.sha256(fh.read()).hexdigest()

    def test_timing_is_nonnegative_int(self, run):
        _, out, _ = run("compute", NODE, "--format", "json")
        doc = json.loads(out)
        assert isinstance(doc["timing_us"], int) and doc["timing_us"] >= 0

    def test_truncated_flag_below_degree(self, run):
        _, out, _ = run("compute", SMOOTH, "--horizon", "2", "--format", "json")
        assert json.loads(out)["series"]["truncated"] is True

    def test_e6_fraction_and_truncated(self, run):
        code, out, _ = run("compute", E6, "--horizon", "12", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["e_st"]["den"] == [7]
        assert doc["polynomial"] is False
        assert doc["series"]["truncated"] is True
        assert doc["series"]["coefficients"][0] == [0, 0, 1]

    def test_big_coefficients_become_decimal_strings(self, run, tmp_path):
        big = 2 ** 80
        cfg = {
            "dimension": 1,
            "ambient": [[0, 0, 1], [1, 1, big]],
            "components": [],
            "strata_convention": "closed",
            "strata": {},
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run("compute", str(path), "--format", "json")
        assert code == 0
        assert_canonical_json(out)
        doc = json.loads(out)
        assert doc["e_st"]["num"] == [[0, 0, 1], [1, 1, str(big)]]
        assert str(big) in out

    def test_coefficients_past_the_digit_limit(self, run, tmp_path):
        # 4300-digit literals load (the JSON parser's limit is just above),
        # and the products computed from them run past Python's int/str limit
        c = "9" * 4300
        labels = [f"E{k}" for k in range(1, 5)]
        components = json.dumps([{"label": lbl, "discrepancy": k} for k, lbl in enumerate(labels, 1)])
        strata = ", ".join(f'"{lbl}": [[0, 0, {c}]]' for lbl in labels)
        (tmp_path / "big.json").write_text(
            f'{{"dimension": 1, "ambient": [[0, 0, {c}], [1, 1, {c}]], "components": {components}, '
            f'"strata_convention": "closed", "strata": {{{strata}}}}}')
        shutil.copy(NODE, tmp_path)
        code, out, _ = run("compute", str(tmp_path), "--format", "json", "--horizon", "20")
        assert code == 0
        big, node = parse_json_documents(out)
        assert big["exit_code"] == node["exit_code"] == 0
        assert max(len(str(term[2])) for term in big["series"]["coefficients"]) > 4300
        assert node["e_st"] == {"num": [[0, 0, 1], [1, 1, 2], [2, 2, 2], [3, 3, 1]], "den": []}
        for fmt in ("text", "latex"):
            code, out, _ = run("compute", str(tmp_path), "--format", fmt, "--horizon", "20")
            assert code == 0
            assert max(len(digits) for digits in re.findall(r"\d+", out)) > 4300
            assert f"== {tmp_path / 'node_a1.json'} ==\n" in out


class TestPreparedConfig:
    # One config object per file carries its validation reports, both strata
    # conventions and both E-functions; every command step reuses them.

    def test_local_evaluates_each_formula_once(self, run, monkeypatch):
        merges = []
        real_merge = engine._merge

        def counting_merge(terms, width, offsets):
            merges.append(len(terms))
            return real_merge(terms, width, offsets)

        monkeypatch.setattr(engine, "_merge", counting_merge)
        code, out, _ = run("compute", NODE, "--local")
        assert code == 0
        assert "local contribution = 1 + uv" in out
        assert len(merges) == 2  # E_open and E_closed

    @pytest.mark.parametrize("argv", [("compute", E6), ("compute", NODE, "--local"), ("compute", D4),
                                      ("compute", "node_open.json", "--local")])
    def test_compute_converts_nothing(self, run, monkeypatch, tmp_path, argv):
        # the tables of the other convention are packed sums of the stored
        # ones, and both formulas and the agreement check share one layout,
        # so no table is converted and no value is laid out again; the
        # local contribution takes the union from the stored tables, in
        # either convention
        if "node_open.json" in argv:
            opened = resolution.convert_strata(resolution.load_config(NODE), "open")
            (tmp_path / "node_open.json").write_text(json.dumps(resolution.config_to_dict(opened)))
            argv = tuple(str(tmp_path / arg) if arg == "node_open.json" else arg for arg in argv)
        calls = []
        for module, name in ((resolution, "_converted"), (exact_poly, "_relayout")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        code, _, _ = run(*argv)
        assert code == 0
        assert calls == []

    @pytest.mark.parametrize("argv", [("compute", E6), ("compute", NODE, "--local")])
    def test_each_value_is_cancelled_once(self, run, monkeypatch, argv):
        # agreement is decided on the uncancelled sums, so only E_open's sum is
        # cancelled; E_closed and the local contribution reuse its value
        cancelled = []
        real_reduce = exact_poly._reduce

        def counting_reduce(num, den):
            if den:
                cancelled.append(den.factors)
            return real_reduce(num, den)

        monkeypatch.setattr(exact_poly, "_reduce", counting_reduce)
        code, _, _ = run(*argv)
        assert code == 0
        assert len(cancelled) == 1

    @pytest.mark.parametrize("path", [NODE, SMOOTH, D4], ids=["node", "smooth", "d4"])
    def test_decompose_cancels_nothing(self, run, monkeypatch, path):
        # b_{i,j} is read off the closed sum as it stands: its rows 0 to
        # d // 2, read back once, expanded over the uncancelled denominator
        cancelled, read = [], []
        real_reduce, real_unpack = exact_poly._reduce, exact_poly._unpack

        def counting_reduce(num, den):
            if den:
                cancelled.append(den.factors)
            return real_reduce(num, den)

        def counting_unpack(packed):
            read.append(packed.degree + 1)
            return real_unpack(packed)

        monkeypatch.setattr(exact_poly, "_reduce", counting_reduce)
        for module in (engine, exact_poly):
            monkeypatch.setattr(module, "_unpack", counting_unpack)
        code, out, _ = run("decompose", path, "--pairs", "0,0;1,0;1,1", "--format", "json")
        assert code == 0
        d = json.loads(out)["dimension"]
        assert cancelled == []
        assert len(read) == 1 and read[0] <= d // 2 + 1

    def test_compute_unpacks_once(self, run, monkeypatch):
        # the numerator stays packed from the formula sums through the
        # agreement check and the cancellation; only E_st is unpacked
        unpacked = []
        real_unpack = exact_poly._unpack

        def counting_unpack(packed):
            unpacked.append(packed.width)
            return real_unpack(packed)

        monkeypatch.setattr(exact_poly, "_unpack", counting_unpack)
        code, _, _ = run("compute", E6)
        assert code == 0
        assert len(unpacked) == 1

    def test_disagreeing_formulas_are_reported(self, run, monkeypatch):
        # a broken conversion: the packed walk to the open tables adds every
        # part, so the open complement gains the closed stratum twice and
        # E_open is wrong
        real_walk = engine._subset_walk

        def perturbed(strata, target):
            return {key: [(1, value) for _, value in parts]
                    for key, parts in real_walk(strata, target).items()}

        truth = engine.compute(resolution.load_config(E6)).e_open
        monkeypatch.setattr(engine, "_subset_walk", perturbed)
        code, out, _ = run("compute", E6)
        assert code == 1
        assert out.splitlines()[-1] == "internal error: the open- and closed-strata formulas disagree"
        result = engine.compute(resolution.load_config(E6))
        assert not result.agree
        assert result.e_closed == truth
        assert result.e_closed == StringyRational(result.e_closed.numerator, result.e_closed.denominator)

    def test_decompose_walks_serre_once(self, run, monkeypatch):
        # one Serre decision per table and run, through strict validation
        decided = []
        real_findings = resolution.serre_findings

        def counting_findings(p, d):
            decided.append(d)
            return real_findings(p, d)

        monkeypatch.setattr(resolution, "serre_findings", counting_findings)
        code, _, _ = run("decompose", NODE, "--pairs", "1,1", "--format", "json")
        assert code == 0
        assert decided == [3, 2]  # the ambient, then the closed stratum E1

    def test_compute_lays_the_expansion_out_once(self, run, monkeypatch):
        # the series-cost check and the series read one layout of E_st
        calls = []
        real_expansion = exact_poly._expansion
        for module in (engine, exact_poly):
            monkeypatch.setattr(module, "_expansion", lambda *args: calls.append(args[-1]) or real_expansion(*args))
        assert not engine.compute(resolution.load_config(E6)).e_open.is_polynomial
        for fmt in ("text", "json"):
            calls.clear()
            assert run("compute", E6, "--format", fmt)[0] == 0
            assert calls == [6]

    def test_json_mode_renders_no_text(self, run, monkeypatch):
        rendered = []
        for name in ("polynomial_text", "polynomial_latex", "rational_text", "rational_latex",
                     "series_text", "series_latex"):
            def counting_render(*args, _real=getattr(cli, name), _name=name):
                rendered.append(_name)
                return _real(*args)

            monkeypatch.setattr(cli, name, counting_render)
        for argv in (["compute", E6, "--local"], ["compute", NODE, "--local"],
                     ["check", SMOOTH], ["check", E6, "--duality", "--symmetry", "--nonneg"]):
            code, out, _ = run(*argv, "--format", "json")
            assert json.loads(out)["exit_code"] == code
        assert rendered == []
        run("check", SMOOTH, "--polynomial")
        run("compute", NODE, "--local", "--format", "latex")
        assert rendered == ["polynomial_text", "rational_latex", "series_latex",
                            "rational_latex", "polynomial_latex"]


class TestCheck:
    def test_duality_and_nonneg_pass(self, run):
        code, out, _ = run("check", E6, "--duality", "--nonneg")
        assert code == 0
        lines = out.splitlines()
        assert "duality: PASS" in lines
        assert "nonneg: PASS (i+j <= 3)" in lines
        assert "note: b_{3,3} = -1 beyond range" in lines

    def test_duality_failure(self, run):
        code, out, _ = run("check", AFFINE, "--duality")
        assert code == 1
        assert "duality: FAIL at (0,0) (coefficient 0 at (0,0) vs 1*1 from (1,1))" in out

    def test_not_polynomial(self, run):
        code, out, _ = run("check", E6, "--polynomial")
        assert code == 1
        assert (
            "polynomial: NOT POLYNOMIAL at (4,4)"
            " (series coefficient 1 at (4,4) exceeds degree (3,3))"
        ) in out

    def test_polynomial_verdict_prints_value(self, run):
        code, out, _ = run("check", SMOOTH, "--polynomial")
        assert code == 0
        assert "polynomial: POLYNOMIAL = 1 + uv + (uv)^2 + (uv)^3" in out

    def test_json_verdicts(self, run):
        code, out, _ = run("check", E6, "--duality", "--nonneg", "--format", "json")
        assert code == 0
        assert_canonical_json(out)
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["checks"]["duality"] == {"passed": True, "witness": None}
        assert doc["checks"]["nonneg"] == {
            "notes": [[3, 3, -1]],
            "passed": True,
            "violations": [],
        }

    def test_json_failure_witness(self, run):
        code, out, _ = run("check", AFFINE, "--duality", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["exit_code"] == 1
        assert doc["checks"]["duality"] == {"passed": False, "witness": [0, 0]}

    def test_symmetry_pass(self, run):
        code, out, _ = run("check", E6, "--symmetry")
        assert code == 0
        assert out == "symmetry: PASS\n"
        code, out, _ = run("check", E6, "--symmetry", "--format", "json")
        assert code == 0
        assert_canonical_json(out)
        doc = json.loads(out)
        assert doc["checks"] == {"symmetry": {"passed": True, "witness": None}}

    def test_symmetry_failure(self, run, monkeypatch):
        # Lenient validation rejects every u<->v asymmetric table, so no
        # config file reaches a failing verdict: skew the computed E_st instead.
        real_compute = cli.compute

        def skewed_compute(cfg, horizon):
            result = real_compute(cfg, horizon)
            skew = StringyRational(BivariatePolynomial({(2, 1): 5}))
            return engine.StringyResult(result.e_open + skew, result.e_closed, result.agree,
                                        result.horizon, result.dimension)

        monkeypatch.setattr(cli, "compute", skewed_compute)
        code, out, _ = run("check", SMOOTH, "--symmetry")
        assert code == 1
        assert out == "symmetry: FAIL at (2,1) (coefficient 5 at (2,1) vs 0 at (1,2))\n"
        code, out, _ = run("check", SMOOTH, "--symmetry", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["checks"] == {"symmetry": {"passed": False, "witness": [2, 1]}}

    def test_series_expanded_only_for_nonneg(self, run, monkeypatch):
        # every expansion starts by laying E_st out to its horizon
        calls = []
        real_expansion = exact_poly._expansion

        def counting_expansion(num, den, horizon):
            calls.append(horizon)
            return real_expansion(num, den, horizon)

        for module in (engine, exact_poly):
            monkeypatch.setattr(module, "_expansion", counting_expansion)
        code, out, _ = run("check", SMOOTH, "--duality", "--symmetry", "--polynomial")
        assert code == 0
        assert "polynomial: POLYNOMIAL = 1 + uv + (uv)^2 + (uv)^3" in out
        assert calls == []
        run("check", SMOOTH, "--nonneg", "--horizon", "9")
        assert calls == [9]

    def test_polynomial_alone_is_never_refused_for_the_horizon(self, run):
        # only --nonneg reads the run's expansion; the witness has its own
        code, out, _ = run("check", E6, "--polynomial", "--horizon", str(10 ** 9))
        assert code == 1
        assert out == ("polynomial: NOT POLYNOMIAL at (4,4) "
                       "(series coefficient 1 at (4,4) exceeds degree (3,3))\n")

    def test_default_check_at_a_refused_horizon(self, run):
        code, out, _ = run("check", E6, "--horizon", str(10 ** 9))
        assert code == 2
        assert out == ("error: series-cost: expanding to horizon 1000000000 computes 500000001 "
                       "coefficients, over the budget of 262144\n")

    def test_sign_anomalies_past_the_digit_limit(self, run, tmp_path):
        # from 4300-digit tables, b_{1,1} < 0 is a violation and b_{2,2} < 0
        # a note, both past Python's int/str digit limit; the tables hold
        # decimal strings, which load under any setting of that limit
        c = '"' + "9" * 4300 + '"'
        labels = [f"E{k}" for k in range(1, 5)]
        components = json.dumps([{"label": lbl, "discrepancy": k} for k, lbl in enumerate(labels, 1)])
        strata = ", ".join(f'"{lbl}": [[0, 0, {c}], [1, 1, {c}]]' for lbl in labels)
        path = tmp_path / "big.json"
        path.write_text(
            f'{{"dimension": 2, "ambient": [[0, 0, {c}], [1, 1, {c}]], "components": {components}, '
            f'"strata_convention": "closed", "strata": {{{strata}}}}}')
        series = engine.compute(resolution.load_config(path), 4).series
        assert series._flat is not None
        report = engine.check_nonnegativity(series, 2)
        (violation,), (note,) = report.violations, report.beyond_notes
        assert violation[:2] == (1, 1) and note[:2] == (2, 2)
        assert min(len(exact_poly.decimal_str(-b)) for b in (violation[2], note[2])) > 4300
        code, out, _ = run("check", str(path), "--nonneg", "--horizon", "4")
        assert code == 1
        assert out == "".join(line + "\n" for line in _nonneg_lines(report))
        code, out, _ = run("check", str(path), "--nonneg", "--horizon", "4", "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"]["nonneg"] == _nonneg_json(report)
        assert_canonical_json(out)

    def test_bare_check_runs_the_three_default_checks(self, run):
        _, out, _ = run("check", E6, "--format", "json")
        assert sorted(json.loads(out)["checks"]) == ["duality", "nonneg", "polynomial"]

    def test_format_never_changes_exit_code(self, run):
        for argv in (
            ["check", E6, "--duality", "--nonneg"],
            ["check", AFFINE, "--duality"],
            ["check", E6, "--polynomial"],
            ["compute", NODE, "--local"],
            ["decompose", NODE, "--pairs", "3,2"],
            ["validate", E6, "--strict"],
        ):
            codes = {fmt: run(*argv, "--format", fmt)[0]
                     for fmt in ("text", "json", "latex")}
            assert len(set(codes.values())) == 1, codes


class TestValidate:
    def test_lenient_accepts_e6(self, run):
        code, out, _ = run("validate", E6)
        assert code == 0
        assert "accepted (lenient)" in out

    def test_strict_accepts_node(self, run):
        code, out, _ = run("validate", NODE, "--strict")
        assert code == 0
        assert "accepted (strict)" in out

    def test_strict_rejects_e6(self, run):
        code, out, _ = run("validate", E6, "--strict")
        assert code == 2
        assert "rejected (strict)" in out
        assert "error: serre-reflection [ambient]:" in out

    def test_json_findings(self, run):
        code, out, _ = run("validate", E6, "--strict", "--format", "json")
        assert code == 2
        assert_canonical_json(out)
        doc = json.loads(out)
        assert doc["accepted"] is False
        assert doc["mode"] == "strict"
        assert all(f["severity"] == "error" for f in doc["findings"])
        assert {f["code"] for f in doc["findings"]} == {"serre-reflection"}
        assert {f["location"] for f in doc["findings"]} == {"ambient", "E"}


class TestDecompose:
    def test_node_row(self, run):
        code, out, _ = run("decompose", NODE, "--pairs", "1,1")
        assert code == 0
        assert (
            "b_{1,1} = 2 | c = 3, alt = -1, R = 0, S = 0, implied dim = 2"
        ) in out
        assert (
            "note: implied Hodge dimensions assume the resolution is an"
            " isomorphism over the smooth locus; the config format cannot"
            " express that hypothesis"
        ) in out

    def test_rejected_pair(self, run):
        code, out, _ = run("decompose", NODE, "--pairs", "3,2")
        assert code == 3
        assert "rejected (3, 2): i + j = 5 exceeds the dimension 3" in out

    def test_rejected_pair_json(self, run):
        code, out, _ = run("decompose", NODE, "--pairs", "3,2", "--format", "json")
        assert code == 3
        doc = json.loads(out)
        assert doc["rows"] == []
        assert doc["rejected"] == [
            {"pair": [3, 2], "reason": "i + j = 5 exceeds the dimension 3"},
        ]

    def test_strict_gate(self, run):
        # Decomposition needs the strict hypotheses, so a lenient-only config
        # is turned away with the validation findings.
        code, out, _ = run("decompose", E6, "--pairs", "1,1")
        assert code == 2
        assert "serre-reflection" in out

    def test_json_row_fields(self, run):
        _, out, _ = run("decompose", NODE, "--pairs", "1,1", "--format", "json")
        doc = json.loads(out)
        assert doc["rows"] == [{
            "alternating_sum": -1,
            "c_term": 3,
            "direct": 2,
            "flagged": False,
            "i": 1,
            "implied_hodge_dim": 2,
            "j": 1,
            "r_term": 0,
            "s_term": 0,
        }]


class TestBatch:
    @pytest.fixture
    def batch_dir(self, tmp_path):
        for src in (NODE, SMOOTH, AFFINE):
            shutil.copy(src, tmp_path)
        return tmp_path

    def test_text_headers_in_path_order(self, run, batch_dir):
        code, out, _ = run("compute", str(batch_dir))
        assert code == 0
        headers = [l for l in out.splitlines() if l.startswith("== ")]
        assert headers == [
            f"== {batch_dir / 'affine_line.json'} ==",
            f"== {batch_dir / 'node_a1.json'} ==",
            f"== {batch_dir / 'smooth_p3.json'} ==",
        ]

    def test_exit_code_is_worst_member(self, run, batch_dir):
        # affine_line fails duality (1), the others pass (0).
        code, out, _ = run("check", str(batch_dir), "--duality")
        assert code == 1
        assert out.count("duality: PASS") == 2
        assert out.count("duality: FAIL") == 1

    def test_json_batch_is_document_stream(self, run, batch_dir):
        code, out, _ = run("check", str(batch_dir), "--duality", "--format", "json")
        assert code == 1
        assert "== " not in out
        assert_canonical_json(out)
        docs = parse_json_documents(out)
        assert [d["path"] for d in docs] == sorted(d["path"] for d in docs)
        assert max(d["exit_code"] for d in docs) == 1

    def test_empty_directory(self, run, tmp_path):
        code, out, err = run("compute", str(tmp_path))
        assert code == 2
        assert "no *.json config files" in err


class TestErrors:
    # Per-file problems are part of the report (stdout, exit 2); only
    # argument and directory-level mistakes go to stderr.

    def test_missing_file(self, run):
        code, out, _ = run("compute", "/nonexistent/config.json")
        assert code == 2
        assert out.startswith("error: ")

    def test_unreadable_path_has_no_digest(self, run, tmp_path):
        # a directory named like a config cannot be read: the error is the
        # one reading it raises, and the report has an empty sha256
        (tmp_path / "dir.json").mkdir()
        try:
            (tmp_path / "dir.json").read_bytes()
        except OSError as exc:
            want = str(exc)
        shutil.copy(NODE, tmp_path)
        code, out, _ = run("compute", str(tmp_path), "--format", "json")
        bad, good = parse_json_documents(out)
        assert code == 2 and bad["error"] == want and bad["sha256"] == ""
        assert good["exit_code"] == 0 and len(good["sha256"]) == 64

    @pytest.mark.parametrize("command", [("compute", "--local"), ("check",), ("validate",),
                                         ("decompose", "--pairs", "1,1")])
    def test_each_file_is_opened_once(self, run, monkeypatch, command):
        # the bytes read for the config are the ones hashed for sha256
        opened = []
        real_open = Path.open

        def counting_open(self, *args, **kwargs):
            opened.append(self.name)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        code, out, _ = run(command[0], NODE, "--format", "json", *command[1:])
        assert code == 0
        with open(NODE, "rb") as fh:
            assert json.loads(out)["sha256"] == hashlib.sha256(fh.read()).hexdigest()
        assert opened == ["node_a1.json"]

    def test_invalid_json(self, run, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, _ = run("compute", str(path))
        assert code == 2
        assert out.startswith("error: ")

    @pytest.mark.parametrize("digits", ["1_000", "\u0663", "\uff11\uff12"])
    def test_decimal_strings_are_ascii_digits(self, run, tmp_path, digits):
        # int() would read these as 1000, 3 and 12, and compute would exit 0
        path = tmp_path / "digits.json"
        path.write_text(json.dumps({
            "dimension": 1, "ambient": [[0, 0, digits]], "components": [],
            "strata_convention": "closed", "strata": {},
        }))
        code, out, _ = run("compute", str(path))
        assert code == 2
        assert out == f"error: ambient: not a decimal integer: {digits!r}\n"

    @pytest.mark.parametrize("name, blob", [
        ("latin1.json", b'{"dimension": 3, "label": "\xe9"}'),
        ("deep.json", b"[" * 100000),
    ])
    def test_undecodable_file_does_not_abort_batch(self, run, tmp_path, name, blob):
        (tmp_path / name).write_bytes(blob)
        shutil.copy(NODE, tmp_path)
        code, out, _ = run("compute", str(tmp_path))
        assert code == 2
        bad, good = out.split(f"== {tmp_path / 'node_a1.json'} ==\n")
        assert bad.startswith(f"== {tmp_path / name} ==\nerror: ")
        assert good.startswith("E_st = 1 + 2uv + 2(uv)^2 + (uv)^3 (polynomial)\n")

    @pytest.mark.parametrize("argv", [("validate", "--strict"), ("decompose", "--pairs", "1,1")])
    def test_serre_message_past_the_digit_limit(self, run, tmp_path, argv):
        digits = "9" * 5000
        (tmp_path / "big.json").write_text(json.dumps({
            "dimension": 3, "ambient": [[0, 0, digits]],
            "components": [{"label": "E", "discrepancy": 1}],
            "strata_convention": "closed", "strata": {"E": [[0, 0, 1]]},
        }))
        shutil.copy(NODE, tmp_path)
        code, out, _ = run(argv[0], str(tmp_path), *argv[1:])
        assert code == 2
        bad, good = out.split(f"== {tmp_path / 'node_a1.json'} ==\n")
        assert f"error: serre-reflection [ambient]: closed stratum ambient at dimension 3: " \
               f"coefficient {digits} at (0,0) vs 0 at (3,3)" in bad
        assert good.startswith("accepted (strict)" if argv[0] == "validate" else "b_{1,1} = 2 |")

    @pytest.mark.parametrize("name, ambient, stratum, a, finding", [
        # a 4300-digit exponent does not fit a JSON int; beside a constant term it also makes
        # a dense canonical numerator of about that many terms
        ("exponent.json", [[_NINES, _NINES, 1]], [[_NINES, _NINES, 1]], 1, "exponent-cost"),
        ("dense.json", [[0, 0, 1], [_NINES, _NINES, 1]], [[0, 0, 1], [_NINES, _NINES, 1]], 1,
         "exponent-cost"),
        # the divisors of a + 1 are found by trial division up to its square root
        ("discrepancy.json", [[0, 0, 1], [1, 1, 1]], [[0, 0, 1]], 10 ** 14 + 9, "discrepancy-cost"),
    ])
    def test_costly_input_is_refused_up_front(self, run, tmp_path, name, ambient, stratum, a, finding):
        (tmp_path / name).write_text(json.dumps({
            "dimension": 1, "ambient": ambient,
            "components": [{"label": "E", "discrepancy": a}],
            "strata_convention": "closed", "strata": {"E": stratum},
        }))
        shutil.copy(NODE, tmp_path)
        started = time.perf_counter()
        code, out, _ = run("compute", str(tmp_path), "--format", "json")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        bad, good = parse_json_documents(out)
        assert bad["exit_code"] == 2 and f"error: {finding} [" in bad["error"]
        assert good["path"] == str(tmp_path / "node_a1.json") and good["exit_code"] == 0

    def test_discrepancy_sum_is_refused_up_front(self, run, tmp_path):
        # each a + 1 is below 2^32, but together they would put a
        # denominator of degree about 2^34 into the packed formulas
        (tmp_path / "wide.json").write_text(json.dumps({
            "dimension": 1, "ambient": [[0, 0, 1], [1, 1, 1]],
            "components": [{"label": f"E{k}", "discrepancy": 2 ** 32 - 1 - k} for k in range(4)],
            "strata_convention": "closed", "strata": {f"E{k}": [[0, 0, 1]] for k in range(4)},
        }))
        shutil.copy(NODE, tmp_path)
        started = time.perf_counter()
        code, out, _ = run("compute", str(tmp_path), "--format", "json")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        good, bad = parse_json_documents(out)
        assert bad["exit_code"] == 2 and "error: discrepancy-cost [" in bad["error"]
        assert good["path"] == str(tmp_path / "node_a1.json") and good["exit_code"] == 0

    @pytest.mark.parametrize("probe", sorted(SHARED_PROBES))
    def test_shared_discrepancies_count_once(self, run, tmp_path, probe):
        # 24 components share one a, each alone in a stored key: the sums
        # carry the one factor (uv)^(a+1) - 1, not 24, so neither budget
        # refuses them, though 24 (a + 1) or its layout would pass one
        config = shared_discrepancy_config(*SHARED_PROBES[probe])
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(config))
        started = time.perf_counter()
        code, out, _ = run("compute", str(path), "--format", "json")
        assert time.perf_counter() - started < 1.0
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        p = _MERSENNE_127
        for u, v in [(2, 3), (5, 7)]:
            den = 1
            for m in doc["e_st"]["den"]:
                den = den * (pow(u * v, m, p) - 1) % p
            assert _at(doc["e_st"]["num"], u, v) * pow(den, -1, p) % p == _closed_formula_at(config, u, v)

    def test_shared_discrepancy_in_one_key_is_refused_up_front(self, run, tmp_path, monkeypatch):
        # two components with a = 2^17 in one stored key bring their factor
        # together twice: a common denominator of degree 2^18 + 2, refused
        # at the first component of that a, before any formula work
        (tmp_path / "pair.json").write_text(json.dumps({
            "dimension": 1, "ambient": [[0, 0, 1], [1, 1, 1]],
            "components": [{"label": "A", "discrepancy": 2 ** 17}, {"label": "B", "discrepancy": 2 ** 17}],
            "strata_convention": "closed", "strata": {"A": [[0, 0, 1]], "B": [[0, 0, 1]], "A,B": [[0, 0, 1]]},
        }))
        shutil.copy(NODE, tmp_path)
        packed = []
        real_packed = engine._packed_strata
        monkeypatch.setattr(engine, "_packed_strata", lambda cfg: packed.append(cfg) or real_packed(cfg))
        started = time.perf_counter()
        code, out, _ = run("compute", str(tmp_path), "--format", "json")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        good, bad = parse_json_documents(out)
        assert bad["exit_code"] == 2 and "error: discrepancy-cost [A]: " in bad["error"]
        assert good["path"] == str(tmp_path / "node_a1.json") and good["exit_code"] == 0
        assert packed and all(("A", "B") not in cfg.strata for cfg in packed)

    def test_wide_coefficients_are_refused_up_front(self, run, tmp_path):
        # a 10^4-digit coefficient makes every slot about 33 kbit wide, over
        # 2^18 powers of uv: gigabytes per packed sum
        (tmp_path / "wide.json").write_text(json.dumps({
            "dimension": 1, "ambient": [[0, 0, 1], [1, 1, 1]],
            "components": [{"label": "E", "discrepancy": 2 ** 18 - 2}],
            "strata_convention": "closed", "strata": {"E": [[0, 0, "9" * 10000]]},
        }))
        shutil.copy(NODE, tmp_path)
        started = time.perf_counter()
        code, out, _ = run("compute", str(tmp_path), "--format", "json")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        good, bad = parse_json_documents(out)
        assert bad["exit_code"] == 2 and "\n  error: packed-size-cost: " in bad["error"]
        assert good["path"] == str(tmp_path / "node_a1.json") and good["exit_code"] == 0

    def test_packed_size_error_is_an_input_error(self, run, tmp_path, monkeypatch):
        # validation bounds the formula sums only; a later step that would
        # pass the budget (here a lowered one, which validation does not
        # read) refuses its file, and the batch goes on
        monkeypatch.setattr(exact_poly, "PACKED_BIT_BUDGET", 64)
        shutil.copy(E6, tmp_path)
        shutil.copy(NODE, tmp_path)
        code, out, _ = run("compute", str(tmp_path), "--format", "json")
        assert code == 2
        bad, good = parse_json_documents(out)
        assert bad["exit_code"] == 2 and bad["error"].startswith("packed-size-cost: ")
        assert good["path"] == str(tmp_path / "node_a1.json") and good["exit_code"] == 0

    def test_polynomial_e_st_with_large_discrepancies_stays_cheap(self, run, tmp_path):
        # six prime a + 1 near 2^14 and tables (uv)^(a+1) - 1: E_st is a
        # polynomial, so uv - 1 cancels six times from a numerator of
        # degree about 10^5, without quotients by (uv - 1)^L
        primes = [16381, 16369, 16363, 16361, 16349, 16339]
        fan = [[0, 0, 1]] + [[k, 0, 1] for k in range(1, 7)] + [[0, k, 1] for k in range(1, 7)]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({
            "dimension": 1, "ambient": fan,
            "components": [{"label": f"E{k}", "discrepancy": m - 1} for k, m in enumerate(primes)],
            "strata_convention": "closed",
            "strata": {f"E{k}": [[0, 0, -1], [m, m, 1]] for k, m in enumerate(primes)},
        }))
        started = time.perf_counter()
        code, out, _ = run("compute", str(path), "--format", "json")
        assert time.perf_counter() - started < 1.0
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True and doc["e_st"]["den"] == []

    @pytest.mark.parametrize("probe", sorted(DEEP_PROBES))
    def test_lenient_accepted_deep_cancellation_computes(self, run, tmp_path, probe):
        # distinct prime a + 1 whose sum, the degree of K, comes near the
        # discrepancy budget (their layouts take 38-63 % of the packed one),
        # and tables (uv)^(a+1) - 1: E_st is a polynomial with small
        # coefficients, so the cancellation has no reason to refuse them
        # after the sums; each stratum lacks the others' factors, so the
        # sums merge many full-size terms of distinct denominators
        config = deep_cancellation_config(*DEEP_PROBES[probe])
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(config))
        assert run("validate", str(path))[0] == 0
        started = time.perf_counter()
        code, out, _ = run("compute", str(path), "--format", "json")
        assert time.perf_counter() - started < 3.0
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True and doc["e_st"]["den"] == []
        for u, v in [(2, 3), (5, 7)]:
            assert _at(doc["e_st"]["num"], u, v) == _closed_formula_at(config, u, v)

    def test_far_apart_offsets_stay_cheap(self, run, tmp_path):
        # terms at (2^14, 0), (0, 2^14) and (2^14, 2^14): the packed layout
        # keeps one slot per offset present, not one per offset in between
        path = tmp_path / "far.json"
        path.write_text(json.dumps(_far_apart_config()))
        started = time.perf_counter()
        code, out, _ = run("compute", str(path), "--format", "json")
        assert time.perf_counter() - started < 0.5
        assert code == 0
        assert json.loads(out)["agree"] is True

    @pytest.mark.parametrize("argv", [("compute",), ("check", "--nonneg")])
    def test_costly_series_is_refused_up_front(self, run, tmp_path, argv):
        # E6 expands over 10^6 coefficients at this horizon; the node is a
        # polynomial, whose series is its truncation
        shutil.copy(E6, tmp_path)
        shutil.copy(NODE, tmp_path)
        started = time.perf_counter()
        code, out, _ = run(argv[0], str(tmp_path), *argv[1:], "--horizon", "2000000", "--format", "json")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        bad, good = parse_json_documents(out)
        assert bad["exit_code"] == 2 and bad["error"].startswith("series-cost: ")
        assert good["path"] == str(tmp_path / "node_a1.json") and good["exit_code"] == 0

    @pytest.mark.parametrize("argv", [("compute",), ("check", "--nonneg")])
    def test_costly_sparse_series_is_refused_up_front(self, run, tmp_path, argv):
        # E_st's numerator is too sparse to read back flat: a term map, whose
        # expansion columns end at its last term of each offset, so the cost
        # check costs nothing like the refused expansion
        path = tmp_path / "far.json"
        path.write_text(json.dumps(_far_apart_config()))
        x = engine.compute(resolution.load_config(path), 0).e_open
        assert x.denominator and x.numerator._flat is None
        started = time.perf_counter()
        code, out, _ = run(argv[0], str(path), *argv[1:], "--horizon", str(10 ** 9), "--format", "json")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        doc = json.loads(out)
        assert doc["exit_code"] == 2 and doc["error"].startswith("series-cost: ")

    def test_negative_horizon(self, run):
        code, _, err = run("compute", NODE, "--horizon", "-3")
        assert code == 2
        assert "error: --horizon must be nonnegative" in err

    def test_local_needs_singular_locus(self, run):
        code, out, _ = run("compute", SMOOTH, "--local")
        assert code == 2
        assert "error: --local needs the config's singular_locus" in out

    def test_error_report_in_json_mode(self, run):
        code, out, _ = run("compute", SMOOTH, "--local", "--format", "json")
        assert code == 2
        assert_canonical_json(out)
        doc = json.loads(out)
        assert doc["exit_code"] == 2
        assert doc["error"] == "--local needs the config's singular_locus"


def _nonneg_lines(report):
    """``check --nonneg``'s text lines for a report, as the lines were first written."""
    d = report.dimension
    if report.passed:
        lines = [f"nonneg: PASS (i+j <= {d})"]
    else:
        lines = [f"nonneg: FAIL ({len(report.violations)} violation(s))"]
        lines += [f"violation: b_{{{i},{j}}} = {exact_poly.decimal_str(b)}" for i, j, b in report.violations]
    return lines + [f"note: b_{{{i},{j}}} = {exact_poly.decimal_str(b)} beyond range"
                    for i, j, b in report.beyond_notes]


def _nonneg_json(report):
    """``check --nonneg``'s JSON verdict for a report."""
    return {"passed": report.passed,
            **{key: [[i, j, exact_poly.encode_json_int(b)] for i, j, b in part]
               for key, part in (("violations", report.violations), ("notes", report.beyond_notes))}}


@st.composite
def _nonneg_cases(draw):
    """(flat series, dimension): offsets of one parity or both, an even or
    odd horizon, a dimension anywhere up to it (below the layout's first
    row too), and values of either sign, or of the right sign only."""
    parity = draw(st.sampled_from(["even", "odd", "both"]))
    pool = [s for s in range(-9, 10) if parity == "both" or (s % 2 == 0) == (parity == "even")]
    offsets = draw(st.sets(st.sampled_from(pool), min_size=1, max_size=5))
    horizon = draw(st.integers(min_value=1, max_value=15))
    layout = exact_poly._skewed_layout(offsets, horizon)
    big = st.sampled_from([2 ** 63, -(2 ** 63) - 1, 10 ** 30, -(10 ** 30)])
    values = [0 if pair is None else draw(st.one_of(st.integers(-3, 3), big)) for pair in layout.pairs()]
    if draw(st.booleans()):  # no anomaly at all
        values = [0 if pair is None else abs(b) * (-1) ** sum(pair) for b, pair in zip(values, layout.pairs())]
    d = draw(st.integers(min_value=1, max_value=horizon))
    return exact_poly.TruncatedBiseries._on_layout(values, layout), d


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_nonneg_cases())
def test_check_nonneg_writer_matches_the_report(run, tmp_path, monkeypatch, case):
    # the lines and JSON arrays written from the anomalies' positions, or
    # for a sparse series of the same terms from the report, are those of
    # check_nonnegativity's report in today's templates
    flat, d = case
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"dimension": d, "ambient": [[0, 0, 1]], "components": [],
                                "strata_convention": "closed", "strata": {}}))
    report = engine.check_nonnegativity(flat, d)
    want_text = "".join(line + "\n" for line in _nonneg_lines(report))
    for series in (flat, exact_poly.TruncatedBiseries(flat.horizon, dict(flat.items()))):
        result = type("Result", (), {"agree": True, "series_size": 0, "series": series})()
        monkeypatch.setattr(cli, "compute", lambda cfg, horizon: result)
        code, out, _ = run("check", str(path), "--nonneg", "--horizon", str(flat.horizon))
        assert (code, out) == (0 if report.passed else 1, want_text)
        _, out, _ = run("check", str(path), "--nonneg", "--horizon", str(flat.horizon), "--format", "json")
        assert json.loads(out)["checks"]["nonneg"] == _nonneg_json(report)
        assert_canonical_json(out)


def _far_apart_config():
    """A config whose tables have terms at (2^14, 0), (0, 2^14) and
    (2^14, 2^14): E_st is rational, with a numerator too sparse for the
    flat read-back."""
    at = resolution.EXPONENT_BUDGET
    table = [[0, 0, 1], [at, 0, 1], [0, at, 1], [at, at, 1]]
    return {
        "dimension": 1, "ambient": table,
        "components": [{"label": "A", "discrepancy": 1}, {"label": "B", "discrepancy": 2}],
        "strata_convention": "closed", "strata": {"A": table, "B": [[0, 0, 1]], "A,B": [[0, 0, 1]]},
    }


def _series_shaped_config(seed):
    """A config shaped like the benchmark's deep-series ones: dimension 5,
    6 components with discrepancies 1-4 and u<->v symmetric tables, so
    E_st keeps several small factors (uv)^m - 1 in its denominator."""
    rng = random.Random(seed)

    def table(top, count):
        terms = {}
        for _ in range(count):
            i, j, c = rng.randint(0, top), rng.randint(0, top), rng.choice([-3, -2, -1, 1, 2, 3])
            for pair in {(i, j), (j, i)}:
                terms[pair] = terms.get(pair, 0) + c
        return [[i, j, c] for (i, j), c in sorted(terms.items()) if c] or [[0, 0, 1]]

    labels = [f"E{k}" for k in range(6)]
    strata = {label: table(4, 4) for label in labels}
    strata.update({f"{a},{b}": table(3, 3) for a, b in itertools.combinations(labels, 2) if rng.random() < 0.2})
    return {
        "dimension": 5, "ambient": table(5, 5),
        "components": [{"label": label, "discrepancy": rng.randint(1, 4)} for label in labels],
        "strata_convention": "closed", "strata": strata,
    }


@pytest.mark.parametrize("argv", [("compute",), ("check", "--nonneg")])
def test_deep_series_stays_linear(run, tmp_path, argv):
    # about 17000 coefficients at horizon 3200: expanding, ordering and
    # printing them takes hundredths of a second; an emission or an order
    # that grew quadratically would take seconds
    path = tmp_path / "series.json"
    path.write_text(json.dumps(_series_shaped_config(3200)))
    result = engine.compute(resolution.load_config(path), 3200)
    assert len(result.e_open.denominator) >= 3
    assert 10000 < result.series_size <= resolution.SERIES_BUDGET
    started = time.perf_counter()
    code, out, _ = run(argv[0], str(path), *argv[1:], "--horizon", "3200")
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"{argv[0]} to horizon 3200 took {elapsed:.3f}s"
    if argv[0] == "compute":
        assert code == 0
        series = out.splitlines()[1]
        assert series.startswith("series = ") and series.endswith(" + ...")
        assert series.count(" + ") + series.count(" - ") > 10000
    else:
        assert code in (0, 1) and out.startswith("nonneg: ")


def test_series_cost_boundary_is_the_expansion_size(run, tmp_path, monkeypatch):
    # the series-cost check counts what the expansion computes: a budget of
    # exactly that size expands, one less refuses before any coefficient is
    # filled in
    path = tmp_path / "series.json"
    path.write_text(json.dumps(_series_shaped_config(200)))
    size = engine.compute(resolution.load_config(path), 200).series_size
    expansions = []
    real_fill = engine._filled
    monkeypatch.setattr(engine, "_filled",
                        lambda x, horizon, *laid_out: expansions.append(horizon) or real_fill(x, horizon, *laid_out))
    monkeypatch.setattr(cli, "SERIES_BUDGET", size)
    assert run("compute", str(path), "--horizon", "200")[0] == 0
    assert expansions == [200]
    monkeypatch.setattr(cli, "SERIES_BUDGET", size - 1)
    code, out, _ = run("compute", str(path), "--horizon", "200", "--format", "json")
    assert code == 2
    assert json.loads(out)["error"] == (f"series-cost: expanding to horizon 200 computes {size} coefficients, "
                                        f"over the budget of {size - 1}")
    assert expansions == [200]


@pytest.mark.parametrize("argv", [("compute",), ("check", "--nonneg"), ("check",)])
def test_deep_series_reads_the_flat_layout(run, tmp_path, monkeypatch, argv):
    # text output and every verdict read E_st's expansion on its flat
    # layout: they never build its term map, and print what the sparse
    # series of the same terms prints
    path = tmp_path / "series.json"
    path.write_text(json.dumps(_series_shaped_config(3200)))
    argv = (argv[0], str(path), *argv[1:], "--horizon", "3200")

    def sparse(result):
        flat = exact_poly.expand_rational(result.e_open, result.horizon)
        assert flat._flat is not None
        return exact_poly.TruncatedBiseries(result.horizon, dict(flat.items()))

    with monkeypatch.context() as patched:
        patched.setattr(engine.StringyResult, "series", property(sparse))
        want = run(*argv)

    def no_term_map(series):
        raise AssertionError("the term map of an expanded E_st was built")

    monkeypatch.setattr(exact_poly.TruncatedBiseries, "_term_map", no_term_map)
    started = time.perf_counter()
    got = run(*argv)
    elapsed = time.perf_counter() - started
    assert got == want
    assert got[0] in (0, 1) and got[1].count("\n") > (1 if argv[0] == "compute" else 100)
    assert elapsed < 0.5, f"{argv[0]} to horizon 3200 took {elapsed:.3f}s"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stringy.cli", "compute", NODE],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("E_st = ")


def test_import_loads_no_dataclasses():
    # dataclasses, and the inspect, ast and dis it imports, would cost every
    # run several milliseconds of start-up; -S keeps site's imports out
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import stringy.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# -- robustness: no input file may raise out of the CLI -----------------------

_LABELS = ("A", "B", "C")
_json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 6), st.floats(-2, 2),
                       st.text(max_size=4))
_json_any = st.recursive(_json_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def _config(draw):
    """A config document that is mostly well formed: u<->v symmetric
    polynomials (Serre-reflective at their dimension half of the time),
    strata keyed by declared labels; then, half of the time, one field
    replaced by arbitrary JSON or left out."""
    serre = draw(st.booleans())
    d = draw(st.integers(3 if serre else 1, 4))
    labels = draw(st.lists(st.sampled_from(_LABELS), max_size=3, unique=True))

    def poly(dim):
        terms: dict = {}
        for i, j, c in draw(st.lists(st.tuples(st.integers(0, max(dim, 0)), st.integers(0, max(dim, 0)),
                                               st.integers(-3, 3)), max_size=4)):
            orbit = {(i, j), (j, i)}
            if serre:
                orbit |= {(dim - i, dim - j), (dim - j, dim - i)}
            for pair in orbit:
                terms[pair] = terms.get(pair, 0) + c
        return [[i, j, c] for (i, j), c in sorted(terms.items()) if c and i >= 0 and j >= 0]

    keys = draw(st.lists(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True),
                         max_size=4)) if labels else []
    doc = {
        "dimension": d,
        "ambient": poly(d) or [[0, 0, 1], [d, d, 1]],
        "components": [{"label": label, "discrepancy": draw(st.integers(0, 4))} for label in labels],
        "strata_convention": "closed" if serre else draw(st.sampled_from(["open", "closed"])),
        "strata": {",".join(sorted(key)): poly(d - len(key)) for key in keys},
    }
    if draw(st.booleans()):
        doc["singular_locus"] = [[0, 0, draw(st.integers(1, 3))]]
    field = draw(st.sampled_from(sorted(doc) + ["extra"]))
    change = draw(st.sampled_from(["keep", "keep", "replace", "drop"]))
    if change == "replace":
        doc[field] = draw(_json_any)
    elif change == "drop":
        doc.pop(field, None)
    return doc


_document = st.one_of(st.binary(max_size=64), _config().map(lambda doc: json.dumps(doc).encode()))
_ARGVS = (
    ("compute",),
    ("compute", "--local", "--format", "json"),
    ("compute", "--strict", "--format", "latex", "--horizon", "3"),
    ("check", "--duality", "--symmetry", "--polynomial", "--nonneg"),
    ("decompose", "--pairs", "0,0;1,1;2,1;2,2", "--format", "json"),
    ("validate", "--strict"),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_document)
def test_no_input_raises_out_of_the_cli(tmp_path, document):
    path = tmp_path / "config.json"
    path.write_bytes(document)
    for argv in _ARGVS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2, 3), argv


# -- the JSON writer: the bytes of json.dumps(v, sort_keys=True, indent=2) ----

_EDGE_INTS = (0, -1, 2 ** 63 - 1, -(2 ** 63), 2 ** 63, -(2 ** 63) - 1)
# past Python's int/str digit limit; made by a map, since hypothesis reprs its strategies
_PAST_DIGIT_LIMIT = st.sampled_from((1, -1)).map(lambda sign: sign * 10 ** 5000)
_writer_text = st.one_of(st.text(max_size=8),
                         st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é€ 😀', max_size=8))
_writer_triples = st.lists(
    st.tuples(st.tuples(st.integers(0, 40), st.integers(0, 40)),
              st.one_of(st.sampled_from(_EDGE_INTS), _PAST_DIGIT_LIMIT, st.integers(-(2 ** 70), 2 ** 70))),
    max_size=5).map(lambda terms: cli._Triples(lambda: terms))
_writer_leaf = st.one_of(st.none(), st.booleans(), st.sampled_from(_EDGE_INTS),
                         st.integers(-(2 ** 70), 2 ** 70), _writer_text, _writer_triples)
_writer_value = st.recursive(_writer_leaf, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(_writer_text, inner, max_size=4)), max_leaves=12)


def _as_lists(value):
    """The plain JSON value the writer's input stands for."""
    if isinstance(value, cli._Triples):
        return [[i, j, exact_poly.encode_json_int(c)] for (i, j), c in value.terms()]
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_as_lists(item) for item in value]
    return value


@given(_writer_value)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(_as_lists(value), sort_keys=True, indent=2)


def test_json_writer_quotes_coefficients_beyond_64_bits():
    terms = [((0, 0), c) for c in (2 ** 63 - 1, -(2 ** 63), 2 ** 63, -(2 ** 63) - 1, 10 ** 5000)]
    doc = json.loads(cli._json_text({"num": cli._Triples(lambda: terms)}))
    assert doc["num"][:2] == [[0, 0, 2 ** 63 - 1], [0, 0, -(2 ** 63)]]
    assert doc["num"][2:4] == [[0, 0, str(2 ** 63)], [0, 0, str(-(2 ** 63) - 1)]]
    assert doc["num"][4][2] == "1" + "0" * 5000


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, [float("nan")], {1: 2}, (1, 2)])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_json_writer_keeps_heads_per_shape(monkeypatch):
    # one key set in two insertion orders, each at two indentations, is
    # four shapes; each is written the same from its kept heads
    monkeypatch.setattr(cli, "_DICT_SHAPES", {})
    forward = {"b": 1, "a": [2, "x"], "c": None}
    backward = dict(reversed(forward.items()))
    for value in (forward, backward, [forward], [backward]):
        for _ in range(2):
            assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)
    assert set(cli._DICT_SHAPES) == {("", "b", "a", "c"), ("", "c", "a", "b"),
                                     ("  ", "b", "a", "c"), ("  ", "c", "a", "b")}


def test_json_writer_refuses_a_non_str_key_after_a_cached_shape(monkeypatch):
    monkeypatch.setattr(cli, "_DICT_SHAPES", {})
    good = {"a": 1, "b": [True]}
    want = json.dumps(good, sort_keys=True, indent=2)
    assert cli._json_text(good) == want
    for bad in ({"a": 1, 2: [True]}, {1: 1, "b": [True]}, {"a": 1, "b": [True], None: 0}):
        with pytest.raises(TypeError):
            cli._json_text(bad)
    assert list(cli._DICT_SHAPES) == [("", "a", "b")]
    assert cli._json_text(good) == want


def test_json_writer_starts_over_past_the_shape_bound(monkeypatch):
    # keys taken from an input: the kept shapes never pass the bound
    monkeypatch.setattr(cli, "_DICT_SHAPES", {})
    monkeypatch.setattr(cli, "_DICT_SHAPES_CAP", 3)
    values = [{f"key {n}": n, "same": [n]} for n in range(7)]
    for value in values + values:
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)
        assert len(cli._DICT_SHAPES) <= 3


class _IntLeaf(int):
    pass


class _StrLeaf(str):
    pass


@pytest.mark.parametrize("value", [True, False, [True, False, None], {"t": True, "f": False},
                                   _IntLeaf(-7), [_IntLeaf(2 ** 70), _IntLeaf(0)], _StrLeaf('q"\\é\n'),
                                   {_StrLeaf("k"): _StrLeaf("v"), "a": [_IntLeaf(3), True]},
                                   collections.OrderedDict([("z", 1), ("y", [_StrLeaf("x")])])])
def test_json_writer_bool_and_subclass_leaves(value):
    for _ in range(2):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_writer_writes_an_empty_flat_series_as_empty_list():
    # no numerator term within the horizon: an expansion on an empty layout
    series = exact_poly.expand_rational(StringyRational(BivariatePolynomial({(9, 9): 1}), (1,)), 3)
    assert series._flat is not None
    assert cli._json_text(cli._series_json(series, True)) == json.dumps(
        {"horizon": 3, "truncated": True, "coefficients": []}, sort_keys=True, indent=2)


def test_json_writer_writes_flat_values_at_the_64_bit_edges(monkeypatch):
    # a flat numerator and a flat series, written from their values and the
    # kept position pieces, give json.dumps' bytes: -2^63 and 2^63 - 1 bare,
    # 2^63 and -2^63 - 1 quoted
    edges = {(0, 0): -(2 ** 63), (1, 0): 2 ** 63 - 1, (0, 1): 2 ** 63, (2, 1): 3, (1, 2): -(2 ** 63) - 1}
    x = StringyRational(BivariatePolynomial(edges), (2,))
    series = exact_poly.expand_rational(x, 4)
    assert x.numerator._flat is not None and series._flat is not None
    assert {c for _, c in series.items()} >= {2 ** 63, -(2 ** 63), 2 ** 63 + 1}
    report = {"e_st": cli._rational_json(x), "local": [cli._rational_json(x)],
              "series": cli._series_json(series, True)}
    want = json.dumps(_as_lists(report), sort_keys=True, indent=2)
    for _ in range(2):  # the second time from the kept pieces
        assert cli._json_text(report) == want
    monkeypatch.setattr(render, "_LAYOUT_MONOMIALS_CAP", 0)  # every layout too wide to keep: term by term
    assert cli._json_text(report) == want


@pytest.mark.parametrize("path", [E6, NODE], ids=["rational", "polynomial"])
def test_compute_json_builds_no_term_map(run, monkeypatch, path):
    # the numerator of a dense E_st is read back flat, and it and its
    # expansion are written from their values: neither builds a term map,
    # nor does the truncation flag of a polynomial E_st
    flat = []
    real_unpack = exact_poly._unpack
    monkeypatch.setattr(exact_poly, "_unpack", lambda packed: flat.append(real_unpack(packed)) or flat[-1])
    builds = []
    real_flat_terms = exact_poly._flat_terms
    monkeypatch.setattr(exact_poly, "_flat_terms", lambda *values: builds.append(1) or real_flat_terms(*values))
    code, out, _ = run("compute", path, "--format", "json", "--horizon", "5")
    assert code == 0 and builds == []
    (e_st,) = flat
    assert e_st._flat is not None and e_st.sorted_items() and builds == [1]
    doc = json.loads(out)
    assert doc["e_st"]["num"] == [[i, j, c] for (i, j), c in e_st.sorted_items()]
    assert doc["series"]["truncated"] is True and doc["series"]["coefficients"]
