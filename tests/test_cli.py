"""Command-line surface: determinism, config handling, exit codes."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest

import ghcs
import ghcs.cli
import ghcs.kernel
import ghcs.measure
import ghcs.quantize
import ghcs.states
import ghcs.thermal
from ghcs.cli import RunConfig, main, resolve_config, _build_parser, _write_csv
from ghcs.states import Family, FamilyParams

SRC = os.path.dirname(os.path.dirname(ghcs.__file__))


def run(argv):
    return main(argv)


def read_data_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    preamble = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return preamble, body[0], body[1:]


class TestImport:
    # a fresh `import ghcs.cli` leaves out what no command runs: scipy.linalg
    # and the P-representation module.  numpy.polynomial is loaded anyway
    # by scipy.special (its array-API layer clones numpy's namespace), so
    # for it the check is that no ghcs module the CLI loads refers to it.
    CODE = """if True:
        import json, sys, types
        import ghcs.cli
        def source(v):
            if isinstance(v, types.ModuleType):
                return v.__name__
            return getattr(v, "__module__", None) or ""
        refs = sorted(f"{name}.{key}" for name, mod in list(sys.modules.items())
                      if name.startswith("ghcs") for key, v in vars(mod).items()
                      if source(v).startswith(("numpy.polynomial", "scipy.linalg")))
        print(json.dumps({"modules": sorted(sys.modules), "refs": refs}))
    """

    def test_cli_loads_no_eigensolver_and_no_p_representation(self):
        proc = subprocess.run([sys.executable, "-c", self.CODE], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, check=True)
        got = json.loads(proc.stdout)
        assert "scipy.linalg" not in got["modules"]
        assert "ghcs.pfunction" not in got["modules"]
        assert {"ghcs.cli", "ghcs.thermal", "ghcs.measure"} <= set(got["modules"])
        assert got["refs"] == []


class TestConfig:
    def test_defaults(self):
        ns = _build_parser().parse_args(["verify"])
        cfg = resolve_config(ns)
        assert cfg.family == "bessel"
        assert cfg.m == 1 and cfg.nu == 0.5

    def test_flag_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("family=jacobi\nnu=0.7\nm=2\n# comment\n\n")
        ns = _build_parser().parse_args(
            ["verify", "--config", str(cfg_file), "--nu", "0.9"]
        )
        cfg = resolve_config(ns)
        assert cfg.family == "jacobi"
        assert cfg.m == 2
        assert cfg.nu == 0.9  # flag wins over file

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # literal_n and variant_pochhammer were settings no command needed
        cfg_file = tmp_path / "run.cfg"
        for key in ("no_such_key", "literal_n", "variant_pochhammer"):
            cfg_file.write_text(f"{key}=2\n")
            ns = _build_parser().parse_args(["verify", "--config", str(cfg_file)])
            with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
                resolve_config(ns)
            assert run(["weight", "--config", str(cfg_file), "--out", str(tmp_path / "w.csv")]) == 2
            assert capsys.readouterr().err == f"config rejected: unknown config key {key!r}\n"
        assert not (tmp_path / "w.csv").exists()

    def test_every_field_round_trips_through_the_file(self, tmp_path):
        # each value differs from the default, and "2" for a float field
        # must come back as 2.0, not as the text or an int
        values = {
            "family": "jacobi", "m": 2, "nu": 2.0, "n_max": 7, "nodes": 90,
            "tol": 1e-9, "out": "o.csv",
            "g2_convention": "conventional", "n_check": 5,
            "x": 0.25, "x_min": 0.1, "x_max": 0.9, "x_count": 11,
            "beta_min": 0.5, "beta_max": 3.0, "beta_count": 4, "z0_re": -1.5,
            "z0_im": 0.75, "t_max": 2.5, "t_count": 5, "r_max": 3.0,
            "r_count": 6, "theta_count": 7, "seed": 99,
        }
        assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}
        cfg_file = tmp_path / "all.cfg"
        cfg_file.write_text("".join(
            f"{k.replace('_', '-') if k == 'n_max' else k} = {v}\n"
            for k, v in values.items()))
        cfg = resolve_config(_build_parser().parse_args(["verify", "--config", str(cfg_file)]))
        for name, value in values.items():
            got = getattr(cfg, name)
            assert got == value and type(got) is type(getattr(RunConfig(), name)), name

    def test_bad_value_for_a_field_type_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("m=1.5\n")
        assert run(["verify", "--config", str(cfg_file)]) == 2
        assert "config rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["kernel", "verify"])
    def test_negative_seed_rejected_by_name(self, tmp_path, capsys, cmd):
        # checked before the kernel mesh draw, whose numpy error names no field
        cfg_file = tmp_path / "seed.cfg"
        cfg_file.write_text("seed=-1\n")
        out = tmp_path / "out.json"
        assert run([cmd, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config rejected: seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_invalid_nu_rejected_before_compute(self, capsys):
        assert run(["verify", "--nu", "-0.5"]) == 2
        assert "config rejected" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["beta_min=nan", "beta_max=inf", "beta_min=0",
                                      "beta_max=-1", "t_max=inf", "r_max=nan",
                                      "z0_re=nan", "z0_im=-inf", "tol=nan", "x_min=nan",
                                      "x=inf", "nu=nan"])
    @pytest.mark.parametrize("cmd", ["thermal", "verify", "evolve", "weight"])
    def test_bad_beta_rejected_before_compute(self, tmp_path, capsys, monkeypatch, cmd, line):
        # every float field is checked by name before any command runs, so
        # no command computes on a bad value or blames a later step for it
        monkeypatch.setattr(ghcs.thermal, "_boltzmann", None)  # never reached
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n")
        out = tmp_path / "out"
        assert run([cmd, "--config", str(cfg_file), "--out", str(out)]) == 2
        key, value = line.split("=")
        expected = (f"{key} must be finite, got {float(value)!r}" if not math.isfinite(float(value))
                    else "beta_min and beta_max must be positive")
        assert capsys.readouterr().err == f"config rejected: {expected}\n"
        assert not out.exists()

    def test_echo_contains_version_and_config(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["weight", "--out", str(out)]) == 0
        preamble, header, _ = read_data_rows(out)
        assert header == "x,W,m,nu,variant"
        joined = "\n".join(preamble)
        assert "ghcs_version=" in joined
        assert "family=" in joined


def _format_rows(rows):
    """The rows as the str.format template wrote them, types picked from
    the first row: the oracle of `_write_csv`."""
    specs = ["{:.16e}" if isinstance(v, (float, np.floating))
             else "{:d}" if isinstance(v, (int, np.integer)) else "{}" for v in rows[0]]
    return [",".join(specs).format(*row) for row in rows]


class TestCsvWriter:
    def test_same_bytes_as_the_str_format_template(self, tmp_path):
        floats = [0.0, -0.0, 1.0, -1.0, math.pi, -math.e * 1e-300, 5e-324, 1.7976931348623157e308,
                  math.nan, -math.nan, math.inf, -math.inf, 0.1, 1e16, 123456789.123456789,
                  np.float64(2.5), np.float64(-0.0), np.float64(math.nan), np.float32(0.1),
                  np.float64(-math.inf)]
        ints = [0, -1, 7, 2**70, np.int64(-5), np.int32(3), np.uint8(255), True]
        rows = [(f, i, "literal-n2", f) for f, i in zip(floats, ints * 3)]
        rows.append((3, 4, "x", -2))  # float columns that receive ints
        rows.append([np.float64(1.5), np.int64(2), "jacobi", 0])
        out = tmp_path / "rows.csv"
        _write_csv(str(out), RunConfig(), "a,b,c,d", rows)
        lines = out.read_text().splitlines()
        got = lines[lines.index("a,b,c,d") + 1:]
        assert got == _format_rows(rows)
        assert got[1] == "-0.0000000000000000e+00,-1,literal-n2,-0.0000000000000000e+00"
        assert got[8] == "nan,0,literal-n2,nan" and got[11] == "-inf,%d,literal-n2,-inf" % 2**70
        assert got[-2] == "3.0000000000000000e+00,4,x,-2.0000000000000000e+00"

    def test_header_only_without_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        _write_csv(str(out), RunConfig(), "a,b", [])
        assert out.read_text().splitlines()[-1] == "a,b"


class TestJsonWriter:
    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    @pytest.mark.parametrize("cmd", ["verify", "kernel", "quantize"])
    def test_one_line_parses_to_the_indented_document(self, tmp_path, monkeypatch, cmd, family):
        # each JSON artifact is one line from json's C encoder; it differs
        # from the indent=2 text of the same document only in whitespace,
        # and parses to the same document
        dumps, docs = json.dumps, []
        monkeypatch.setattr(json, "dumps", lambda doc, **kw: docs.append(doc) or dumps(doc, **kw))
        out = tmp_path / "a.json"
        assert run([cmd, "--family", family, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        indented = dumps(docs[0], indent=2, sort_keys=True, default=float, allow_nan=False) + "\n"
        assert text.endswith("}\n") and text.count("\n") == 1
        assert "".join(text.split()) == "".join(indented.split())
        assert json.loads(text) == json.loads(indented)


class TestWeight:
    def test_deterministic_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["weight"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_caption_regimes_present(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["weight", "--out", str(out)]) == 0
        _, _, rows = read_data_rows(out)
        cells = [r.split(",") for r in rows]
        ms = {c[2] for c in cells}
        nus = {c[3] for c in cells}
        tags = {c[4] for c in cells}
        assert {"0", "1", "2", "3"} <= ms
        assert len(nus) >= 4
        assert {"literal-n0", "literal-n1", "literal-n2", "literal-n3"} <= tags

    def test_nonnegative_weight_column(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(["weight", "--out", str(out)]) == 0
        _, _, rows = read_data_rows(out)
        assert all(float(r.split(",")[1]) >= -1e-12 for r in rows)

    def test_empty_grid_gives_header_only(self, tmp_path):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("x_count=0\n")
        out = tmp_path / "w.csv"
        assert run(["weight", "--config", str(cfg_file), "--out", str(out)]) == 0
        _, header, rows = read_data_rows(out)
        assert header == "x,W,m,nu,variant"
        assert rows == []

    @staticmethod
    def _scan_oracle(tmp_path, family, grid_text):
        """Write `weight` on the grid; return its bytes and those `_write_csv`
        writes from the `figure1_scan` rows (`_row_template` per row)."""
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text(grid_text)
        argv = ["weight", "--family", family, "--config", str(cfg_file)]
        out, expected = tmp_path / "w.csv", tmp_path / "expected.csv"
        assert run(argv + ["--out", str(out)]) == 0
        cfg = resolve_config(_build_parser().parse_args(argv))
        rows = ghcs.measure.figure1_scan(ghcs.cli._weight_curves(Family(family)),
                                         np.linspace(cfg.x_min, cfg.x_max, cfg.x_count))
        _write_csv(str(expected), cfg, "x,W,m,nu,variant", rows)
        return out.read_bytes(), expected.read_bytes(), rows

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    @pytest.mark.parametrize("grid_text, count", [
        ("", 49),  # the defaults
        ("x_min=0\nx_max=1.25\nx_count=26\n", 26),  # x = 0, and jacobi x = 1 and beyond
        ("x_min=0.013\nx_max=0.987\nx_count=66\n", 66),
        ("x_min=0.5\nx_max=0.5\nx_count=1\n", 1),
        ("x_count=0\n", 0),
    ])
    def test_bytes_are_the_row_template_of_the_scan(self, tmp_path, family, grid_text, count):
        got, expected, rows = self._scan_oracle(tmp_path, family, grid_text)
        assert got == expected
        assert len(rows) == 19 * count
        if "x_max=1.25" in grid_text and family == "jacobi":
            assert all(row[1] == 0.0 for row in rows if row[0] >= 1.0)
            assert b"\n1.0000000000000000e+00,0.0000000000000000e+00," in got

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    def test_inf_cells_at_the_origin_for_b_at_most_one(self, tmp_path, monkeypatch, family):
        # the figure's curves all have b = 2m + 2nu > 1; add b = 0.6 and b = 1
        fam = Family(family)
        extra = [ghcs.measure.WeightCurve(FamilyParams(0, nu, fam), variant, 2)
                 for nu in (0.3, 0.5) for variant in ("literal", "canonical")]
        default = ghcs.cli._weight_curves
        monkeypatch.setattr(ghcs.cli, "_weight_curves", lambda f: default(f) + extra)
        got, expected, rows = self._scan_oracle(tmp_path, family, "x_min=0\nx_max=0.5\nx_count=3\n")
        assert got == expected
        assert [row[1] for row in rows if row[0] == 0.0][-4:] == [math.inf] * 4
        assert b"\n0.0000000000000000e+00,inf,0," in got

    @pytest.mark.parametrize("family, distinct", [("bessel", 7), ("jacobi", 17)])
    def test_each_distinct_column_formatted_once(self, tmp_path, monkeypatch, family, distinct):
        # 19 curves share 7 (bessel) or 17 (jacobi) W lists: one call for
        # the x cells, then one per distinct W list
        calls = []
        cells = ghcs.cli._float_cells
        monkeypatch.setattr(ghcs.cli, "_float_cells",
                            lambda values: calls.append(values) or cells(values))
        assert run(["weight", "--family", family, "--out", str(tmp_path / "w.csv")]) == 0
        assert len(calls) == 1 + distinct
        assert len({id(values) for values in calls}) == 1 + distinct
        assert calls[0] == np.linspace(0.02, 0.98, 49).tolist()
        assert all(len(values) == 49 for values in calls)

    def test_series_budget_exit_code(self, tmp_path):
        # the canonical jacobi N(x) needs more than the 20000-term budget at
        # x = 0.999: exit 3 with one stderr line, no traceback
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("x_max=0.999\n")
        proc = subprocess.run(
            [sys.executable, "-m", "ghcs.cli", "weight", "--family", "jacobi",
             "--config", str(cfg_file), "--out", str(tmp_path / "w.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "budget ran out: jacobi normalization series did not converge "
            "within 20000 terms at x = 0.999\n"
        )

    def test_series_budget_exit_code_past_the_euler_cut(self, tmp_path, capsys):
        # above x = 0.998 the canonical jacobi N is the series again, so it
        # still runs out of budget at x = 0.9995
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("x_min=0.9995\nx_max=0.9995\nx_count=1\n")
        assert run(["weight", "--family", "jacobi", "--config", str(cfg_file),
                    "--out", str(tmp_path / "w.csv")]) == 3
        assert capsys.readouterr().err == (
            "budget ran out: jacobi normalization series did not converge "
            "within 20000 terms at x = 0.9995\n"
        )


    def test_ratio_recurrence_budget_exit_code(self, tmp_path, capsys):
        # bessel expect at b = 500, x = 3.7e9 lies below scipy ive's
        # large-argument regime (from x = 501^4 / 16 = 3.9e9) and needs the
        # 0F1 ratio recurrence deeper than its 1600-level budget: the line
        # names the recurrence, not a series
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("m=0\nnu=250\nx_min=3.7e9\nx_max=3.7e9\nx_count=1\n")
        assert run(["expect", "--family", "bessel", "--config", str(cfg_file),
                    "--out", str(tmp_path / "e.csv")]) == 3
        assert capsys.readouterr().err == (
            "budget ran out: 0F1(500.0; x) ratios did not converge within 1600 steps "
            "at x = 3700000000.0\n"
        )


class TestFloatRange:
    def test_float_range_exit_code(self, tmp_path):
        # bessel N(|z|^2) overflows near |z| = 346: exit 3 with one stderr
        # line, no traceback (exit 1 is kept for a failed check)
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("r_max=400\n")
        proc = subprocess.run(
            [sys.executable, "-m", "ghcs.cli", "evolve", "--config", str(cfg_file),
             "--out", str(tmp_path / "e.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("float range exceeded: ")
        assert proc.stderr.count("\n") == 1 and "400" in proc.stderr

    def test_state_norm_overflow_raises_only_its_typed_error(self, tmp_path, capsys):
        # numpy must not warn before the OverflowError: under -W error a
        # warning would turn exit 3 into a traceback and exit 1
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("z0_re=400.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--family", "bessel", "--config", str(cfg_file),
                        "--out", str(tmp_path / "e.csv")]) == 3
        assert capsys.readouterr().err.startswith("float range exceeded: ")

    @pytest.mark.parametrize("cmd, lines, x", [
        ("verify", "x=2e5\n", "200000.0"),
    ])
    def test_normalization_past_the_float_range(self, tmp_path, capsys, cmd, lines, x):
        # bessel N(x) passes the float range near x = 1.3e5: exit 3 naming
        # the family and the first configured x that does, not verify's
        # finite-difference argument x e^h
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text(lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([cmd, "--family", "bessel", "--config", str(cfg_file),
                        "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == (
            f"float range exceeded: the bessel normalization passes the float range at x = {x}\n")

    def test_bessel_weight_past_the_float_range_of_n(self, tmp_path, capsys):
        # W = 2 I K stays finite where N passes the float range (x = 1.3e5),
        # matches mpmath and tends to 1 / (2 sqrt x)
        cfg_file = tmp_path / "n.cfg"
        cfg_file.write_text("x_min=1e5\nx_max=1e12\nx_count=8\n")
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["weight", "--family", "bessel", "--config", str(cfg_file),
                        "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, rows = read_data_rows(out)
        assert len(rows) == 19 * 8
        with mp.workdps(20):
            for row in rows:
                x, w, m, nu = (float(cell) for cell in row.split(",")[:4])
                t, order = 2 * mp.sqrt(x), 2 * m + 2 * mp.mpf(nu) - 1
                assert math.isfinite(w)
                assert abs(w / (2 * mp.besseli(order, t) * mp.besselk(order, t)) - 1) <= 2e-13
                assert abs(w * 2.0 * math.sqrt(x) - 1.0) <= 1e-4

    def test_identity_rows_past_the_float_range_pass_verify(self, tmp_path, capsys):
        # h_n^2 overflows from n = 98: with every warning an error, verify
        # passes, stderr is empty and every rel_error is finite
        cfg_file = tmp_path / "v.cfg"
        cfg_file.write_text("n_check=200\n")
        out = tmp_path / "v.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["verify", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

        def strict(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        doc = json.loads(out.read_text(), parse_constant=strict)
        cert = doc["results"]["checks"]["identity_moments"]
        assert cert["passed"] is True and cert["diagnosis"] is None
        assert len(cert["moments"]) == 201
        assert all(math.isfinite(r["rel_error"]) for r in cert["moments"])
        # computed and target are null exactly where h_n^2 leaves the float range
        past = [r["order"] for r in cert["moments"] if r["target"] is None]
        assert past == list(range(98, 201))
        assert all(r["computed"] is None for r in cert["moments"] if r["order"] in past)


    def test_a_non_finite_payload_value_is_a_float_range_error(self, tmp_path, capsys,
                                                               monkeypatch):
        # a NaN or inf from the library is not the configuration's fault:
        # the JSON writer names the first one in the written order (absz2
        # before zbar) and exits 3, writing nothing
        ladder_report = ghcs.quantize._ladder_report

        def poisoned(*args):
            quads, report = ladder_report(*args)
            report["symbols"]["zbar"]["max_abs_quadrature_vs_h_ratio"] = math.nan
            report["symbols"]["absz2"]["max_rel_quadrature_vs_literature"] = -math.inf
            return quads, report

        monkeypatch.setattr(ghcs.quantize, "_ladder_report", poisoned)
        out = tmp_path / "q.json"
        assert run(["quantize", "--family", "bessel", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "float range exceeded: results.discrepancy.symbols.absz2."
            "max_rel_quadrature_vs_literature = -inf is not a finite float\n")
        assert not out.exists()

    def test_bessel_quantize_to_n_max_1000_warns_nothing(self, tmp_path, capsys):
        # the literature-over-quadrature quotient is formed for the 6
        # leading entries it reports: further along the band it passes the
        # float range, which warned (an error under -W error)
        out = tmp_path / "q.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["quantize", "--family", "bessel", "--nmax", "1000",
                        "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())["results"]["discrepancy"]
        for entry in report["symbols"].values():
            ratios = entry["literature_over_quadrature_leading"]
            assert len(ratios) == 6 and all(math.isfinite(r) for r in ratios)


class TestExpect:
    def test_vacuum_grid_point_is_a_rejected_config(self, tmp_path):
        # g2 is 0/0 at x = 0: exit 2 with one stderr line, no traceback
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("x_min=0.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "ghcs.cli", "expect", "--config", str(cfg_file),
             "--out", str(tmp_path / "e.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "config rejected: g2 is undefined in the vacuum state (x = 0), "
            "where <N> = <N^2> = 0\n"
        )

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    def test_rows_are_the_per_x_values(self, tmp_path, family):
        # one whole-grid pass per moment writes each point's scalar values
        out = tmp_path / "e.csv"
        assert run(["expect", "--family", family, "--out", str(out)]) == 0
        _, _, rows = read_data_rows(out)
        params = RunConfig(family=family).params()
        grid = np.linspace(0.02, 0.98, 49).tolist()
        assert len(rows) == len(grid)
        for row, x in zip(rows, grid):
            ref = (x, *ghcs.thermal.in_state_stats(params, x))
            assert row == ",".join("%.16e" % v for v in ref)

    def test_jacobi_grid_above_the_cap_rejected(self, tmp_path, capsys):
        # the 0.998 cap would turn x_min = 0.999, x_max = 0.9995 into a
        # descending grid past the cap
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("x_min=0.999\nx_max=0.9995\n")
        out = tmp_path / "e.csv"
        assert run(["expect", "--family", "jacobi", "--config", str(cfg_file),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config rejected: x_min = 0.999 is above the jacobi expect cap")
        assert "0.998" in err and not out.exists()
        # bessel has no cap
        assert run(["expect", "--family", "bessel", "--config", str(cfg_file),
                    "--out", str(out)]) == 0

    def test_jacobi_x_max_above_the_cap_is_clamped_with_a_note(self, tmp_path, capsys):
        # the grid stops at the cap, the echo keeps the configured x_max,
        # and one stderr line names both
        outs = {}
        for x_max in ("0.9995", "0.998"):
            cfg_file = tmp_path / f"{x_max}.cfg"
            cfg_file.write_text(f"x_min=0.99\nx_max={x_max}\nx_count=5\n")
            outs[x_max] = tmp_path / f"{x_max}.csv"
            assert run(["expect", "--family", "jacobi", "--config", str(cfg_file),
                        "--out", str(outs[x_max])]) == 0
            assert capsys.readouterr().err == (
                "expect: jacobi x_max = 0.9995 clamped to the cap x <= 0.998\n"
                if x_max == "0.9995" else "")
        clamped, capped = (read_data_rows(outs[k]) for k in ("0.9995", "0.998"))
        assert "# x_max=0.9995" in clamped[0]
        assert clamped[1:] == capped[1:]
        assert len(clamped[2]) == 5 and clamped[2][-1].startswith("9.98000000")

    @pytest.mark.parametrize("m, nu", [(0, 0.02), (3, 2.5), (12, 5.0)])  # a = 17: the series
    def test_jacobi_grid_to_the_cap(self, tmp_path, m, nu):
        # every row finite up to the cap, on both sides of the largest
        # closed-form a = m + nu = 6
        cfg_file = tmp_path / "e.cfg"
        cfg_file.write_text("x_min=0.9\nx_max=0.998\nx_count=64\n")
        out = tmp_path / "e.csv"
        assert run(["expect", "--family", "jacobi", "--m", str(m), "--nu", str(nu),
                    "--config", str(cfg_file), "--out", str(out)]) == 0
        _, _, rows = read_data_rows(out)
        cells = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert cells.shape == (64, 5) and np.isfinite(cells).all()
        assert cells[-1, 0] == 0.998


class TestGridValidation:
    @pytest.mark.parametrize("cmd", ["weight", "expect", "verify"])
    def test_descending_x_grid_rejected(self, tmp_path, capsys, cmd):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("x_min=0.9\nx_max=0.1\n")
        out = tmp_path / "out"
        assert run([cmd, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config rejected: x_min = 0.9 is above x_max = 0.1\n")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["weight", "expect"])
    def test_negative_point_count_rejected(self, tmp_path, capsys, cmd):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("x_count=-4\n")
        out = tmp_path / "out.csv"
        assert run([cmd, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config rejected: x_count must be non-negative, got -4\n")
        assert not out.exists()

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    def test_single_point_and_empty_grids_still_written(self, tmp_path, family):
        for text, count in (("x_min=0.5\nx_max=0.5\nx_count=1\n", 1), ("x_count=0\n", 0)):
            cfg_file = tmp_path / "g.cfg"
            cfg_file.write_text(text)
            for cmd in ("weight", "expect"):
                out = tmp_path / f"{cmd}.csv"
                assert run([cmd, "--family", family, "--config", str(cfg_file),
                            "--out", str(out)]) == 0
                _, _, rows = read_data_rows(out)
                xs = {row.split(",")[0] for row in rows}
                assert xs == ({"5.0000000000000000e-01"} if count else set())
                if cmd == "expect":
                    assert len(rows) == count


class TestParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_reuse_keeps_parses_independent(self):
        ns = _build_parser().parse_args(["weight", "--m", "3"])
        assert ns.m == 3
        ns = _build_parser().parse_args(["verify"])
        assert ns.cmd == "verify" and ns.m is None

    def test_usage_error_still_exits_2(self, capsys):
        for argv in (["nope"], ["weight", "--m", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_nine_flags_per_subcommand(self):
        flags = {"--family", "--m", "--nu", "--nmax", "--nodes", "--tol", "--out",
                 "--g2-convention", "--config"}
        sub = next(a for a in _build_parser()._actions if a.dest == "cmd")
        for name, parser in sub.choices.items():
            got = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            assert got == flags, name


class TestVerify:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["passed"] is True
        assert doc["config"]["ghcs_version"]
        checks = doc["results"]["checks"]
        assert set(checks) == {"identity_moments", "kernel", "quantization", "thermal"}

    def test_jacobi_passes(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "--family", "jacobi", "--out", str(out)]) == 0

    def test_under_resolved_fails_with_diagnosis(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = run(
            ["verify", "--tol", "1e-14", "--nodes", "50", "--out", str(out)]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["results"]["passed"] is False
        assert "quadrature_insufficient" in str(doc["results"]["failed_checks"])
        assert "FAIL" in capsys.readouterr().err

    def test_descending_beta_grid_passes(self, tmp_path):
        # beta_min = 3 > beta_max = 2 lists the grid backwards; <N> is
        # compared in order of increasing beta, where it falls
        cfg_file = tmp_path / "beta.cfg"
        cfg_file.write_text("beta_min=3.0\n")
        out = tmp_path / "v.json"
        assert run(["verify", "--family", "jacobi", "--config", str(cfg_file),
                    "--out", str(out)]) == 0
        thermal = json.loads(out.read_text())["results"]["checks"]["thermal"]
        assert thermal["mean_monotone_in_beta"] is True and thermal["passed"] is True

    @pytest.mark.parametrize("count", [0, 1])
    def test_short_beta_grid_rejected(self, tmp_path, capsys, count):
        # an empty grid passes every thermal check vacuously, and one beta
        # leaves the monotonicity check nothing to compare
        cfg_file = tmp_path / "beta.cfg"
        cfg_file.write_text(f"beta_count={count}\n")
        out = tmp_path / "v.json"
        assert run(["verify", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config rejected: beta_count must be at least 2 for verify, got {count}\n")
        assert not out.exists()

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    def test_kernel_block_on_the_mesh(self, tmp_path, family):
        # hermiticity and the diagonal are read from the idempotence mesh's
        # rows and the Gram diagonal: the same products either way round,
        # and each state divided by its own norm
        out = tmp_path / "v.json"
        for m in range(4):
            for nu in (0.1, 0.61, 2.3):
                assert run(["verify", "--family", family, "--m", str(m), "--nu", str(nu),
                            "--out", str(out)]) == 0
                block = json.loads(out.read_text())["results"]["checks"]["kernel"]
                assert set(block) == {"passed", "hermiticity_worst", "diagonal_worst",
                                      "idempotence_worst", "gram_min_eigenvalue"}
                assert block["passed"] is True
                assert block["hermiticity_worst"] == 0.0
                assert block["diagonal_worst"] <= 1e-15

    def test_discrepancies_are_not_failures(self, tmp_path):
        # the closed-form deviation for the jacobi family is informational
        out = tmp_path / "v.json"
        assert run(["verify", "--family", "jacobi", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        rep = doc["results"]["checks"]["quantization"]["report"]
        assert rep["all_provenances_agree"] is False


class TestOtherCommands:
    def test_evolve_family_gate(self):
        assert run(["evolve", "--family", "jacobi"]) == 2

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    def test_evolve_without_rotation_asks_for_t_max(self, family, capsys):
        # m = 0, nu = 0.5: 2m + 2nu - 1 = 0, so one rotation period is infinite
        assert run(["evolve", "--family", family, "--m", "0", "--nu", "0.5"]) == 2
        assert capsys.readouterr().err == ("config rejected: t_max must be set where "
                                           "2m + 2nu - 1, the rotation frequency, is 0\n")

    @pytest.mark.parametrize("cmd", ["verify", "quantize", "kernel"])
    @pytest.mark.parametrize("family, m, nu", [("jacobi", 1, 0.5), ("bessel", 0, 0.2),
                                               ("bessel", 1, 0.5)])
    def test_fewer_than_eight_nodes_are_rejected(self, cmd, family, m, nu, tmp_path, capsys):
        out = tmp_path / "out.json"
        for nodes in ("1", "7"):
            assert run([cmd, "--family", family, "--m", str(m), "--nu", str(nu),
                        "--nodes", nodes, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config rejected: n_nodes must be at least 8 (or 0 for the default), "
                f"got {nodes}\n")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["expect", "verify", "weight", "kernel"])
    def test_a_non_finite_b_is_rejected(self, cmd, tmp_path, capsys):
        # nu = 1e308 is a finite float, but b = 2m + 2nu is not
        out = tmp_path / "out"
        assert run([cmd, "--family", "bessel", "--nu", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config rejected: 2m + 2nu must be finite\n"
        assert not out.exists()

    def test_evolve_rows(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--out", str(out)]) == 0
        _, header, rows = read_data_rows(out)
        assert header == "r,theta,t,rho_formula,rho_raw"
        t0_rows = [r.split(",") for r in rows if float(r.split(",")[2]) == 0.0]
        assert t0_rows
        for cells in t0_rows:
            assert abs(float(cells[3]) - float(cells[4])) < 1e-9
        assert all(0.0 <= float(r.split(",")[3]) <= 1.0 + 1e-12 for r in rows)

    def test_evolve_zero_radii_rejected(self, tmp_path):
        cfg_file = tmp_path / "r0.cfg"
        cfg_file.write_text("r_count=0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "ghcs.cli", "evolve", "--config", str(cfg_file),
             "--out", str(tmp_path / "e.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2
        assert proc.stderr == "config rejected: r_count must be positive\n"
        assert not (tmp_path / "e.csv").exists()

    def test_evolve_empty_angle_grid_gives_header_only(self, tmp_path):
        cfg_file = tmp_path / "th0.cfg"
        cfg_file.write_text("theta_count=0\n")
        out = tmp_path / "e.csv"
        assert run(["evolve", "--config", str(cfg_file), "--out", str(out)]) == 0
        _, header, rows = read_data_rows(out)
        assert header == "r,theta,t,rho_formula,rho_raw"
        assert rows == []

    def test_evolve_no_time_slices_gives_header_only(self, tmp_path):
        # t_count = 0 was raised to one slice while the echo read t_count=0
        cfg_file = tmp_path / "t0.cfg"
        cfg_file.write_text("t_count=0\n")
        out = tmp_path / "e.csv"
        assert run(["evolve", "--config", str(cfg_file), "--out", str(out)]) == 0
        preamble, header, rows = read_data_rows(out)
        assert "# t_count=0" in preamble
        assert header == "r,theta,t,rho_formula,rho_raw"
        assert rows == []

    @pytest.mark.parametrize("cmd, field", [
        ("weight", "x_count"), ("thermal", "beta_count"), ("verify", "beta_count"),
        ("evolve", "t_count"), ("evolve", "r_count"), ("evolve", "theta_count"),
    ])
    def test_negative_count_rejected_by_name(self, tmp_path, capsys, cmd, field):
        cfg_file = tmp_path / "neg.cfg"
        cfg_file.write_text(f"{field}=-1\n")
        out = tmp_path / "out"
        assert run([cmd, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config rejected: {field} must be non-negative, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("r_max", ["0", "-1"])
    def test_evolve_nonpositive_radius_rejected(self, tmp_path, capsys, r_max):
        # r_max = -1 wrote radii -0.25 ... -1, and r_max = 0 all zero
        cfg_file = tmp_path / "r.cfg"
        cfg_file.write_text(f"r_max={r_max}\n")
        out = tmp_path / "e.csv"
        assert run(["evolve", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config rejected: r_max must be positive\n"
        assert not out.exists()

    def test_thermal_header(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["thermal", "--out", str(out)]) == 0
        _, header, rows = read_data_rows(out)
        assert header == (
            "beta,mu,Z,N_oracle,N2_oracle,g2_oracle,Q_oracle,"
            "N_paper,N2_paper,g2_paper,Q_paper"
        )
        assert len(rows) == 10

    def test_quantize_json(self, tmp_path):
        out = tmp_path / "q.json"
        assert run(["quantize", "--family", "jacobi", "--nmax", "8",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        mats = doc["results"]["matrices"]
        assert {m["symbol"] for m in mats} == {"z", "zbar", "absz2"}
        assert all(m["provenance"] == "quadrature" for m in mats)

    def test_expect_csv(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["expect", "--family", "jacobi", "--out", str(out)]) == 0
        _, header, rows = read_data_rows(out)
        assert header == "x,N_mean,N2_mean,g2,mandel_q"
        assert len(rows) == 49

    def test_kernel_json(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["hermiticity_worst"] < 1e-12
        assert doc["results"]["gram_min_eigenvalue"] >= -1e-9

    @pytest.mark.parametrize("cmd, pairs", [("verify", 9), ("kernel", 25)])
    def test_one_idempotence_call_per_run(self, tmp_path, monkeypatch, cmd, pairs):
        # the residuals of the whole mesh come from one call of the formula
        # that `kernel.check_idempotence` also reads
        calls = []
        inner = ghcs.kernel._idempotence_residuals

        def counted(params, m1, m2, rule=None):
            calls.append(len(m1.n_max))
            return inner(params, m1, m2, rule)

        monkeypatch.setattr(ghcs.kernel, "_idempotence_residuals", counted)
        assert run([cmd, "--out", str(tmp_path / "out.json")]) == 0
        assert calls == [pairs]


class TestWorkCounts:
    """Deterministic work counts in place of timings: the report path builds
    each label's state once and each (params, nodes) rule once."""

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    @pytest.mark.parametrize("nodes", [[], ["--nodes", "200"]], ids=["default", "200"])
    def test_verify_kernel_quantize_build_once(self, tmp_path, monkeypatch, family, nodes):
        built = []
        build = ghcs.states._build_rows

        def counted(params, zs, n_max):
            built.append([(z.real, z.imag, math.copysign(1.0, z.real),
                           math.copysign(1.0, z.imag)) for z in zs])
            return build(params, zs, n_max)

        monkeypatch.setattr(ghcs.states, "_build_rows", counted)
        ghcs.measure._cached_rule.cache_clear()
        for cmd, batches, grams in (("verify", [9, 9], 6), ("kernel", [25, 25], 6),
                                    ("quantize", [], 0)):
            built.clear()
            argv = [cmd, "--family", family, "--m", "2", "--nu", "0.61", *nodes]
            assert run([*argv, "--out", str(tmp_path / f"{cmd}.json")]) == 0
            # the kernel checks build their mesh pairs' two sides in two
            # calls and each Gram label once on its own, no build holds a
            # label twice, and no label built on its own is built again (at
            # a second truncation or in a batch); the mesh's two sides
            # share a few labels, each built once per side
            assert [len(b) for b in built if len(b) > 1] == batches
            singles = [b[0] for b in built if len(b) == 1]
            assert len(singles) == grams
            assert all(len(set(b)) == len(b) for b in built)
            batched = {key for b in built if len(b) > 1 for key in b}
            assert len(set(singles)) == len(singles) and batched.isdisjoint(singles)
        # verify, kernel and quantize share one rule
        assert ghcs.measure._cached_rule.cache_info().misses == 1
        assert ghcs.measure._cached_rule.cache_info().hits == 2

    def test_quantize_builds_each_operator_once(self, tmp_path, monkeypatch):
        # the matrices and the discrepancy report read one set of z, zbar
        # and |z|^2 operators
        calls = []
        inner = ghcs.quantize.quantize_symbol
        monkeypatch.setattr(ghcs.quantize, "quantize_symbol",
                            lambda *a: calls.append(a[1].tag) or inner(*a))
        assert run(["quantize", "--out", str(tmp_path / "q.json")]) == 0
        assert calls == ["z", "zbar", "absz2"]

    @pytest.mark.parametrize("family", ["bessel", "jacobi"])
    def test_kernel_checks_build_only_the_mesh_and_gram_labels(self, tmp_path, monkeypatch,
                                                               family):
        # the two mesh sides (3 x 3 or 5 x 5 pairs) and the 6 Gram labels
        built = []
        build = ghcs.states._build_rows

        def counted(params, zs, n_max):
            built.append(len(zs))
            return build(params, zs, n_max)

        monkeypatch.setattr(ghcs.states, "_build_rows", counted)
        for cmd, labels in (("verify", 24), ("kernel", 56)):
            built.clear()
            assert run([cmd, "--family", family, "--out", str(tmp_path / "out.json")]) == 0
            assert sum(built) == labels


class TestVariantFlag:
    """Jacobi states use the one coefficient (-m-n-nu)_n: the flag that
    chose another is gone, so it is a usage error whatever its value."""

    def test_bad_variant_value_rejected(self, capsys):
        for value in ("bogus", "canonical", "two-nu"):
            with pytest.raises(SystemExit) as exc:
                run(["expect", "--family", "jacobi", "--variant-pochhammer", value])
            assert exc.value.code == 2
            assert "unrecognized arguments: --variant-pochhammer" in capsys.readouterr().err


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class TestArtifactHashes:
    def test_one_line_per_command_and_family(self, tmp_path, capsys):
        tool = _load_tool("artifact_hashes")
        assert tool.main([str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13  # 7 commands x 2 families, evolve bessel only

        def strict(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        for line in lines:
            cmd, family, digest = line.split()
            ext = "csv" if cmd in ("weight", "expect", "evolve", "thermal") else "json"
            data = (tmp_path / f"{cmd}-{family}.{ext}").read_bytes()
            assert digest == hashlib.sha256(data).hexdigest()
            if ext == "json":
                json.loads(data, parse_constant=strict)
        # a second run in a fresh directory writes the same 13 artifacts
        assert tool.main([str(tmp_path / "again")]) == 0
        assert capsys.readouterr().out.splitlines() == lines


class TestOpHashes:
    def test_one_line_per_op_and_exact_bits(self, capsys):
        tool = _load_tool("op_hashes")
        assert tool.main(["1", "--seconds", "0.01"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # one whole block of each workload: 32 label-batch and 64 moment-scan ops
        keys = [tuple(line.split()[:3]) for line in lines]
        assert keys == ([("label-batch", "1", str(i)) for i in range(32)]
                        + [("moment-scan", "1", str(i)) for i in range(64)])
        assert tool.main(["1", "--seconds", "0.01"]) == 0
        assert capsys.readouterr().out.splitlines() == lines
        # signed zeros and errors hash apart
        ok, err = tool.ops.Outcome(value=(0.0, [-0.0])), tool.ops.Outcome(error="E: x")
        assert tool.op_hash(ok) != tool.op_hash(tool.ops.Outcome(value=(0.0, [0.0])))
        assert tool.op_hash(err) != tool.op_hash(tool.ops.Outcome(error="E: y"))


class TestArtifactDiff:
    def test_counts_numbers_and_lists_other_changes(self, tmp_path, capsys):
        tool = _load_tool("artifact_diff")
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        (a / "w.csv").write_text("# m=1\nx,W,tag\n0.5,2.0,c\n1.0,4.0,c\n")
        (b / "w.csv").write_text("# m=2\nx,W,tag\n0.5,2.5,c\n1.0,4.0,l\n")
        doc = {"passed": True, "rows": [{"rel": 1e-16}, {"rel": 0.0}], "n": 3}
        (a / "v.json").write_text(json.dumps(doc))
        doc.update(passed=False, rows=[{"rel": 3e-16}, {"rel": 0.0}])
        (b / "v.json").write_text(json.dumps(doc))
        (a / "same.json").write_text('{"x": 1.5}')
        (b / "same.json").write_text('{"x": 1.5}')
        (b / "new.csv").write_text("x\n1\n")
        assert tool.main([str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "new.csv: only in B",
            "same.json: identical",
            "v.json: 1 numbers changed, max abs 2e-16, max rel 2",
            "  $.passed: True -> False",
            "w.csv: 1 numbers changed, max abs 0.5, max rel 0.25",
            "  preamble m: '1' -> '2'",
            "  data line 3 cell 3: 'c' -> 'l'",
        ]
        assert tool.main([str(a), str(a)]) == 0

    def test_data_lines_align_after_the_preamble(self, tmp_path, capsys):
        # the same data under a preamble one line shorter: no number changes
        tool = _load_tool("artifact_diff")
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        data = "x,W\n0.5,2.0\n1.0,4.0\n"
        (a / "w.csv").write_text("# literal_n=2\n# m=1\n# note\n" + data)
        (b / "w.csv").write_text("# m=1\n# note\n" + data)
        assert tool.main([str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "w.csv: 0 numbers changed, max abs 0, max rel 0",
            "  preamble literal_n: '2' -> None",
        ]
        (b / "w.csv").write_text("# literal_n=2\n# m=1\n" + data)
        assert tool.main([str(a), str(b)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "w.csv: 0 numbers changed, max abs 0, max rel 0",
            "  preamble # note: '# note' -> None",
        ]


class TestAbTool:
    def test_report_counts_wins_in_each_metric_direction(self, capsys):
        tool = _load_tool("ab")
        spec = [{"name": "ops_per_s", "better": "higher"}, {"name": "op_p50_s", "better": "lower"}]

        def result(ops, p50):
            return {"metrics": {"ops_per_s": {"value": ops}, "op_p50_s": {"value": p50}},
                    "attempted": 10, "failed": 1, "correct": True}

        # B/A ratios 1.1, 0.9, 1.2 and 0.5, 1.0, 1.5; a tie counts for neither
        tool.report("w", spec, [(1, result(100.0, 2.0), result(110.0, 1.0)),
                                (2, result(100.0, 2.0), result(90.0, 2.0)),
                                (3, result(100.0, 2.0), result(120.0, 3.0))])
        lines = capsys.readouterr().out.splitlines()
        ops = next(ln for ln in lines if ln.split()[:1] == ["ops_per_s"]).split()
        p50 = next(ln for ln in lines if ln.split()[:1] == ["op_p50_s"]).split()
        assert ops[-3:] == ["1.1000", "2/3", "0.00%"]
        assert p50[-3:] == ["1.0000", "1/3", "0.00%"]
        assert "seed 3: attempted 10/10, failed 1/1, correct True/True" in lines[-1]

    def test_runs_every_declared_workload_by_default(self, monkeypatch, capsys):
        tool = _load_tool("ab")
        names = ["report-sweep", "label-batch", "moment-scan"]
        runs = []

        def export(rev, dest):
            os.makedirs(dest)
            with open(os.path.join(dest, "BENCHMARK.json"), "w") as fh:
                json.dump({"end_to_end": [], "workloads": [{"name": n} for n in names]}, fh)
            return rev

        monkeypatch.setattr(tool, "export", export)
        monkeypatch.setattr(tool, "bench", lambda tree, workload, seed, seconds, out: (
            runs.append((workload, seed)) or {"attempted": 1, "failed": 0, "correct": True}))
        monkeypatch.setattr(tool, "hashes", lambda tree, outdir, extra: {})
        assert tool.main(["A", "B", "--seeds", "1"]) == 0
        assert runs == [(n, 1) for n in names for _ in "AB"]
        runs.clear()
        assert tool.main(["A", "B", "--seeds", "1", "--workloads", "moment-scan"]) == 0
        assert runs == [("moment-scan", 1)] * 2

    @pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, ".git")), reason="not a git checkout")
    def test_export_writes_the_committed_tree(self, tmp_path):
        tool = _load_tool("ab")
        sha = tool.export("HEAD", str(tmp_path / "tree"))
        assert len(sha) == 40
        for part in (("src", "ghcs", "__init__.py"), ("bench", "run.py"), ("BENCHMARK.json",)):
            assert os.path.isfile(os.path.join(tmp_path, "tree", *part)), part
