import contextlib
import hashlib
import io
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bench_documents import workload_documents
import ledid
from ledid import builtin_scenario_path
from ledid.cli import main
from ledid.export import CSV_HEADER

L1_PATH = str(builtin_scenario_path("l1"))
G1_PATH = str(builtin_scenario_path("g1"))

BAD_FOV_DOC = """
room: {width_m: 2.0, depth_m: 2.0, height_m: 2.0}
luminaire:
  - {tag: solo, x_m: 0.0, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
detector: {area_m2: 1.0e-4, fov_deg: 120.0, gain: 1.3}
"""

SINGLE_LAMP_DOC = """
room: {width_m: 2.0, depth_m: 2.0, height_m: 2.0}
luminaire:
  - {tag: solo, x_m: 0.0, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
detector: {area_m2: 1.0e-4, fov_deg: 60.0, gain: 1.3}
"""

# Each model rejects an infinite value of each of its numbers.
INFINITE_CASES = [
    ("width_m: 2.0", "width_m: .inf", "room.width_m"),
    ("power_w: 1.0", "power_w: .inf", "luminaire[0].power_w"),
    ("power_w: 1.0", "power_w: 1.0, baseband_power: .inf", "luminaire[0].baseband_power"),
    ("area_m2: 1.0e-4", "area_m2: .inf", "detector.area_m2"),
    ("gain: 1.3", "gain: .inf", "detector.gain"),
    ("gain: 1.3", "gain: 1.3, responsivity_a_per_w: .inf", "detector.responsivity_a_per_w"),
    ("gain: 1.3", "gain: 1.3, bandwidth_hz: .inf", "detector.bandwidth_hz"),
    ("gain: 1.3}", "gain: 1.3}\nnoise: {background_current_a: .inf}", "noise.background_current_a"),
    ("gain: 1.3}", "gain: 1.3}\nnoise: {i2: .inf}", "noise.i2"),
    ("gain: 1.3}", "gain: 1.3}\nnoise: {thermal_a2: .inf}", "noise.thermal_a2"),
    ("gain: 1.3}", "gain: 1.3}\nnoise: {isi_a2: -.inf}", "noise.isi_a2"),
]


class TestValidate:
    def test_shipped_l1(self, capsys):
        assert main(["validate", L1_PATH]) == 0
        out = capsys.readouterr().out
        assert "name=L1" in out
        assert "luminaires=3" in out
        assert "11.14" in out
        assert "defaults_applied=" in out

    def test_fov_violation_exits_one_and_names_the_key(self, tmp_path, capsys):
        doc = tmp_path / "bad.yaml"
        doc.write_text(BAD_FOV_DOC)
        assert main(["validate", str(doc)]) == 1
        assert "detector.fov_deg" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.yaml")]) == 2

    def test_a_directory_or_a_device_is_a_usage_error(self, tmp_path, capsys):
        # Only a regular file or a pipe is read: /dev/zero would never end.
        for path in [str(tmp_path)] + (["/dev/zero"] if os.path.exists("/dev/zero") else []):
            assert main(["validate", path]) == 2
            assert capsys.readouterr().err == f"usage error: scenario file not found: {path}\n"

    def test_unreadable_file_is_a_usage_error(self, capsys, monkeypatch):
        # A permission bit does not stop root, so the read itself is made to fail.
        def refuse(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("ledid.cli.read_scenario_text", refuse)
        assert main(["validate", L1_PATH]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: cannot read scenario file: [Errno 13] Permission denied: '{L1_PATH}'\n"

    def test_unparseable_document_exits_one(self, tmp_path):
        doc = tmp_path / "garbage.yaml"
        doc.write_text("room: [unclosed")
        assert main(["validate", str(doc)]) == 1


class TestInputContract:
    """A malformed document exits 1 with one error line, never a traceback."""

    def _fails(self, tmp_path, capsys, doc, command, *flags):
        path = tmp_path / "doc.yaml"
        path.write_text(doc, encoding="utf-8")
        assert main([command, str(path), *flags]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("tag, command, plane_flag", [
        ("a,b", "grid", "--plane-cm"),
        ("\u00e9", "grid", "--plane-cm"),
        ("x/y", "sweep", "--planes-cm"),
    ], ids=["comma", "non-ascii", "slash"])
    def test_tag_outside_the_charset_names_the_key(self, tmp_path, capsys, tag, command, plane_flag):
        doc = SINGLE_LAMP_DOC.replace("tag: solo", f"tag: '{tag}'")
        err = self._fails(tmp_path, capsys, doc, command, "--tag", tag, plane_flag, "30",
                          "--res", "4", "--out", str(tmp_path / "out"))
        assert "luminaire[0].tag" in err

    def test_integer_too_large_for_a_float_names_the_key(self, tmp_path, capsys):
        doc = SINGLE_LAMP_DOC.replace("power_w: 1.0", "power_w: 1" + "0" * 400)
        assert "luminaire[0].power_w" in self._fails(tmp_path, capsys, doc, "validate")

    def test_integer_past_the_conversion_limit_is_a_parse_error(self, tmp_path, capsys):
        self._fails(tmp_path, capsys, SINGLE_LAMP_DOC.replace("power_w: 1.0", "power_w: " + "1" * 5000),
                    "validate")

    def test_duplicate_key_is_rejected(self, tmp_path, capsys):
        doc = SINGLE_LAMP_DOC.replace("power_w: 1.0", "power_w: 1.0, power_w: 5.0")
        assert "duplicate key 'power_w'" in self._fails(tmp_path, capsys, doc, "validate")

    def test_unknown_keys_of_mixed_types_are_rejected(self, tmp_path, capsys):
        doc = SINGLE_LAMP_DOC.replace("gain: 1.3}", "gain: 1.3, 1: 2, foo: 3}")
        assert "detector" in self._fails(tmp_path, capsys, doc, "validate")

    @pytest.mark.parametrize("old, new, path", INFINITE_CASES, ids=[path for _, _, path in INFINITE_CASES])
    def test_infinite_parameter_names_the_key(self, tmp_path, capsys, old, new, path):
        out = tmp_path / "grid.csv"
        err = self._fails(tmp_path, capsys, SINGLE_LAMP_DOC.replace(old, new), "grid", "--tag", "solo",
                          "--plane-cm", "30", "--res", "4", "--out", str(out))
        assert f"error: {path}: must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("power_w: 1.0", "power_w: 1.0e+300"),
        ("area_m2: 1.0e-4", "area_m2: 1.0e+300"),
    ], ids=["power_w", "area_m2"])
    @pytest.mark.parametrize("command", ["grid", "resolve"])
    def test_overflowing_link_budget_is_an_error(self, tmp_path, capsys, old, new, command):
        out = tmp_path / "grid.csv"
        flags = ["--tag", "solo", "--res", "4", "--out", str(out)] if command == "grid" else []
        err = self._fails(tmp_path, capsys, SINGLE_LAMP_DOC.replace(old, new), command,
                          "--plane-cm", "30", *flags)
        assert "error: link budget overflows:" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("semi", ["1.0e-7", "5.0e-324"])
    def test_semi_angle_too_small_for_an_order_names_the_key(self, tmp_path, capsys, semi):
        doc = SINGLE_LAMP_DOC.replace("semi_angle_deg: 20.0", f"semi_angle_deg: {semi}")
        err = self._fails(tmp_path, capsys, doc, "validate")
        assert f"error: luminaire[0].semi_angle_deg: too small for a finite Lambertian order, got {float(semi)}" in err

    def test_deeply_nested_document_is_a_parse_error(self, tmp_path, capsys):
        doc = "a: " + "[" * 1000 + "]" * 1000 + "\n" + SINGLE_LAMP_DOC
        assert "nested too deeply" in self._fails(tmp_path, capsys, doc, "validate")

    @pytest.mark.parametrize("body", [
        "[" * 100_000 + "]" * 100_000,
        "\n  " + "- " * 100_000 + "1",
    ], ids=["flow", "block"])
    def test_nesting_far_past_the_limit_is_not_a_crash(self, tmp_path, body):
        # In a child process, so that a parser recursing on the C stack
        # shows as a signal instead of taking the test run down.
        path = tmp_path / "doc.yaml"
        path.write_text("a: " + body + "\n", encoding="utf-8")
        src = str(Path(ledid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-m", "ledid", "validate", str(path)],
                                capture_output=True, text=True, env=env, timeout=300)
        assert result.returncode >= 0, f"killed by signal {-result.returncode}"
        assert result.returncode == 1
        assert "nested too deeply" in result.stderr
        assert "Traceback" not in result.stderr

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "doc.yaml"
        path.write_bytes(SINGLE_LAMP_DOC.encode("utf-8") + b"# caf\xe9\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "Traceback" not in err
        assert f"byte 0xe9 at position {len(SINGLE_LAMP_DOC) + 5}" in err


class TestGrid:
    def test_csv_shape_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        out_c = tmp_path / "c.csv"
        args = ["grid", L1_PATH, "--tag", "outer-left", "--plane-cm", "30", "--res", "8"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert main(args + ["--out", str(out_c), "--workers", "4"]) == 0
        data = out_a.read_bytes()
        assert data == out_b.read_bytes()
        assert data == out_c.read_bytes()
        lines = data.decode("ascii").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 8 * 8
        assert data.endswith(b"\n")
        assert b"\r" not in data

    def test_rows_parse_and_carry_the_tag(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["grid", L1_PATH, "--tag", "inner", "--plane-cm", "40",
                     "--res", "4", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            assert fields[2] == "inner"
            ber = float(fields[8])
            assert 0.0 <= ber <= 0.5

    def test_non_square_room_spans_width_in_x_and_depth_in_y(self, tmp_path):
        doc = tmp_path / "room.yaml"
        doc.write_text(SINGLE_LAMP_DOC.replace("depth_m: 2.0", "depth_m: 3.0"))
        out = tmp_path / "grid.csv"
        assert main(["grid", str(doc), "--tag", "solo", "--plane-cm", "30", "--res", "4", "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        xs = (-0.75, -0.25, 0.25, 0.75)
        ys = (-1.125, -0.375, 0.375, 1.125)
        assert [(float(row[0]), float(row[1])) for row in rows] == [(x, y) for y in ys for x in xs]

    @pytest.mark.parametrize("path, tag", [(L1_PATH, "outer-left"), (G1_PATH, "center"), (G1_PATH, "ne")],
                             ids=["L1-outer-left", "G1-center", "G1-ne"])
    def test_csv_parses_back_to_the_grid(self, tmp_path, path, tag):
        out = tmp_path / "grid.csv"
        assert main(["grid", path, "--tag", tag, "--plane-cm", "35", "--res", "12", "--out", str(out)]) == 0
        scenario = ledid.load_scenario_file(path)
        grid = ledid.evaluate_grid(scenario, 0.35, 12, tag)
        c = grid.columns
        values = zip(c.h_data, c.signal_ms_a2, c.interference_ms_a2, c.noise_variance_a2, c.snr, c.ber)
        cells = [(x, y, *next(values)) for y in grid.y_centers_m for x in grid.x_centers_m]
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(cells)
        for row, cell in zip(rows, cells):
            fields = row.split(",")
            assert fields[2] == tag
            assert [float(field) for field in fields[:2] + fields[3:]] == list(cell)

    def test_heatmap_is_plain_pgm(self, tmp_path):
        csv_path = tmp_path / "grid.csv"
        pgm_path = tmp_path / "grid.pgm"
        assert main(["grid", L1_PATH, "--tag", "outer-left", "--plane-cm", "30",
                     "--res", "8", "--out", str(csv_path), "--heatmap", str(pgm_path)]) == 0
        lines = pgm_path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "8 8"
        assert lines[2] == "255"
        assert len(lines) == 3 + 8
        for row in lines[3:]:
            values = [int(v) for v in row.split()]
            assert len(values) == 8
            assert all(0 <= v <= 255 for v in values)

    def test_resolution_below_two_is_a_usage_error(self, tmp_path):
        assert main(["grid", L1_PATH, "--tag", "inner", "--plane-cm", "30",
                     "--res", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unknown_tag_is_a_domain_error(self, tmp_path):
        assert main(["grid", L1_PATH, "--tag", "nope", "--plane-cm", "30",
                     "--res", "4", "--out", str(tmp_path / "x.csv")]) == 1

    def test_unwritable_output_is_a_domain_error(self, tmp_path):
        missing_dir = tmp_path / "not" / "here" / "x.csv"
        assert main(["grid", L1_PATH, "--tag", "inner", "--plane-cm", "30",
                     "--res", "4", "--out", str(missing_dir)]) == 1

    def test_unwritable_heatmap_prints_no_line(self, tmp_path, capsys):
        # The CSV can be written, the graymap cannot: no line may name either.
        assert main(["grid", L1_PATH, "--tag", "inner", "--plane-cm", "30", "--res", "4",
                     "--out", str(tmp_path / "x.csv"), "--heatmap", str(tmp_path / "nodir" / "x.pgm")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.count("error:") == 1

    @pytest.mark.parametrize("out, heatmap", [("x.out", "./x.out"), ("x.out", "sub/../x.out"),
                                              ("loop", "loop")], ids=["same", "dotdot", "symlink-loop"])
    def test_out_and_heatmap_naming_one_file_are_a_usage_error(self, tmp_path, capsys, monkeypatch, out, heatmap):
        # Checked before anything is evaluated or written, as sweep checks its file names.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop").symlink_to("loop")
        assert main(["grid", L1_PATH, "--tag", "inner", "--plane-cm", "30", "--res", "4",
                     "--out", out, "--heatmap", heatmap]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: --heatmap: --out and --heatmap would both write {heatmap}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["loop"]

    @pytest.mark.parametrize("flags, message", [
        (["--out", "l1.yaml"], "--out: l1.yaml is the scenario document"),
        (["--out", "./sub/../l1.yaml"], "--out: ./sub/../l1.yaml is the scenario document"),
        (["--out", "x.csv", "--heatmap", "link.yaml"], "--heatmap: link.yaml is the scenario document"),
        (["--out", "hard.yaml"], "--out: hard.yaml is the scenario document"),
    ], ids=["same-path", "dotdot", "heatmap-symlink", "out-hard-link"])
    def test_output_naming_the_scenario_is_a_usage_error(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.chdir(tmp_path)
        original = Path(L1_PATH).read_bytes()
        Path("l1.yaml").write_bytes(original)
        Path("link.yaml").symlink_to("l1.yaml")
        os.link("l1.yaml", "hard.yaml")
        assert main(["grid", "l1.yaml", "--tag", "inner", "--plane-cm", "30", "--res", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"
        assert Path("l1.yaml").read_bytes() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.yaml", "l1.yaml", "link.yaml"]

    def test_out_and_heatmap_hard_links_are_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("a.csv").write_bytes(b"kept")
        os.link("a.csv", "b.pgm")
        assert main(["grid", L1_PATH, "--tag", "inner", "--plane-cm", "30", "--res", "4",
                     "--out", "a.csv", "--heatmap", "b.pgm"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --heatmap: --out and --heatmap would both write b.pgm\n"
        assert Path("a.csv").read_bytes() == b"kept"


class TestBenchmarkSizes:
    """The shipped scenarios at the benchmark's sizes (G1 grids at res 72 and
    40 cm, L1 sweeps at res 48), pinned to the bytes they had when every
    value was formatted cell by cell, and at small ones (grids at res 16,
    sweep summaries at res 8)."""

    @pytest.mark.parametrize("tag, csv_digest, pgm_digest", [
        ("n", "f5efe056e18d237b6514daa19a1fd709303f89e81bf1dfeaa11328db05b3ed80",
         "9b48a8070c0ac8c2b6815273d90ac6ba66a38ff9586965840862068dfb04f154"),
        ("center", "d94d001fb34c5f13f7f35d0c805d459f821c98e583db9e12a1449606f0667a50",
         "59ab0170270bc65e0c88e005396d04dbfc64f86fe953530658ff413a8c9d78ad"),
    ])
    def test_g1_grid_and_heatmap(self, tmp_path, capsys, tag, csv_digest, pgm_digest):
        csv_path, pgm_path = tmp_path / "grid.csv", tmp_path / "grid.pgm"
        assert main(["grid", G1_PATH, "--tag", tag, "--plane-cm", "40", "--res", "72",
                     "--out", str(csv_path), "--heatmap", str(pgm_path)]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(pgm_path.read_bytes()).hexdigest() == pgm_digest

    @pytest.mark.parametrize("path, tag, csv_digest, pgm_digest", [
        (L1_PATH, "inner", "b7b2dafd9e44e362ad48738614f99b993af507c6e8020e343d0827a6a6557f8b",
         "c417571358cc2cb1df866eee8eaab7220b6737b78ac9d1b963330fe2fc7bb277"),
        (G1_PATH, "center", "e7b5d5837d29dc39f107c52bbae467a991dd6c6e742e97c9681b20f3763e8442",
         "29f9915abd9ce72e0fba4b5633b528a8866bcf576b15bae394a724f1e9381c85"),
    ], ids=["L1-inner", "G1-center"])
    def test_grid_and_heatmap_at_res_16(self, tmp_path, capsys, path, tag, csv_digest, pgm_digest):
        csv_path, pgm_path = tmp_path / "grid.csv", tmp_path / "grid.pgm"
        assert main(["grid", path, "--tag", tag, "--plane-cm", "30", "--res", "16",
                     "--out", str(csv_path), "--heatmap", str(pgm_path)]) == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(pgm_path.read_bytes()).hexdigest() == pgm_digest
        # The Python API writes the same bytes as the CLI.
        grid = ledid.evaluate_grid(ledid.load_scenario_file(path), 0.3, 16, tag)
        ledid.write_grid_csv(grid, tmp_path / "api.csv")
        ledid.write_grid_pgm(grid, tmp_path / "api.pgm")
        assert (tmp_path / "api.csv").read_bytes() == csv_path.read_bytes()
        assert (tmp_path / "api.pgm").read_bytes() == pgm_path.read_bytes()

    def test_l1_sweep_summary_lines(self, tmp_path, capsys, monkeypatch):
        # The min and median foot error rate of each plane.
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", L1_PATH, "--tag", "inner", "--planes-cm", "30,40,50", "--res", "8",
                     "--out", "sweep"]) == 0
        assert capsys.readouterr().out == (
            "plane_cm=30 csv=sweep/inner_plane30cm.csv min_ber=9.016274084294954e-05 "
            "median_ber=9.016274084294954e-05\n"
            "plane_cm=40 csv=sweep/inner_plane40cm.csv min_ber=0.06502495098232461 "
            "median_ber=0.06502495098232461\n"
            "plane_cm=50 csv=sweep/inner_plane50cm.csv min_ber=0.18531173944803542 "
            "median_ber=0.18531173944803542\n")

    def test_l1_sweep(self, tmp_path, capsys):
        assert main(["sweep", L1_PATH, "--tag", "outer-left", "--planes-cm", "30,40,50", "--res", "48",
                     "--out", str(tmp_path)]) == 0
        digests = {cm: hashlib.sha256((tmp_path / f"outer-left_plane{cm}cm.csv").read_bytes()).hexdigest()
                   for cm in (30, 40, 50)}
        assert digests == {
            30: "db1a89303f02be67512c43421130c64bce2a0c028664e7ca9890c87cf4099690",
            40: "1379fd0fb5428a98b3f0b8cda93f62cebab45866fbc5f98684bae70c81140ab3",
            50: "b993269f8edc3f4c8a50ca35d1cf0735471aa4556c559a9f47969ffe75c6e655",
        }


class TestDenseCeilings:
    """Outputs whose cells each sum dozens of lit lamps, pinned to the bytes
    they had when every such sum went through math.fsum row by row: the
    benchmark's seed-1 ceilings, 8 x 8 for grids and 16 x 16 for both."""

    @pytest.mark.parametrize("tag, digest", [
        ("t08", "2b0daf611c2f2dbae03da678f79819e9272f2303847f70147a4b1bba94d88240"),
        ("t15", "18bf3003d86640745f91cba3d601687b97b9137a80399a30c13afcc5caee75b5"),
    ])
    def test_grid_csv_bytes(self, tmp_path, capsys, tag, digest):
        doc, out = tmp_path / "ceiling8.yaml", tmp_path / "grid.csv"
        doc.write_text(workload_documents(1)["ceiling8"], encoding="utf-8")
        assert main(["grid", str(doc), "--tag", tag, "--plane-cm", "120", "--res", "32", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_grid_and_heatmap_of_the_16_x_16_ceiling(self, tmp_path, capsys):
        # 1,089 cells in blocks of 128 positions, so the last block is partial.
        doc, csv_path, pgm_path = tmp_path / "ceiling16.yaml", tmp_path / "c16.csv", tmp_path / "c16.pgm"
        doc.write_text(workload_documents(1)["ceiling16"], encoding="utf-8")
        assert main(["grid", str(doc), "--tag", "t03", "--plane-cm", "120", "--res", "33",
                     "--out", str(csv_path), "--heatmap", str(pgm_path)]) == 0
        assert (hashlib.sha256(csv_path.read_bytes()).hexdigest()
                == "f492d08986e8d2ba4147cc6a8d7ff81d5be5f814bac9b6bcff46adf5b75ae0e3")
        assert (hashlib.sha256(pgm_path.read_bytes()).hexdigest()
                == "cd9be18a7d7f42697569344661db7e03a45d69a5b0843fa17c5b75f751a99ae6")

    def test_resolve_report(self, tmp_path, capsys):
        doc = tmp_path / "ceiling16.yaml"
        doc.write_text(workload_documents(1)["ceiling16"], encoding="utf-8")
        assert main(["resolve", str(doc), "--plane-cm", "100"]) == 0
        report = capsys.readouterr().out
        assert report.count("\ntag=") == 64
        assert (hashlib.sha256(report.encode("ascii")).hexdigest()
                == "5972574da0cd8f38baf3eeba65c3bec2cfb613d88616b8bbcd33012ac1db5ce4")

    def test_validate_report(self, tmp_path, capsys):
        # One lambertian_order line per distinct semi-angle, 235 of them.
        doc = tmp_path / "ceiling16.yaml"
        doc.write_text(workload_documents(1)["ceiling16"], encoding="utf-8")
        assert main(["validate", str(doc)]) == 0
        report = capsys.readouterr().out
        assert report.count("\nlambertian_order[") == 235
        assert (hashlib.sha256(report.encode("ascii")).hexdigest()
                == "20ec7369d6c3e3132a7ed444efb6708fd88e886bc57e6500c112c9020a5fc7ce")

    def test_resolve_report_of_one_lamp(self, tmp_path, capsys):
        # The benchmark's lone lamp: no pair of lamps, so no cone overlap.
        doc = tmp_path / "lamp.yaml"
        doc.write_text(workload_documents(1)["lamp"], encoding="utf-8")
        assert main(["resolve", str(doc), "--plane-cm", "100"]) == 0
        assert capsys.readouterr().out == ("plane_cm=100\nthreshold_ber=0.01\n"
                                           "tag=solo min_ber_under_lamp=0.0 resolvable=yes\n"
                                           "critical_overlap_distance_m=unbounded\n")


class TestSweep:
    def test_three_planes_with_increasing_foot_ber(self, tmp_path, capsys):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", L1_PATH, "--tag", "outer-left", "--planes-cm", "30,40,50",
                     "--res", "8", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("plane_cm=")]
        assert len(lines) == 3
        min_bers = [float(line.split("min_ber=")[1].split()[0]) for line in lines]
        assert min_bers[0] < min_bers[1] < min_bers[2]
        for cm in ("30", "40", "50"):
            assert (out_dir / f"outer-left_plane{cm}cm.csv").is_file()

    def test_empty_plane_list_is_a_usage_error(self, tmp_path):
        assert main(["sweep", L1_PATH, "--tag", "inner", "--planes-cm", " , ",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flags", [["--tag", "inner", "--planes-cm", "30,40", "--res", "1"],
                                       ["--tag", "inner", "--planes-cm", "30,-40"],
                                       ["--tag", "nope", "--planes-cm", "30"]],
                             ids=["res", "second-plane", "tag"])
    def test_bad_flag_or_tag_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "sweep"
        assert main(["sweep", L1_PATH, *flags, "--out", str(out)]) in (1, 2)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 1
        assert not out.exists()

    def test_negative_plane_names_the_sweep_flag(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["sweep", L1_PATH, "--tag", "inner", "--planes-cm=-5,30", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --planes-cm must be positive, got -5\n"
        assert not out.exists()

    # A budget that overflows only on the later plane: the 1e160 W lamp
    # hangs 1 m below the ceiling, facing down, so it lights the 150 cm
    # plane and nothing on the 30 cm one.
    LOW_SPOTLIGHT_DOC = """
room: {width_m: 2.0, depth_m: 2.0, height_m: 2.0}
luminaire:
  - {tag: p, x_m: 0.0, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
  - {tag: big, x_m: 0.3, y_m: 0.0, z_m: 1.0, power_w: 1.0e+160, semi_angle_deg: 20.0}
detector: {area_m2: 1.0e-4, fov_deg: 60.0, gain: 1.3}
"""

    @pytest.mark.parametrize("doc, tag, planes, message", [
        (None, "inner", "30,400", "plane distance must be in (0, 2.0] m, got 4.0"),
        (LOW_SPOTLIGHT_DOC, "p", "30,150", "link budget overflows: interference is not finite"),
    ], ids=["past-the-floor", "overflow"])
    def test_error_on_a_later_plane_writes_nothing(self, tmp_path, capsys, doc, tag, planes, message):
        path = L1_PATH
        if doc is not None:
            path = tmp_path / "doc.yaml"
            path.write_text(doc)
        out = tmp_path / "sweep"
        assert main(["sweep", str(path), "--tag", tag, "--planes-cm", planes, "--res", "8",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_later_plane_prints_no_line(self, tmp_path, capsys):
        # A directory sits where the second plane's CSV goes; the first CSV is written.
        out = tmp_path / "sweep"
        (out / "inner_plane40cm.csv").mkdir(parents=True)
        assert main(["sweep", L1_PATH, "--tag", "inner", "--planes-cm", "30,40", "--res", "4",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.count("error:") == 1

    def test_g1_center_smoke(self, tmp_path, capsys):
        assert main(["sweep", G1_PATH, "--tag", "center", "--planes-cm", "30",
                     "--res", "6", "--out", str(tmp_path / "g1")]) == 0
        assert "plane_cm=30" in capsys.readouterr().out

    def test_shared_tag_summary_spans_both_lamps(self, tmp_path, capsys):
        # Two lamps share one tag; a third interferes next to the second,
        # so the two foot error rates differ and min < median.
        doc = tmp_path / "shared.yaml"
        doc.write_text("""
room: {width_m: 2.0, depth_m: 2.0, height_m: 2.0}
luminaire:
  - {tag: pair, x_m: -0.5, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
  - {tag: pair, x_m: 0.5, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
  - {tag: rival, x_m: 0.34, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
detector: {area_m2: 1.0e-4, fov_deg: 60.0, gain: 1.3}
""")
        assert main(["sweep", str(doc), "--tag", "pair", "--planes-cm", "40",
                     "--res", "4", "--out", str(tmp_path / "out")]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("plane_cm=")][0]
        min_ber = float(line.split("min_ber=")[1].split()[0])
        median_ber = float(line.split("median_ber=")[1].split()[0])
        assert min_ber < median_ber


    @pytest.mark.parametrize("planes", ["30,30.0000001,40", "30,40,30"], ids=["same-name", "repeated"])
    def test_planes_writing_one_file_are_a_usage_error(self, tmp_path, capsys, planes):
        out = tmp_path / "sweep"
        assert main(["sweep", L1_PATH, "--tag", "inner", "--planes-cm", planes, "--res", "4",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --planes-cm: two planes would both write inner_plane30cm.csv\n"
        assert not out.exists()

    def test_plane_csv_naming_the_scenario_is_a_usage_error(self, tmp_path, capsys):
        doc = tmp_path / "inner_plane40cm.csv"
        original = Path(L1_PATH).read_bytes()
        doc.write_bytes(original)
        assert main(["sweep", str(doc), "--tag", "inner", "--planes-cm", "30,40", "--res", "4",
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: --out: {doc} is the scenario document\n"
        assert doc.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == [doc.name]

    def test_plane_csvs_that_are_hard_links_are_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "inner_plane30cm.csv").write_bytes(b"kept")
        os.link(tmp_path / "inner_plane30cm.csv", tmp_path / "inner_plane40cm.csv")
        assert main(["sweep", L1_PATH, "--tag", "inner", "--planes-cm", "30,40", "--res", "4",
                     "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: --out: plane 30 and plane 40 would both write "
                                f"{tmp_path / 'inner_plane40cm.csv'}\n")
        assert (tmp_path / "inner_plane30cm.csv").read_bytes() == b"kept"


class TestCoverage:
    # A 10 kW lone lamp with almost no noise passes until the bracket would
    # probe past its 1,000 km cap, so it reads unbounded, at the full angle.
    FAR_DOC = """
room: {width_m: 2.0, depth_m: 2.0, height_m: 2.0}
luminaire:
  - {tag: solo, x_m: 0.0, y_m: 0.0, z_m: 2.0, power_w: 10000.0, semi_angle_deg: 20.0}
detector: {area_m2: 1.0e-4, fov_deg: 60.0, gain: 1.3}
noise: {thermal_a2: 1.0e-40}
"""

    # The benchmark's noisy lone lamp reads inside the ladder, so its distance
    # comes from the leaf runs the bounded ladder keeps, refined by bisection.
    @pytest.mark.parametrize("doc, flags, report", [
        (FAR_DOC, [], "tag=solo\nthreshold_ber=0.01\nmax_reliable_distance_m=unbounded\n"
                      "max_reliable_angle_deg=90.0\n"),
        ("lamp", ["--threshold", "0.01"], "tag=solo\nthreshold_ber=0.01\nmax_reliable_distance_m=5.028125\n"
                                          "max_reliable_angle_deg=30.41015625\n"),
        ("lamp", ["--threshold", "0.001"], "tag=solo\nthreshold_ber=0.001\nmax_reliable_distance_m=4.47875\n"
                                           "max_reliable_angle_deg=30.41015625\n"),
    ], ids=["far-unbounded", "bench-lamp-0.01", "bench-lamp-0.001"])
    def test_lone_lamp_reports_are_pinned(self, tmp_path, capsys, doc, flags, report):
        path = tmp_path / "doc.yaml"
        path.write_text(workload_documents(1)["lamp"] if doc == "lamp" else doc, encoding="utf-8")
        assert main(["coverage", str(path), "--tag", "solo", *flags]) == 0
        assert capsys.readouterr().out == report

    def test_l1_outer_tag(self, capsys):
        assert main(["coverage", L1_PATH, "--tag", "outer-left", "--threshold", "1e-2"]) == 0
        out = capsys.readouterr().out
        assert "tag=outer-left" in out
        assert "max_reliable_distance_m=" in out
        assert "max_reliable_angle_deg=" in out
        distance = float(out.split("max_reliable_distance_m=")[1].splitlines()[0])
        assert 0.40 < distance < 0.42

    def test_unbounded_single_lamp(self, tmp_path, capsys):
        doc = tmp_path / "solo.yaml"
        doc.write_text(SINGLE_LAMP_DOC)
        assert main(["coverage", str(doc), "--tag", "solo"]) == 0
        assert "max_reliable_distance_m=unbounded" in capsys.readouterr().out

    def test_probe_on_a_lamp_is_scored_not_an_error(self, tmp_path, capsys):
        # Ladder step 100 from the top lamp lands on the low lamp.
        doc = tmp_path / "stacked.yaml"
        doc.write_text("""
room: {width_m: 4.0, depth_m: 4.0, height_m: 3.0}
luminaire:
  - {tag: top, x_m: 0.0, y_m: 0.0, z_m: 3.0, power_w: 1.0, semi_angle_deg: 20.0}
  - {tag: low, x_m: 0.0, y_m: 0.0, z_m: 2.0, power_w: 1.0, semi_angle_deg: 20.0}
detector: {area_m2: 1.0e-4, fov_deg: 60.0, gain: 1.3}
""")
        assert main(["coverage", str(doc), "--tag", "top"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "max_reliable_distance_m=0.999375" in captured.out

    def test_budget_overflowing_far_down_the_ray(self, tmp_path, capsys):
        # Step 1 passes: the 1e160 W lamp is outside the field of view
        # there. About 0.9 m down its light overflows the budget, past the
        # 0.33 m where the noise alone fails every step.
        doc = tmp_path / "far.yaml"
        doc.write_text("""
room: {width_m: 4.0, depth_m: 4.0, height_m: 3.0}
luminaire:
  - {tag: near, x_m: 0.0, y_m: 0.0, z_m: 3.0, power_w: 1.0, semi_angle_deg: 20.0}
  - {tag: far, x_m: 1.5, y_m: 0.0, z_m: 3.0, power_w: 1.0e+160, semi_angle_deg: 60.0}
detector: {area_m2: 1.0e-4, fov_deg: 60.0, gain: 1.3}
noise: {thermal_a2: 1.0e-7}
""")
        assert main(["coverage", str(doc), "--tag", "near"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: link budget overflows: interference is not finite")
        assert captured.err.count("\n") == 1


class TestPlaneInTheRoom:
    @pytest.mark.parametrize("plane_cm, shown", [("inf", "inf"), ("400", "4.0")])
    def test_three_commands_word_it_alike(self, tmp_path, capsys, plane_cm, shown):
        commands = (["grid", L1_PATH, "--tag", "inner", "--plane-cm", plane_cm, "--res", "4",
                     "--out", str(tmp_path / "x.csv")],
                    ["sweep", L1_PATH, "--tag", "inner", "--planes-cm", plane_cm, "--res", "4",
                     "--out", str(tmp_path / "sweep")],
                    ["resolve", L1_PATH, "--plane-cm", plane_cm])
        for argv in commands:
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: plane distance must be in (0, 2.0] m, got {shown}\n"
        assert list(tmp_path.iterdir()) == []


class TestResolve:
    def test_l1_thirty_cm(self, capsys):
        assert main(["resolve", L1_PATH, "--plane-cm", "30"]) == 0
        out = capsys.readouterr().out
        assert out.count("resolvable=yes") == 3
        assert "critical_overlap_distance_m=" in out
        critical = float(out.split("critical_overlap_distance_m=")[1].splitlines()[0])
        assert critical == pytest.approx(0.4396, abs=1e-4)

    @pytest.mark.parametrize("path, plane_cm, report", [
        (L1_PATH, "40", "plane_cm=40\nthreshold_ber=0.01\n"
                        "tag=outer-left min_ber_under_lamp=0.008716024816291116 resolvable=yes\n"
                        "tag=inner min_ber_under_lamp=0.06502495098232461 resolvable=no\n"
                        "tag=outer-right min_ber_under_lamp=0.008716024816291116 resolvable=yes\n"
                        "critical_overlap_distance_m=0.4395963871127396\n"),
        (G1_PATH, "30", "plane_cm=30\nthreshold_ber=0.01\n"
                        "tag=nw min_ber_under_lamp=0.00011627331723335248 resolvable=yes\n"
                        "tag=n min_ber_under_lamp=0.001987563177478229 resolvable=yes\n"
                        "tag=ne min_ber_under_lamp=0.00011627331723335248 resolvable=yes\n"
                        "tag=w min_ber_under_lamp=0.001987563177478229 resolvable=yes\n"
                        "tag=center min_ber_under_lamp=0.008538573978579224 resolvable=yes\n"
                        "tag=e min_ber_under_lamp=0.001987563177478229 resolvable=yes\n"
                        "tag=sw min_ber_under_lamp=0.00011627331723335248 resolvable=yes\n"
                        "tag=s min_ber_under_lamp=0.001987563177478229 resolvable=yes\n"
                        "tag=se min_ber_under_lamp=0.00011627331723335248 resolvable=yes\n"
                        "critical_overlap_distance_m=0.4395963871127396\n"),
    ], ids=["L1-40", "G1-30"])
    def test_shipped_reports_are_pinned(self, capsys, path, plane_cm, report):
        assert main(["resolve", path, "--plane-cm", plane_cm]) == 0
        assert capsys.readouterr().out == report

    def test_l1_fifty_cm_outer_tags_fail(self, capsys):
        assert main(["resolve", L1_PATH, "--plane-cm", "50"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("tag=outer-left") or line.startswith("tag=outer-right"):
                assert line.endswith("resolvable=no")


class TestMcVerify:
    def test_defaults_pass(self, capsys):
        # Seven SNR points at a million trials each, seed 42.
        assert main(["mc-verify"]) == 0
        out = capsys.readouterr().out
        assert out.count(" pass") == 7
        assert "agreement=7/7" in out

    def test_small_run_is_deterministic(self, capsys):
        args = ["mc-verify", "--snr-list", "0,2,4", "--trials", "20000", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "agreement=" in first

    def test_zero_trials_is_a_usage_error(self):
        assert main(["mc-verify", "--trials", "0"]) == 2

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_a_usage_error(self, capsys, seed):
        assert main(["mc-verify", "--trials", "10", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: --seed must be a 64-bit unsigned integer, got {seed}\n"

    def test_empty_snr_list_is_a_usage_error(self):
        assert main(["mc-verify", "--snr-list", " "]) == 2

    def test_negative_snr_is_a_usage_error(self):
        assert main(["mc-verify", "--snr-list", "-1,2"]) == 2

    @pytest.mark.parametrize("snr_list", ["nan", "2,nan", "4,NaN,1"])
    def test_nan_snr_is_a_usage_error(self, capsys, snr_list):
        assert main(["mc-verify", "--snr-list", snr_list, "--trials", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --snr-list")

    def test_disagreement_is_reported_as_an_error(self, capsys):
        # One trial per point: an estimate of 0 or 1 with no spread, so both miss.
        assert main(["mc-verify", "--snr-list", "0,0", "--trials", "1", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("agreement=0/2 ok=no\n")
        assert captured.err == "error: 2 of 2 estimates miss the analytic BER by more than 3 standard errors\n"

    def test_infinite_snr_is_scored(self, capsys):
        assert main(["mc-verify", "--snr-list", "inf", "--trials", "1000", "--seed", "3"]) == 0
        assert "snr=inf analytic=0.0 estimate=0.0 std_error=0.0 pass" in capsys.readouterr().out

    def test_extreme_snrs_print_the_pinned_report_without_a_warning(self, capsys):
        # 8.988465674311579e307 is the largest SNR with a finite amplitude, whose
        # square is within 2 ulps of the largest float; 20,000 trials span two blocks.
        args = ["mc-verify", "--snr-list", "0,8e307,inf,0,8.988465674311579e307", "--trials", "20000",
                "--seed", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "snr=0 analytic=0.5 estimate=0.5089 std_error=0.0035349737622788657 pass\n"
            "snr=8e+307 analytic=0.0 estimate=0.0 std_error=0.0 pass\n"
            "snr=inf analytic=0.0 estimate=0.0 std_error=0.0 pass\n"
            "snr=0 analytic=0.5 estimate=0.5089 std_error=0.0035349737622788657 pass\n"
            "snr=8.98847e+307 analytic=0.0 estimate=0.0 std_error=0.0 pass\n"
            "agreement=5/5 ok=yes\n")


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", [["validate", G1_PATH], ["resolve", G1_PATH, "--plane-cm", "30"]],
                             ids=["validate", "resolve"])
    def test_reader_gone_exits_one_silently(self, args, unbuffered):
        # The pipe's read end is closed before the child starts, so its
        # writes to stdout fail with EPIPE: buffered, at the final flush;
        # unbuffered, at the first print.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(ledid.__file__).resolve().parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            result = subprocess.run([sys.executable, "-m", "ledid", *args], stdout=write_end,
                                    stderr=subprocess.PIPE, env=env, timeout=300)
        finally:
            os.close(write_end)
        assert result.stderr == b""
        assert result.returncode == 1


def _cap_address_space():
    # About 3 GiB: numpy still imports, a 100,000 x 100,000 grid cannot be allocated.
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


class TestOutOfMemory:
    @pytest.mark.parametrize("args", [["grid", "--plane-cm", "30", "--out", "big.csv"],
                                      ["sweep", "--planes-cm", "30", "--out", "big"]], ids=["grid", "sweep"])
    def test_grid_too_large_is_one_error_line(self, tmp_path, args):
        src = str(Path(ledid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-m", "ledid", args[0], L1_PATH, "--tag", "inner",
                                 "--res", "100000", *args[1:]],
                                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
                                preexec_fn=_cap_address_space)
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert [line[:7] for line in result.stderr.splitlines()] == ["error: "]


class TestNoiseOverflow:
    # The lamp's budget is finite but for its noise, 2 q R P B with a
    # bandwidth of 1e300 Hz: one error line, and no numpy warning on stderr.
    DOC = SINGLE_LAMP_DOC.replace("power_w: 1.0", "power_w: 1.0e+100").replace(
        "gain: 1.3}", "gain: 1.3, bandwidth_hz: 1.0e+300}")

    @pytest.mark.parametrize("command", [["grid", "--tag", "solo", "--res", "4", "--out", "grid.csv"], ["resolve"]],
                             ids=["grid", "resolve"])
    def test_one_error_line_and_no_warning(self, tmp_path, command):
        (tmp_path / "doc.yaml").write_text(self.DOC)
        src = str(Path(ledid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-m", "ledid", command[0], "doc.yaml", "--plane-cm", "30",
                                 *command[1:]], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "RuntimeWarning" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: link budget overflows: noise is not finite")
        assert not (tmp_path / "grid.csv").exists()


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# Flag values for the fuzzing property: valid, on a boundary, or garbage,
# with garbage drawn half of the time. --res and --trials stay small.
GARBAGE = ("nan", "NaN", "inf", "-inf", "-0", "1e400", "-1e400", "0x10", "", " ", "-1", "1,2", "abc", "2.5")


def flag_values(*valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(GARBAGE))


def int_values(low, high):
    return flag_values(*map(str, range(low, high + 1)))


def value_lists(*valid):
    return st.lists(flag_values(*valid), min_size=1, max_size=3).map(",".join)


PLANES = ("30", "40", "1e-300", "300")
FLAGS = {
    "grid": {"--tag": flag_values("inner", "outer-left", "nope"), "--plane-cm": flag_values(*PLANES),
             "--res": int_values(-1, 12), "--workers": int_values(-1, 3)},
    "sweep": {"--tag": flag_values("inner", "outer-right"), "--planes-cm": value_lists(*PLANES),
              "--res": int_values(-1, 12), "--workers": int_values(-1, 3)},
    "coverage": {"--tag": flag_values("inner", "outer-left"), "--threshold": flag_values("1e-2", "0.5", "1", "1e-300")},
    "resolve": {"--plane-cm": flag_values(*PLANES), "--threshold": flag_values("1e-2", "0.5", "1", "1e-300")},
    "mc-verify": {"--snr-list": value_lists("0", "4", "1e-300", "700"),
                  "--trials": st.one_of(st.integers(-1, 2000).map(str), st.sampled_from(GARBAGE)),
                  "--seed": flag_values("0", "37", str(2 ** 64 - 1), str(2 ** 64))},
}


class TestFlagFuzzing:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(FLAGS)), st.data())
    def test_every_flag_keeps_the_exit_code_contract(self, command, data):
        flags = [f"{flag}={data.draw(values, label=flag)}" for flag, values in FLAGS[command].items()]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            files = [] if command == "mc-verify" else [L1_PATH]
            if command in ("grid", "sweep"):
                files += ["--out", str(Path(tmp) / "out")]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, *files, *flags])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert err.getvalue().count("error:") == (code != 0), err.getvalue()


# Magnitudes from 1e-300 to 1e300: log-uniform draws and the values at the
# ends and in between that a layout is likeliest to meet.
MAGNITUDES = st.one_of(st.sampled_from((1e-300, 1e-200, 1e-100, 1e-5, 1.0, 2.0, 1e5, 1e100, 1e200, 1e300)),
                       st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
SEMI_ANGLES = st.one_of(st.sampled_from((1e-5, 1e-3, 20.0, 60.0, 89.999, 90.0 - 1e-12)),
                        st.floats(1e-5, 90.0, exclude_max=True))


@st.composite
def extreme_documents(draw):
    """A valid scenario of at most 8 lamps, every number from 1e-300 to 1e300.

    A lamp is placed on its own, or on an earlier lamp, or 1e-300, 1e200 or
    any magnitude away from one in x; the room is drawn, then widened to hold
    every lamp. Noise values are 0 or a magnitude.
    """
    def signed():
        return draw(st.sampled_from((-1.0, 0.0, 1.0))) * draw(MAGNITUDES)

    lamps = []
    for i in range(draw(st.integers(1, 8))):
        if lamps and draw(st.booleans()):
            x, y, z = draw(st.sampled_from(lamps))[1:4]
            x += draw(st.sampled_from((0.0, 1e-300, 1e200, -1e200))) or signed()
        else:
            x, y, z = signed(), signed(), draw(MAGNITUDES)
        lamps.append((f"t{draw(st.integers(0, i))}", x, y, z))
    noise = st.one_of(st.just(0.0), MAGNITUDES)
    return {
        "room": {"width_m": max(draw(MAGNITUDES), *(2.0 * abs(lamp[1]) for lamp in lamps)),
                 "depth_m": max(draw(MAGNITUDES), *(2.0 * abs(lamp[2]) for lamp in lamps)),
                 "height_m": max(draw(MAGNITUDES), *(lamp[3] for lamp in lamps))},
        "luminaire": [{"tag": tag, "x_m": x, "y_m": y, "z_m": z, "power_w": draw(MAGNITUDES),
                       "semi_angle_deg": draw(SEMI_ANGLES), "mod_index": min(1.0, draw(MAGNITUDES)),
                       "baseband_power": draw(MAGNITUDES)} for tag, x, y, z in lamps],
        "detector": {"area_m2": draw(MAGNITUDES), "fov_deg": min(90.0, draw(MAGNITUDES)), "gain": draw(MAGNITUDES),
                     "responsivity_a_per_w": draw(MAGNITUDES), "bandwidth_hz": draw(MAGNITUDES)},
        "noise": {"background_current_a": draw(noise), "i2": draw(noise), "thermal_a2": draw(noise),
                  "isi_a2": draw(noise)},
    }


def plain_document(room, lamps):
    # Unit-power lamps of semi-angle 20 degrees under L1's detector.
    return {"room": dict(zip(("width_m", "depth_m", "height_m"), room)),
            "luminaire": [{"tag": tag, "x_m": x, "y_m": 0.0, "z_m": 2.0, "power_w": 1.0, "semi_angle_deg": 20.0}
                          for tag, x in lamps],
            "detector": {"area_m2": 1e-4, "fov_deg": 60.0, "gain": 1.3}}


class TestExtremeDocuments:
    """Every command on documents of extreme magnitudes keeps the exit-code contract.

    Exit 0 prints nothing on stderr, any other exit exactly one error line,
    no command raises a warning of any kind, and a grid's CSV parses back
    to its grid.
    """

    @settings(deadline=None)
    @given(extreme_documents())
    # Lamps 2e200 m apart, and lamps near the centre of a 1e300 m room: the
    # squared distances overflow.
    @example(plain_document((1e201, 1.0, 2.0), [("t0", -1e200), ("t1", 1e200)]))
    @example(plain_document((1e300, 1e300, 2.0), [("t0", -0.08), ("t1", 0.08)]))
    def test_every_command_keeps_the_contract(self, document):
        plane_cm = repr(document["room"]["height_m"] * 50.0)
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            doc, csv = Path(tmp) / "doc.yaml", Path(tmp) / "grid.csv"
            doc.write_text(yaml.safe_dump(document))
            codes = {}
            for argv in (["validate"], ["grid", "--tag", "t0", "--plane-cm", plane_cm, "--res", "3",
                                        "--out", str(csv), "--heatmap", str(Path(tmp) / "grid.pgm")],
                         ["sweep", "--tag", "t0", "--planes-cm", f"{plane_cm},{float(plane_cm) / 4!r}", "--res", "2",
                          "--out", str(Path(tmp) / "sweep")],
                         ["coverage", "--tag", "t0"], ["resolve", "--plane-cm", plane_cm]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = codes[argv[0]] = main([argv[0], str(doc), *argv[1:]])
                assert code in (0, 1, 2), argv
                if code == 0:
                    assert err.getvalue() == "", argv
                else:
                    assert re.fullmatch(r"(usage )?error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
            if codes["grid"] == 0:
                grid = ledid.evaluate_grid(ledid.load_scenario(doc.read_text()), float(plane_cm) / 100.0, 3, "t0")
                c = grid.columns
                cells = zip(((x, y) for y in grid.y_centers_m for x in grid.x_centers_m), c.h_data, c.signal_ms_a2,
                            c.interference_ms_a2, c.noise_variance_a2, c.snr, c.ber)
                rows = [row.split(",") for row in csv.read_text().splitlines()[1:]]
                assert [[float(field).hex() for field in row[:2] + row[3:]] for row in rows] == \
                    [[value.hex() for value in (*xy, *values)] for xy, *values in cells]


class TestRepeatedCalls:
    """One process may call ``main`` many times; the parser is built once and reused."""

    @pytest.mark.parametrize("argv", [
        ["validate", L1_PATH],
        ["coverage", L1_PATH, "--tag", "inner"],
        ["coverage", L1_PATH, "--tag", "nope"],
        ["coverage", L1_PATH],
        ["grid", L1_PATH, "--tag", "inner", "--plane-cm", "30", "--res", "x", "--out", "unused.csv"],
        ["resolve", L1_PATH, "--plane-cm", "-1"],
        ["frobnicate"],
        [],
        ["--help"],
        ["mc-verify", "--help"],
    ], ids=["validate", "coverage", "unknown-tag", "missing-flag", "bad-int", "usage-error",
            "bad-command", "no-command", "help", "subcommand-help"])
    def test_same_output_and_exit_code_every_time(self, argv, capsys):
        runs = []
        for _ in range(3):
            code = main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1] == runs[2]

    def test_parser_is_built_on_first_use_not_at_import(self):
        probe = ("import ledid.cli as cli; assert cli._build_parser.cache_info().currsize == 0; "
                 "cli._build_parser(); assert cli._build_parser() is cli._build_parser()")
        env = {**os.environ, "PYTHONPATH": str(Path(ledid.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", probe], check=True, env=env)
