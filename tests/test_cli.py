import pytest

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

    def test_deeply_nested_document_is_a_parse_error(self, tmp_path, capsys):
        doc = "a: " + "[" * 1000 + "]" * 1000 + "\n" + SINGLE_LAMP_DOC
        assert "nested too deeply" in self._fails(tmp_path, capsys, doc, "validate")


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


class TestCoverage:
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


class TestResolve:
    def test_l1_thirty_cm(self, capsys):
        assert main(["resolve", L1_PATH, "--plane-cm", "30"]) == 0
        out = capsys.readouterr().out
        assert out.count("resolvable=yes") == 3
        assert "critical_overlap_distance_m=" in out
        critical = float(out.split("critical_overlap_distance_m=")[1].splitlines()[0])
        assert critical == pytest.approx(0.4396, abs=1e-4)

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

    def test_empty_snr_list_is_a_usage_error(self):
        assert main(["mc-verify", "--snr-list", " "]) == 2

    def test_negative_snr_is_a_usage_error(self):
        assert main(["mc-verify", "--snr-list", "-1,2"]) == 2


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
