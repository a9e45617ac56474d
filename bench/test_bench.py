"""Self-tests of the benchmark: generator, verifier and declared metrics.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import gen  # noqa: E402
import verify  # noqa: E402
from ledid import builtin_scenario_path, cli, load_scenario_file  # noqa: E402


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_generator_is_deterministic(name):
    first, again, other = (gen.make_workload(name, s) for s in (7, 7, 8))
    assert first == again
    assert first.documents == again.documents  # byte-identical YAML
    assert (first.documents, first.ops) != (other.documents, other.ops)


def test_generated_documents_parse_with_declared_sizes(tmp_path):
    for name in gen.WORKLOADS:
        workload = gen.make_workload(name, 3)
        for key, text in workload.documents.items():
            path = tmp_path / f"{key}.yaml"
            path.write_text(text, encoding="utf-8")
            assert len(load_scenario_file(path).luminaires) == workload.luminaires[key]


@pytest.fixture()
def l1_grid(tmp_path):
    """A real 8x8 L1 grid exported by the CLI, and what the verifier needs."""
    op = gen.Op("grid", "l1", tag="inner", plane_cm=40.0, res=8, heatmap=True)
    argv = op.argv(builtin_scenario_path("l1"), tmp_path)
    assert cli.main(argv) == 0
    return op, tmp_path, load_scenario_file(builtin_scenario_path("l1"))


def _check(op, out, scenario, stdout=None):
    if stdout is None:
        stdout = f"csv={out / 'grid.csv'} cells={op.res}x{op.res}\npgm={out / 'grid.pgm'}\n"
    verify.check_op(op, 0, stdout, "", out, scenario, random.Random(0), None)


def test_verifier_accepts_real_output(l1_grid):
    _check(*l1_grid)


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text(encoding="ascii").split("\n")
    edit(lines)
    path.write_text("\n".join(lines), encoding="ascii")


@pytest.mark.parametrize("column", [3, 7, 8])  # h_data, snr, ber
def test_verifier_rejects_a_corrupted_value(l1_grid, column):
    op, out, scenario = l1_grid
    # snr and ber are checked on every row, h_data against the reference
    # on sampled rows, which always include the first.
    row = 1 if column == 3 else 30

    def corrupt(lines):
        fields = lines[row].split(",")
        fields[column] = repr(float(fields[column]) * (1 + 1e-3) + 1e-300)
        lines[row] = ",".join(fields)

    _rewrite_csv(out / "grid.csv", corrupt)
    with pytest.raises(verify.VerifyError):
        _check(op, out, scenario)


def test_verifier_rejects_a_wrong_row_count(l1_grid):
    op, out, scenario = l1_grid
    _rewrite_csv(out / "grid.csv", lambda lines: lines.pop(-2))
    with pytest.raises(verify.VerifyError, match="rows"):
        _check(op, out, scenario)


def test_verifier_rejects_a_nonzero_exit(l1_grid):
    op, out, scenario = l1_grid
    with pytest.raises(verify.VerifyError, match="exit code"):
        verify.check_op(op, 1, "", "error: boom\n", out, scenario, random.Random(0), None)
    with pytest.raises(verify.VerifyError, match="stderr"):
        verify.check_op(op, 0, "", "warning\n", out, scenario, random.Random(0), None)


def test_verifier_rejects_broken_mirror_symmetry(tmp_path):
    op = gen.Op("grid", "g1", tag="center", plane_cm=30.0, res=6)
    scenario = load_scenario_file(builtin_scenario_path("g1"))
    assert cli.main(op.argv(builtin_scenario_path("g1"), tmp_path)) == 0
    rows = verify.read_grid_csv(tmp_path / "grid.csv", "center", 6)
    verify.check_mirror(rows, 6, flip_x=True, flip_y=False)
    rows[0] = rows[0][:7] + (rows[0][7] * (1 + 1e-15),)
    with pytest.raises(verify.VerifyError, match="mirror"):
        verify.check_mirror(rows, 6, flip_x=True, flip_y=False)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_exactly_the_declared_ones(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name in gen.WORKLOADS:
        done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                               "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
                              capture_output=True, text=True, timeout=170, cwd=ROOT)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, done.stderr
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("metric ")]
        assert sorted(printed) == sorted(declared)
