"""Command-line surface: schemas, determinism, exit codes, config files."""

import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest

import pldbounds as pb
from pldbounds import cli

LN2 = math.log(2.0)

RR_ARGS = [
    "--mechanism",
    "randomized-response",
    "--rr-epsilon",
    str(LN2),
    "--discretization",
    str(LN2),
    "--grid-range",
    str(-LN2 - 1e-9),
    str(LN2 + 1e-9),
]


def run_cli(args, capsys) -> tuple[int, str]:
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out if code == 0 else captured.err


def strip_runtime(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if "runtime" not in k}


class TestCompute:
    def test_rr_lossless_grid_gives_tight_sandwich(self, capsys):
        code, out = run_cli(
            ["compute", *RR_ARGS, "--compositions", "1", "--delta", str(1 / 3)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["eps_low"]) <= 1e-7
        assert abs(payload["eps_high"]) <= 1e-7
        assert payload["eps_low"] <= payload["eps_high"]
        assert payload["query"] == "epsilon_for_delta"
        bounds = payload["bounds"]
        assert set(bounds) == {"pessimistic", "optimistic"}
        for entry in bounds.values():
            assert {"epsilon", "support_size", "mass_at_infinity"} <= set(entry)

    def test_empty_composition(self, capsys):
        code, out = run_cli(
            ["compute", *RR_ARGS, "--compositions", "0", "--delta", "1e-5"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        # the tight epsilon of the empty composition at target d is ln(1 - d)
        assert abs(payload["eps_high"] - math.log(1.0 - 1e-5)) <= 1e-7
        assert payload["eps_low"] <= payload["eps_high"]
        assert abs(payload["eps_high"]) <= 2e-5

    def test_epsilon_target_reports_delta(self, capsys):
        code, out = run_cli(["compute", *RR_ARGS, "--epsilon", "0.0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_low"] == pytest.approx(1 / 3, abs=1e-9)
        assert payload["delta_high"] == pytest.approx(1 / 3, abs=1e-9)

    def test_deterministic_output_modulo_runtime(self, capsys):
        args = ["compute", *RR_ARGS, "--delta", "0.2", "--baseline", "pb"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert strip_runtime(json.loads(first)) == strip_runtime(json.loads(second))

    def test_csv_output(self, capsys):
        code, out = run_cli(
            ["compute", *RR_ARGS, "--delta", "0.2", "--output", "csv"], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2
        assert "eps_low" in rows[0] and "eps_high" in rows[0]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run_cli(
            ["compute", *RR_ARGS, "--delta", "0.2", "--out", str(target)], capsys
        )
        assert code == 0
        assert json.loads(target.read_text())["query"] == "epsilon_for_delta"

    def test_gaussian_bracket_contains_analytic_epsilon(self, capsys):
        from oracles import gaussian_epsilon_exact

        code, out = run_cli(
            [
                "compute",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "80",
                "--compositions",
                "100",
                "--delta",
                "1e-5",
                "--discretization",
                "0.005",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        exact = gaussian_epsilon_exact(80.0 / math.sqrt(100.0), 1e-5)
        assert payload["eps_low"] <= exact <= payload["eps_high"]

    def test_delta_floor_reports_inf(self, capsys):
        # a grid stopping short of the curve's range leaves an atom at +inf;
        # below that floor the pessimistic epsilon is reported as "inf"
        code, out = run_cli(
            [
                "compute",
                "--mechanism",
                "randomized-response",
                "--rr-epsilon",
                "2.0",
                "--discretization",
                "0.25",
                "--grid-range",
                "-0.5",
                "0.5",
                "--delta",
                "1e-3",
                "--estimate",
                "pessimistic",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bounds"]["pessimistic"]["epsilon"] == "inf"
        assert payload["bounds"]["pessimistic"]["mass_at_infinity"] > 1e-3

    def test_baseline_included_and_never_tighter(self, capsys):
        code, out = run_cli(
            [
                "compute",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "1.0",
                "--discretization",
                "0.1",
                "--compositions",
                "4",
                "--delta",
                "1e-5",
                "--baseline",
                "pb",
            ],
            capsys,
        )
        assert code == 0
        bounds = json.loads(out)["bounds"]
        assert bounds["pessimistic"]["epsilon"] <= bounds["pb_pessimistic"]["epsilon"] + 1e-8
        assert bounds["optimistic"]["epsilon"] >= bounds["pb_optimistic"]["epsilon"] - 1e-8


class TestValidation:
    def test_both_targets_rejected(self, capsys):
        code, err = run_cli(
            ["compute", *RR_ARGS, "--delta", "0.1", "--epsilon", "0.5"], capsys
        )
        assert code == 2
        assert "exactly one" in err

    def test_missing_mechanism_parameter(self, capsys):
        code, err = run_cli(
            [
                "compute",
                "--mechanism",
                "gaussian",
                "--discretization",
                "0.1",
                "--delta",
                "1e-5",
            ],
            capsys,
        )
        assert code == 2
        assert "noise-scale" in err

    def test_bad_grid_range(self, capsys):
        code, err = run_cli(
            [
                "compute",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "1",
                "--discretization",
                "0.1",
                "--delta",
                "1e-5",
                "--grid-range",
                "0.5",
                "2.0",
            ],
            capsys,
        )
        assert code == 2
        assert "eps_min < 0 < eps_max" in err

    def test_validity_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(request):
            raise pb.NumericalValidityError("synthetic gate failure")

        monkeypatch.setattr(cli, "run_compute", boom)
        code, err = run_cli(["compute", *RR_ARGS, "--delta", "0.2"], capsys)
        assert code == 3
        assert "synthetic gate failure" in err

    def test_unknown_mechanism_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--mechanism", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        config = {
            "mechanism": "randomized-response",
            "rr_epsilon": LN2,
            "discretization": LN2,
            "grid-range": [-LN2 - 1e-9, LN2 + 1e-9],
            "delta": 0.2,
            "estimate": "pessimistic",
        }
        path = tmp_path / "req.json"
        path.write_text(json.dumps(config))
        code, out = run_cli(["compute", "--config", str(path)], capsys)
        assert code == 0
        assert list(json.loads(out)["bounds"]) == ["pessimistic"]
        # a flag overrides the config value
        code, out = run_cli(
            ["compute", "--config", str(path), "--estimate", "both"], capsys
        )
        assert code == 0
        assert set(json.loads(out)["bounds"]) == {"pessimistic", "optimistic"}

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "req.json"
        path.write_text(json.dumps({"mechanismm": "gaussian"}))
        code, err = run_cli(["compute", "--config", str(path)], capsys)
        assert code == 2
        assert "mechanismm" in err


class TestSweep:
    def test_columns_and_ordering(self, capsys):
        code, out = run_cli(
            [
                "sweep",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "2.0",
                "--discretization",
                "0.05",
                "--delta",
                "1e-5",
                "--compositions",
                "1,2,4",
                "--baseline",
                "pb",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["compositions"] for r in rows] == ["1", "2", "4"]
        header = rows[0].keys()
        assert list(header)[:5] == [
            "compositions",
            "eps_pessimistic",
            "eps_optimistic",
            "eps_pb_pessimistic",
            "eps_pb_optimistic",
        ]
        eps = [float(r["eps_pessimistic"]) for r in rows]
        assert eps == sorted(eps)
        for r in rows:
            assert float(r["eps_optimistic"]) <= float(r["eps_pessimistic"]) + 1e-9
            assert float(r["eps_pessimistic"]) <= float(r["eps_pb_pessimistic"]) + 1e-9

    def test_single_count_matches_compute(self, capsys):
        common = [
            "--mechanism",
            "gaussian",
            "--noise-scale",
            "2.0",
            "--discretization",
            "0.05",
            "--delta",
            "1e-5",
        ]
        _, sweep_out = run_cli(["sweep", *common, "--compositions", "3"], capsys)
        row = next(csv.DictReader(io.StringIO(sweep_out)))
        _, compute_out = run_cli(["compute", *common, "--compositions", "3"], capsys)
        payload = json.loads(compute_out)
        assert float(row["eps_pessimistic"]) == pytest.approx(payload["eps_high"], abs=1e-12)
        assert float(row["eps_optimistic"]) == pytest.approx(payload["eps_low"], abs=1e-12)

    def test_repeats_add_percentile_columns(self, capsys):
        code, out = run_cli(
            [
                "sweep",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "2.0",
                "--discretization",
                "0.1",
                "--delta",
                "1e-5",
                "--compositions",
                "1,2",
                "--repeats",
                "3",
            ],
            capsys,
        )
        assert code == 0
        header = next(csv.reader(io.StringIO(out)))
        assert header[-2:] == ["runtime_ms_p25", "runtime_ms_p75"]

    def test_descending_counts_rejected(self, capsys):
        code, err = run_cli(
            [
                "sweep",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "2.0",
                "--discretization",
                "0.1",
                "--delta",
                "1e-5",
                "--compositions",
                "4,2",
            ],
            capsys,
        )
        assert code == 2
        assert "ascending" in err

    def test_sweep_requires_delta(self, capsys):
        code, err = run_cli(
            [
                "sweep",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "2.0",
                "--discretization",
                "0.1",
                "--epsilon",
                "1.0",
                "--compositions",
                "1,2",
            ],
            capsys,
        )
        assert code == 2
        assert "delta" in err


def readme_commands() -> list[list[str]]:
    """The ``pldbounds`` commands of the README's CLI section, as argument lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("pldbounds ")]


def readme_command(verb: str, mechanism: str) -> list[str]:
    (args,) = [
        a for a in readme_commands() if a[0] == verb and a[a.index("--mechanism") + 1] == mechanism
    ]
    return args


def with_out(args: list[str], path: Path) -> list[str]:
    """The command with ``--out`` (added or replaced) pointing at ``path``."""
    if "--out" in args:
        at = args.index("--out")
        return [*args[: at + 1], str(path), *args[at + 2 :]]
    return [*args, "--out", str(path)]


class TestReadmeCommands:
    def test_compute(self, tmp_path):
        out = tmp_path / "compute.json"
        assert cli.main(with_out(readme_command("compute", "gaussian"), out)) == 0
        payload = json.loads(out.read_text())
        assert payload["compositions"] == 1000
        assert set(payload["bounds"]) == {"pessimistic", "optimistic"}
        assert payload["eps_low"] <= payload["eps_high"]

    def test_subsampled_gaussian_sweep(self, tmp_path):
        args = readme_command("sweep", "subsampled-gaussian")
        assert "--out" in args and "--repeats" in args
        out = tmp_path / "sweep.csv"
        assert cli.main(with_out(args, out)) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert len(rows) == 10
        assert list(rows[0]) == [
            "compositions",
            "eps_pessimistic",
            "eps_optimistic",
            "eps_pb_pessimistic",
            "eps_pb_optimistic",
            "runtime_ms",
            "runtime_ms_p25",
            "runtime_ms_p75",
        ]
        assert [int(r["compositions"]) for r in rows] == list(range(100, 1001, 100))
        for r in rows:
            low, high = float(r["eps_optimistic"]), float(r["eps_pessimistic"])
            assert low <= high <= float(r["eps_pb_pessimistic"]) + 1e-9


class TestCurveVerb:
    def test_column_ordering_holds_pointwise(self, capsys):
        code, out = run_cli(
            [
                "curve",
                "--mechanism",
                "gaussian",
                "--noise-scale",
                "1.0",
                "--discretization",
                "0.5",
                "--grid-range",
                "-2",
                "2",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows, "curve output must contain rows"
        alphas = [float(r["alpha"]) for r in rows]
        assert alphas == sorted(alphas)
        for r in rows:
            h_opt = float(r["h_optimistic"])
            h_true = float(r["h_true"])
            h_pess = float(r["h_pessimistic"])
            h_pb = float(r["h_pb_pessimistic"])
            assert h_opt <= h_true + 1e-12
            assert h_true <= h_pess + 1e-12
            assert h_pess <= h_pb + 1e-12

    def test_rr_lossless_grid_all_columns_equal(self, capsys):
        code, out = run_cli(["curve", *RR_ARGS], capsys)
        assert code == 0
        for r in csv.DictReader(io.StringIO(out)):
            h_true = float(r["h_true"])
            for col in ("h_pessimistic", "h_optimistic", "h_pb_pessimistic"):
                assert float(r[col]) == pytest.approx(h_true, abs=1e-9)

    def test_identity_rows_for_degenerate_range(self, capsys):
        # a pure point-mass discretization reproduces the line 1 - alpha
        code, out = run_cli(
            [
                "curve",
                "--mechanism",
                "randomized-response",
                "--rr-epsilon",
                "1e-9",
                "--discretization",
                "0.5",
                "--grid-range",
                "-0.5",
                "0.5",
            ],
            capsys,
        )
        assert code == 0
        for r in csv.DictReader(io.StringIO(out)):
            a = float(r["alpha"])
            assert float(r["h_true"]) == pytest.approx(max(1 - a, 0.0), abs=1e-8)


def test_twelve_significant_digits():
    assert cli._fmt(1.0 / 3.0) == "0.333333333333"
    assert cli._fmt(float("inf")) == "inf"
    assert cli._fmt(1234567.0) == "1234567"
