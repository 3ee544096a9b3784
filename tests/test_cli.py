"""Command-line surface: schemas, determinism, exit codes, config files."""

import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest

import pldbounds as pb
from pldbounds import cli, report

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

    @pytest.mark.parametrize(
        "args, message",
        [
            (["compute", "--config", "no/such/config.json"], "cannot read config file"),
            (["compute", "--config", "LIST"], "flat JSON object"),
            (["compute", "--discretization", "0.1", "--delta", "1e-5"], "--mechanism is required"),
            (["compute", *RR_ARGS, "--delta", "0.2", "--compositions", "a"], "bad composition count"),
            (["sweep", *RR_ARGS, "--delta", "0.2", "--compositions", ","], "no composition counts given"),
            (["compute", *RR_ARGS, "--delta", "0.2", "--compositions", "1,2"], "compute takes a single"),
            (["compute", "--mechanism", "gaussian", "--noise-scale", "1", "--delta", "1e-5"],
             "--discretization is required"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, tmp_path, args, message):
        listing = tmp_path / "list.json"
        listing.write_text("[1, 2]")
        code, err = run_cli([str(listing) if arg == "LIST" else arg for arg in args], capsys)
        assert code == 2
        assert message in err


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

    def test_a_config_integer_too_long_to_read_is_refused(self, capsys, tmp_path):
        # json reads no int of more than 4300 digits; that used to escape as a raw ValueError
        path = tmp_path / "req.json"
        path.write_text('{"mechanism": "gaussian", "compositions": 1' + "0" * 5000 + "}")
        code, err = run_cli(["compute", "--config", str(path)], capsys)
        assert code == 2
        assert "cannot read config file" in err

    @pytest.mark.parametrize("command", ["compute", "sweep"])
    def test_misspelt_mechanism_rejected(self, capsys, tmp_path, command):
        # used to run subsampled Laplace: every unknown name fell through to it
        path = tmp_path / "req.json"
        path.write_text(
            json.dumps(
                {
                    "mechanism": "subsampled-gausian",
                    "noise_scale": 5,
                    "sampling_prob": 0.01,
                    "discretization": 0.05,
                    "delta": 1e-5,
                }
            )
        )
        code, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert "mechanism" in err and "subsampled-gausian" in err

    @pytest.mark.parametrize("command", ["compute", "sweep"])
    def test_unknown_output_format_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "req.json"
        path.write_text(json.dumps({"output": "xml"}))
        args = [command, "--config", str(path), *RR_ARGS, "--delta", "0.2"]
        code, err = run_cli(args, capsys)
        assert code == 2
        assert "output" in err and "xml" in err

    @pytest.mark.parametrize(
        "entry, code",
        [
            # non-integral or boolean counts used to be truncated or read as 1
            ({"compositions": [2.5, 4.9]}, 2),
            ({"compositions": [True]}, 2),
            ({"compositions": True}, 2),
            ({"repeats": 2.7}, 2),
            # these used to die with a raw ValueError or IndexError
            ({"repeats": "x"}, 2),
            ({"discretization": "x"}, 2),
            ({"noise_scale": "abc"}, 2),
            ({"delta": "1e-5x"}, 2),
            ({"grid_range": "ab"}, 2),
            ({"grid_range": [-1]}, 2),
            ({"delta": True}, 2),
            ({"out": ["x"]}, 2),
            ({"compositions": [1, 2]}, 0),
            ({"compositions": 2}, 0),
            ({"compositions": "1,2"}, 0),
            ({"repeats": 2}, 0),
            ({"grid_range": [-1, 1]}, 0),
            # JSON's NaN and Infinity used to pass the config and be refused
            # later, without the key
            ({"delta": math.nan}, 2),
            ({"rr_epsilon": math.inf}, 2),
            ({"grid_range": [-1, math.nan]}, 2),
        ],
    )
    def test_config_values_must_have_their_flags_types(self, capsys, tmp_path, entry, code):
        config = {
            "mechanism": "randomized-response",
            "rr_epsilon": LN2,
            "discretization": LN2,
            "delta": 0.2,
            **entry,
        }
        path = tmp_path / "req.json"
        path.write_text(json.dumps(config))
        got, text = run_cli(["sweep", "--config", str(path)], capsys)
        assert got == code, text
        if code:
            (key,) = entry
            assert f"config key {key!r}" in text


#: Flags every parity request starts from, by config key.
PARITY_BASE = {
    "mechanism": "subsampled-gaussian",
    "noise_scale": 1.0,
    "sampling_prob": 0.01,
    "discretization": 0.1,
    "delta": 1e-5,
}

#: Per config key: the value given as the flag, a different value the config
#: gives when the flag must win (null for the one-choice ``baseline``), and
#: the base keys the flag replaces besides its own (``rr_epsilon`` also
#: switches the mechanism to randomized response).
PARITY_VALUES = {
    "mechanism": ("laplace", "gaussian", ()),
    "noise_scale": (2.0, 3.0, ()),
    "rr_epsilon": (0.5, 1.0, ("noise_scale", "sampling_prob")),
    "sampling_prob": (0.02, 0.03, ()),
    "adjacency": ("add", "remove", ()),
    "compositions": ("1,2", "3", ()),
    "delta": (1e-6, 1e-7, ()),
    "epsilon": (1.0, 2.0, ("delta",)),
    "discretization": (0.05, 0.2, ()),
    "estimate": ("optimistic", "pessimistic", ()),
    "baseline": ("pb", None, ()),
    "grid_range": ([-1.0, 1.0], [-2.0, 2.0], ()),
    "output": ("json", "csv", ()),
    "out": ("first.csv", "second.csv", ()),
    "repeats": (2, 3, ()),
}


def as_flags(settings: dict) -> list[str]:
    words = []
    for key, value in settings.items():
        values = value if isinstance(value, list) else [value]
        words += [f"--{key.replace('_', '-')}", *map(str, values)]
    return words


def test_flag_table_is_what_parity_covers():
    assert list(PARITY_VALUES) == list(cli._FLAGS)


@pytest.mark.parametrize("key", PARITY_VALUES)
def test_a_flag_and_its_config_key_build_the_same_request(monkeypatch, tmp_path, key):
    calls = []

    def sweep(request, counts, repeats):
        calls.append((request, counts, repeats))
        return ["compositions"], [{"compositions": counts[0]}]

    monkeypatch.setattr(cli, "run_sweep", sweep)
    monkeypatch.setattr(cli, "_emit", lambda text, out: calls.append((text, out)))
    flag_value, other, replaced = PARITY_VALUES[key]
    base = {name: v for name, v in PARITY_BASE.items() if name not in (key, *replaced)}
    if key == "rr_epsilon":
        base["mechanism"] = "randomized-response"

    def built(flags: dict, config: dict | None = None) -> list:
        args = ["sweep", *as_flags({**base, **flags})]
        if config is not None:
            path = tmp_path / "req.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        calls.clear()
        assert cli.main(args) == 0
        return list(calls)

    from_flag = built({key: flag_value})
    assert built({}, {key: flag_value}) == from_flag
    assert built({key: flag_value}, {key: other}) == from_flag
    # the value reaches the request: another one, or none, builds another
    assert built({} if other is None else {key: other}) != from_flag


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

    def test_subsampled_laplace_sweep(self, tmp_path):
        # its pessimistic single step's kink products summed to 1 + 4.4e-14,
        # and from n = 300 the sweep exited 3 before printing a row
        out = tmp_path / "sweep.csv"
        assert cli.main(with_out(readme_command("sweep", "subsampled-laplace"), out)) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [int(r["compositions"]) for r in rows] == [100, 200, 300, 400, 500]
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


@pytest.mark.parametrize(
    "mechanism, spacing",
    [
        (pb.MechanismSpec.gaussian(2.0), 0.05),
        (pb.MechanismSpec.laplace(1.0), 0.02),
        (pb.MechanismSpec.randomized_response(1.0), 0.01),
        (pb.MechanismSpec.poisson_subsampled(pb.MechanismSpec.gaussian(1.0), 0.01), 0.01),
    ],
)
def test_curve_rows_match_per_sample_evaluation(mechanism, spacing):
    """run_curve's columns against one scalar evaluation per sample."""
    request = pb.AccountingRequest(mechanism=mechanism, discretization=spacing, delta_target=1e-5)
    columns, rows = report.run_curve(request)
    curve = pb.curve_for(mechanism)
    lo, hi = pb.default_epsilon_range(curve, spacing)
    grid = pb.DiscretizationGrid.uniform(spacing, lo, hi)
    pess = pb.curve_of(pb.pessimistic_pair(curve, grid))
    opt = pb.curve_of(pb.optimistic_pair(curve, grid))
    pb_pld = pb.pb_pessimistic_pld(curve, grid)
    finite = grid.alphas[: grid.k].tolist()
    samples = []
    for a, b in zip(finite, finite[1:]):
        samples += [a, math.sqrt(a * b) if a > 0 else 0.5 * b]
    samples.append(finite[-1])
    assert [row["alpha"] for row in rows] == samples
    references = {"h_true": curve, "h_pessimistic": pess, "h_optimistic": opt}
    for row in rows:
        a = row["alpha"]
        for column, reference in references.items():
            assert row[column].hex() == reference.value(a).hex(), (column, a)
        expected = pb.delta_at(pb_pld, math.log(a) if a > 0 else -math.inf)
        assert abs(row["h_pb_pessimistic"] - expected) <= 1e-12


_RR = pb.MechanismSpec.randomized_response(1.0)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"delta_target": 0.0}, r"delta_target must lie in \(0, 1\]"),
        ({"delta_target": 1.5}, r"delta_target must lie in \(0, 1\]"),
        ({"epsilon_target": math.inf}, "epsilon_target must be finite"),
        ({"delta_target": 1e-5, "discretization": 0.0}, "discretization must be positive"),
        ({"delta_target": 1e-5, "discretization": math.nan}, "discretization must be positive"),
        ({"delta_target": 1e-5, "estimate": "middle"}, "estimate must be one of"),
        ({"delta_target": 1e-5, "baseline": "exact"}, "baseline must be 'pb' or omitted, got 'exact'"),
        # bools and strings are not numbers, and the grid range is a pair of finite numbers
        ({"delta_target": True}, r"delta_target must lie in \(0, 1\], got True"),
        ({"delta_target": "1e-5"}, r"delta_target must lie in \(0, 1\], got '1e-5'"),
        ({"epsilon_target": True}, "epsilon_target must be finite, got True"),
        ({"epsilon_target": "1"}, "epsilon_target must be finite, got '1'"),
        ({"delta_target": 1e-5, "discretization": True}, "discretization must be positive, got True"),
        ({"delta_target": 1e-5, "discretization": "0.1"}, "discretization must be positive, got '0.1'"),
        ({"delta_target": 1e-5, "grid_range": ("a", "b")}, r"grid range must satisfy .* got \['a', 'b'\]"),
        ({"delta_target": 1e-5, "grid_range": (-1.0, 0.0, 1.0)}, r"grid_range must be a pair \(eps_min, eps_max\)"),
        ({"delta_target": 1e-5, "grid_range": 1.0}, r"grid_range must be a pair \(eps_min, eps_max\), got 1.0"),
        ({"delta_target": 1e-5, "grid_range": (-math.inf, math.inf)}, r"grid range must satisfy .* got \[-inf, inf\]"),
        ({"delta_target": 1e-5, "grid_range": (-1.0, math.nan)}, r"grid range must satisfy .* got \[-1.0, nan\]"),
    ],
)
def test_requests_are_refused_naming_the_field(fields, message):
    with pytest.raises(pb.RequestError, match=message):
        pb.AccountingRequest(**{"mechanism": _RR, "discretization": 0.01, **fields})


@pytest.mark.parametrize("query, answer", [("epsilon_for_delta", "epsilon"), ("delta_for_epsilon", "delta")])
def test_reports_refuse_an_optimistic_answer_above_the_pessimistic(query, answer):
    def outcome(method, value):
        values = {"epsilon": None, "delta": None, answer: value}
        return report.BoundOutcome(method, values["epsilon"], values["delta"], 3, 0.0, 0.0, 0.0)

    def make(low, high):
        return report.PrivacyBoundReport(
            query=query, delta_target=None, epsilon_target=None, compositions=1,
            discretization=0.1, grid_epsilon_range=(-1.0, 1.0),
            outcomes={"pessimistic": outcome("pessimistic", high), "optimistic": outcome("optimistic", low)},
            runtime_ms=0.0,
        )

    make(0.5, 0.5)
    message = f"bound inversion: optimistic {answer} above pessimistic"
    with pytest.raises(pb.NumericalValidityError, match=message):
        make(0.5, 0.25)


def test_twelve_significant_digits():
    assert cli._fmt(1.0 / 3.0) == "0.333333333333"
    assert cli._fmt(float("inf")) == "inf"
    assert cli._fmt(1234567.0) == "1234567"
