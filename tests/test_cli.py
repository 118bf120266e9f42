import json

import pytest

import orbitmetric
from orbitmetric import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pair_rotation_close_points(capsys):
    code, out, _ = run(["pair", "--system", "circle", "--alpha",
                        "0.6180339887498949", "--x", "0.2", "--y", "0.3",
                        "--n", "1000"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# metric=pair system=")
    assert lines[1].startswith("# config=")
    assert lines[2] == "n,ebar,besicovitch"
    n, ebar, bes = lines[3].split(",")
    assert n == "1000"
    assert float(ebar) <= 0.1
    assert float(bes) == pytest.approx(0.1, abs=1e-9)
    assert lines[-1].startswith("# summary=")


def test_pair_json_payload_structure(capsys):
    code, out, _ = run(["pair", "--system", "shift", "--x", "0(01)*",
                        "--y", "(0)*", "--n", "100", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == orbitmetric.__version__
    assert payload["config"]["command"] == "pair"
    assert payload["config"]["x"] == "0(01)*"
    assert payload["observations"]
    assert set(payload["observations"][0]) == {"n", "ebar", "besicovitch"}


def test_pair_fraction_points_on_doubling(capsys):
    code, out, _ = run(["pair", "--system", "doubling", "--x", "1/3",
                        "--y", "2/3", "--n", "64"], capsys)
    assert code == 0
    # both points live on the same period-two cycle, so the matching is free
    row = out.strip().splitlines()[3].split(",")
    assert float(row[1]) <= 1 / 64 + 1e-12


def test_pair_product_system_points(capsys):
    system = json.dumps({"kind": "product",
                         "first": {"kind": "circle_rotation", "alpha": 0.3},
                         "second": {"kind": "tent_map"}})
    code, out, _ = run(["pair", "--system-json", system,
                        "--x", "[0.1, 0.2]", "--y", "[0.1, 0.2]",
                        "--n", "50"], capsys)
    assert code == 0
    row = out.strip().splitlines()[3].split(",")
    assert float(row[1]) == pytest.approx(0.0, abs=1e-9)


def test_example31_small_block_table(capsys):
    code, out, _ = run(["example31", "--blocks", "4"], capsys)
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[:3] == ["block", "n", "ebar_n"]
    ns = [int(l.split(",")[1]) for l in lines[1:]]
    assert ns == [1, 3, 9, 33]
    assert "verdict=consistent" in out


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_strict_flag_escalates_violations(capsys):
    argv = ["modulus", "--system", "shift", "--delta", "0.0009765625",
            "--pairs", "5", "--schedule-max", "300"]
    assert cli.main(argv) == 0
    assert "verdict=violated" in capsys.readouterr().out
    assert cli.main(argv + ["--strict"]) == 1
    capsys.readouterr()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "circle", "alpha": 0.25,
                               "x": 0.0, "y": 0.1, "n": 100, "seed": 3}))
    code, out, _ = run(["pair", "--config", str(cfg)], capsys)
    assert code == 0
    echoed = json.loads(out.splitlines()[1].removeprefix("# config="))
    assert echoed["seed"] == 3
    assert echoed["system"]["alpha"] == 0.25


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"system": "circle", "alpha": 0.25,
                               "x": 0.0, "y": 0.1, "n": 100, "seed": 3}))
    code, out, _ = run(["pair", "--config", str(cfg), "--seed", "9"], capsys)
    assert code == 0
    echoed = json.loads(out.splitlines()[1].removeprefix("# config="))
    assert echoed["seed"] == 9


@pytest.mark.parametrize("field", [{"alpha": "0.3"}, {"horizon": 8.0}])
def test_config_file_system_fields_are_checked_like_system_json(tmp_path, capsys, field):
    cfg = tmp_path / "run.json"
    system = "circle" if "alpha" in field else "shift"
    cfg.write_text(json.dumps({"system": system, **field, "points": 2,
                               "schedule_max": 10}))
    code, out, err = run(["ue", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("field, flag", [({"points": 2.9}, "--points"),
                                         ({"schedule_max": 10.7}, "--schedule-max"),
                                         ({"tail_start": 1.9}, "--tail-start")])
def test_config_file_counts_must_be_integers(tmp_path, capsys, field, flag):
    cfg = tmp_path / "run.json"
    values = {"system": "circle", "alpha": 0.3, "points": 2, "schedule_max": 10,
              "tail_start": 1}
    cfg.write_text(json.dumps({**values, **field}))
    code, out, err = run(["ue", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be an integer")
    # integral floats are exact, so they are taken as they are
    cfg.write_text(json.dumps({**values, **{k: float(v) for k, v in values.items()
                                            if k != "system"}}))
    code, out, _ = run(["ue", "--config", str(cfg)], capsys)
    assert code == 0
    echoed = json.loads(out.splitlines()[1].removeprefix("# config="))
    assert (echoed["points"], echoed["checkpoints"][-1], echoed["tail_start"]) == (2, 10, 1)


def test_birkhoff_echoes_config_and_verdict(capsys):
    code, out, _ = run(["birkhoff", "--system", "shift", "--points", "3",
                        "--schedule-max", "60", "--seed", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# metric=birkhoff_profile system=")
    echoed = json.loads(lines[1].removeprefix("# config="))
    assert set(echoed) == {"command", "system", "observable", "points", "threshold",
                           "checkpoints", "tail_start", "seed", "format"}
    assert echoed["command"] == "birkhoff"
    # the shift's default observable is its leading symbol
    assert echoed["observable"] == "symbol0"
    assert echoed["points"] == 3 and echoed["seed"] == 2
    assert lines[-1] == "# verdict=violated"


def test_meaneq_echoes_config_and_verdict(capsys):
    code, out, _ = run(["meaneq", "--system", "circle", "--alpha", "0.3",
                        "--delta", "0.05", "--pairs", "2", "--format", "json"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload["config"]) == {"command", "system", "delta", "pairs",
                                      "threshold", "checkpoints", "tail_start",
                                      "seed", "format"}
    assert payload["config"]["command"] == "meaneq"
    # meaneq's default schedule is shorter than the other commands'
    assert payload["config"]["checkpoints"][-1] == cli.MEANEQ_SCHEDULE_MAX
    assert payload["verdict"] == "inconclusive"
    assert len(payload["observations"]) == 2


def test_malformed_config_reports_position(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"system": "circle",\n  "alpha": }')
    code, _, err = run(["pair", "--config", str(cfg)], capsys)
    assert code == 2
    assert "line 2" in err


def test_unknown_flag_lists_subcommand_usage(capsys):
    code, _, err = run(["pair", "--frobnicate", "1"], capsys)
    assert code == 2
    assert "unrecognized arguments: --frobnicate" in err
    assert "--x X" in err


def test_missing_command_is_an_error(capsys):
    assert cli.main([]) == 2
    assert "command" in capsys.readouterr().err


def test_conflicting_system_definitions(capsys):
    code, _, err = run(["pair", "--system", "circle", "--alpha", "0.3",
                        "--system-json", '{"kind": "tent_map"}',
                        "--x", "0", "--y", "0.1", "--n", "10"], capsys)
    assert code == 2
    assert "system" in err.lower()


def test_invalid_rotation_angle(capsys):
    code, _, err = run(["pair", "--system", "circle", "--alpha", "1.5",
                        "--x", "0", "--y", "0.1", "--n", "10"], capsys)
    assert code == 2
    assert "rotation angle" in err


def test_circle_requires_alpha(capsys):
    code, _, err = run(["pair", "--system", "circle",
                        "--x", "0", "--y", "0.1", "--n", "10"], capsys)
    assert code == 2
    assert "alpha" in err.lower()


def test_system_json_missing_field_is_an_input_error(capsys):
    for spec in ('{"kind": "circle_rotation"}',
                 '{"kind": "circle_rotation", "alpha": null}'):
        code, _, err = run(["pair", "--system-json", spec,
                            "--x", "0", "--y", "0.1", "--n", "10"], capsys)
        assert code == 2
        assert "bad system description" in err and "alpha" in err


def test_threshold_must_be_a_positive_number(capsys):
    for value in ("0", "-1", "nan"):
        code, _, err = run(["ue", "--system", "tent", "--points", "2",
                            "--schedule-max", "10", "--threshold", value], capsys)
        assert code == 2
        assert "--threshold must be positive" in err


def test_bad_shift_point_string(capsys):
    code, _, err = run(["pair", "--system", "shift", "--x", "012",
                        "--y", "(0)*", "--n", "10"], capsys)
    assert code == 2


def test_schedule_flag_conflicts(capsys):
    code, _, err = run(["pair", "--system", "tent", "--x", "0.1", "--y", "0.2",
                        "--n", "10", "--checkpoints", "5,10"], capsys)
    assert code == 2
    assert "schedule" in err.lower() or "checkpoints" in err.lower() or "--n" in err


def test_output_file_runs_are_byte_identical(tmp_path, capsys):
    argv = ["ue", "--system", "circle", "--alpha", "0.6180339887498949",
            "--points", "4", "--schedule-max", "200", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["example31", "--blocks", "3"]
    path = tmp_path / "r.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert path.read_text() == out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert orbitmetric.__version__ in capsys.readouterr().out
