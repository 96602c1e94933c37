"""Command line behavior: output, file handling, and exit codes."""

import json
import pathlib

import pytest

from qodesign.cli import main
from qodesign.model import load_model

from test_model_io import NAT_MODEL

MODELS_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "qodesign" / "models"
TRACKING = str(MODELS_DIR / "tracking.model")
UAV_COST = str(MODELS_DIR / "uav_cost.model")


def test_validate_reports_counts(capsys):
    assert main(["validate", TRACKING]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tracking: ok (")
    assert "3 categories" in out
    assert "2 problems" in out
    assert "1 diagrams" in out


def test_validate_many_files(capsys):
    assert main(["validate", TRACKING, UAV_COST]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2
    assert out[1].startswith("uav_cost: ok")


def test_validate_missing_file_fails(capsys):
    assert main(["validate", "/tmp/not_a_real.model"]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_broken_model_fails(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("quantale Q = hyperreal\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "hyperreal" in err and "line 1" in err


def test_render_prints_canonical_text(capsys):
    assert main(["render", TRACKING]) == 0
    out = capsys.readouterr().out
    assert out == pathlib.Path(TRACKING).read_text()


def test_query_by_name(capsys):
    assert main(["query", TRACKING, "--name", "two_targets_at_10W"]) == 0
    out = capsys.readouterr().out
    assert "value         80" in out
    assert "via:" not in out


def test_query_verbose_shows_interface_contributions(capsys):
    assert (
        main(["query", TRACKING, "--name", "two_targets_at_10W", "--verbose"]) == 0
    )
    out = capsys.readouterr().out
    assert "via:" in out
    assert "Low: 90" in out and "High: 80" in out


def test_query_ad_hoc(capsys):
    code = main(
        [
            "query",
            TRACKING,
            "--diagram",
            "tracking",
            "--resource",
            "20W",
            "--functionality",
            "3tgt",
        ]
    )
    assert code == 0
    assert "value         80" in capsys.readouterr().out


def test_query_without_selector_is_usage_error(capsys):
    assert main(["query", TRACKING]) == 2
    assert "--name or --diagram" in capsys.readouterr().err


def test_query_unknown_object_fails(capsys):
    code = main(
        [
            "query",
            TRACKING,
            "--diagram",
            "tracking",
            "--resource",
            "15W",
            "--functionality",
            "2tgt",
        ]
    )
    assert code == 1
    assert "unknown resource" in capsys.readouterr().err


SHIPPED_RUNS = [
    (name, command, entry)
    for name in ("tracking", "tracking_bool", "uav_cost", "uav_powerset")
    for command, registry in (("query", "queries"), ("sweep", "sweeps"))
    for entry in getattr(load_model(MODELS_DIR / f"{name}.model"), registry)
]


@pytest.mark.parametrize("name, command, entry", SHIPPED_RUNS)
def test_shipped_queries_and_sweeps_print_what_the_document_returns(name, command, entry, capsys):
    path = str(MODELS_DIR / f"{name}.model")
    doc = load_model(path)
    if command == "query":
        argv = ["query", path, "--name", entry, "--verbose"]
        want = doc.run_query(entry, verbose=True).format(verbose=True)
    else:
        argv = ["sweep", path, "--name", entry]
        want = doc.run_sweep(entry).format_text()
    assert main(argv) == 0
    assert capsys.readouterr().out == want + "\n"


def test_sweep_text_table(capsys):
    assert main(["sweep", TRACKING, "--name", "operating_points"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sweep of tracking")
    assert "20W" in out and "inf" in out


def test_sweep_csv_to_stdout(capsys):
    assert main(["sweep", TRACKING, "--name", "operating_points", "--csv", "-"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "resource,1tgt,2tgt,3tgt"
    assert "5W,70,100,inf" in out


def test_sweep_writes_files(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    code = main(
        [
            "sweep",
            TRACKING,
            "--name",
            "operating_points",
            "--csv",
            str(csv_path),
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"wrote {csv_path}" in out and f"wrote {json_path}" in out
    assert csv_path.read_text().startswith("resource,")
    blob = json.loads(json_path.read_text())
    assert blob["diagram"] == "tracking"
    assert blob["rows"] == ["5W", "10W", "20W"]


def test_large_nats_print_exactly(tmp_path, capsys):
    path = tmp_path / "nats.model"
    path.write_text(NAT_MODEL.format(2**63))
    assert main(["render", str(path)]) == 0
    assert "  default: 9223372036854775808\n" in capsys.readouterr().out
    assert main(["query", str(path), "--name", "q"]) == 0
    assert "value         18446744073709551616" in capsys.readouterr().out
    assert main(["sweep", str(path), "--name", "s", "--csv", "-"]) == 0
    assert "a,18446744073709551616" in capsys.readouterr().out


def test_sweep_unknown_name_fails(capsys):
    assert main(["sweep", TRACKING, "--name", "nope"]) == 1
    assert "unknown sweep" in capsys.readouterr().err


def test_lax_check_passes_certified_maps(tmp_path, capsys):
    model = tmp_path / "maps.model"
    model.write_text(
        "quantale C = cost\n"
        "quantale B = bool\n"
        "map fin = cost_to_bool_finite(C -> B)\n"
        "map thr = cost_leq_threshold(C -> B, threshold=5)\n"
    )
    assert main(["lax-check", str(model), "--map", "fin"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fin:")
    assert main(["lax-check", str(model), "--map", "thr"]) == 1
    out = capsys.readouterr().out
    assert "oplax" in out and "witness" in out


@pytest.mark.parametrize(
    "params, message",
    [
        ("", "map kind 'scale' needs parameter 'factor'"),
        (", factor=two", "map kind 'scale': factor='two' is not a number"),
        (", factor=2, bogus=1", "map kind 'scale' takes no parameter 'bogus'"),
    ],
)
def test_bad_map_parameters_fail_validate(tmp_path, capsys, params, message):
    model = tmp_path / "maps.model"
    model.write_text(f"quantale C = cost\nmap m = scale(C -> C{params})\n")
    assert main(["validate", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {message} (line 2, col 1) [m]\n"


def test_lax_check_unknown_map(tmp_path, capsys):
    model = tmp_path / "maps.model"
    model.write_text("quantale C = cost\n")
    assert main(["lax-check", str(model), "--map", "ghost"]) == 1
    assert "unknown map" in capsys.readouterr().err


def test_classify_lax_prints_three_classes(capsys):
    assert main(["classify-lax", "--grid", "0,1,10,inf"]) == 0
    out = capsys.readouterr().out
    assert "3 lax table(s)" in out
    assert "only_free" in out and "all_finite" in out and "always" in out


def test_classify_lax_bad_grid_fails(capsys):
    assert main(["classify-lax", "--grid", "1,10"]) == 1
    assert "grid must contain" in capsys.readouterr().err


def test_classify_lax_non_numeric_point_is_usage_error(capsys):
    assert main(["classify-lax", "--grid", "0,abc,inf"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --grid: 'abc' is not a number\n"
    assert captured.out == ""


def test_missing_required_arguments_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["sweep", TRACKING])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_module_entry_point_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "qodesign.cli", "validate", TRACKING],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
