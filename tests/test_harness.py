"""Experiment harness: configs, suite dispatch, report rendering, CLI."""

import csv
import io
import json
import os

import pytest

from mdimlab import constants as C
from mdimlab import machine
from mdimlab.cli import main
from mdimlab.harness import (
    InvalidConfigError,
    config_from_mapping,
    load_config,
    run_suite,
    write_report,
)

FAST_MACHINE = {"max_program_len": 16, "step_budget": 1000}


class TestConfig:
    def test_unknown_suite(self):
        with pytest.raises(InvalidConfigError):
            config_from_mapping({"suite": "entropy"})

    def test_unknown_backend(self):
        with pytest.raises(InvalidConfigError):
            config_from_mapping({"suite": "machine", "backend": "gzip"})

    def test_bad_window(self):
        with pytest.raises(InvalidConfigError):
            config_from_mapping({"suite": "mdim", "window": [4096, 1024]})

    def test_bad_format(self):
        with pytest.raises(InvalidConfigError):
            config_from_mapping({"suite": "machine", "format": "xml"})

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidConfigError):
            load_config(str(path))

    def test_unpinned_version_tag(self):
        with pytest.raises(InvalidConfigError, match="'v9'"):
            config_from_mapping({"suite": "coding-bounds",
                                 "machine": {"version_tag": "v9"}})

    def test_pinned_version_tag(self):
        cfg = config_from_mapping({"suite": "coding-bounds",
                                   "machine": {"version_tag": "v0"}})
        assert cfg.machine.version_tag == "v0"

    def test_defaults(self):
        cfg = config_from_mapping({"suite": "machine"})
        assert cfg.machine.max_program_len == C.BOUNDS_MAX_PROGRAM_LEN
        assert cfg.seed == 0
        assert cfg.out_format == "json"


class TestMachineSuite:
    def test_kraft_alias_and_pins(self):
        cfg = config_from_mapping({"suite": "kraft",
                                   "machine": FAST_MACHINE})
        report = run_suite(cfg)
        assert report.suite == "kraft"
        assert report.fail_count == 0
        key = (16, 1000)
        assert report.measured_constants["kraft_mass"] == C.KRAFT_MASS[key]
        assert report.measured_constants["halting_count"] == (
            C.HALTING_COUNT[key]
        )

    def test_rows_schema(self):
        cfg = config_from_mapping({"suite": "machine",
                                   "machine": FAST_MACHINE})
        report = run_suite(cfg)
        for row in report.rows:
            assert set(row) == {"check", "detail", "value", "bound", "status"}
            assert row["status"] in ("pass", "fail", "info")
        gated = [r for r in report.rows if r["status"] != "info"]
        assert report.pass_count + report.fail_count == len(gated)

    def test_runs_each_program_once(self, monkeypatch):
        # one exhaustive pass feeds the counts, the mass and both prefix checks
        calls = 0
        execute = machine._execute

        def counted(*args):
            nonlocal calls
            calls += 1
            return execute(*args)

        monkeypatch.setattr(machine, "_ENUM_CACHE", {})
        monkeypatch.setattr(machine, "_execute", counted)
        cfg = config_from_mapping({"suite": "machine",
                                   "machine": FAST_MACHINE})
        assert run_suite(cfg).fail_count == 0
        assert calls == sum(1 for _ in machine.iter_valid_programs(16)) == 1023


@pytest.fixture(scope="module")
def report():
    cfg = config_from_mapping({"suite": "machine", "machine": FAST_MACHINE})
    return run_suite(cfg)


class TestRendering:
    def test_json_deterministic(self, report):
        cfg = config_from_mapping({"suite": "machine",
                                   "machine": FAST_MACHINE})
        again = run_suite(cfg)
        assert report.to_json() == again.to_json()
        assert report.to_csv() == again.to_csv()

    def test_json_schema(self, report):
        data = json.loads(report.to_json())
        assert set(data) == {"suite", "pass_count", "fail_count",
                             "measured_constants", "rows"}
        assert data["fail_count"] == 0

    def test_csv_parses_back(self, report):
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["check", "detail", "value", "bound", "status"]
        assert rows[1][0] == "summary"
        assert all(len(row) == 5 for row in rows)

    def test_write_report(self, report, tmp_path):
        out = tmp_path / "report.csv"
        cfg = config_from_mapping({"suite": "machine",
                                   "machine": FAST_MACHINE,
                                   "format": "csv", "out": str(out)})
        text = write_report(report, cfg)
        assert out.read_text(encoding="utf-8") == text


class TestCli:
    def _config_file(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_success_exit(self, tmp_path, capsys):
        path = self._config_file(
            tmp_path, {"suite": "machine", "machine": FAST_MACHINE}
        )
        assert main(["machine", "--config", path]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["fail_count"] == 0

    def test_bad_config_exit(self, tmp_path):
        path = self._config_file(tmp_path, {"suite": "machine",
                                            "backend": "gzip"})
        assert main(["machine", "--config", path]) == 2

    @pytest.mark.parametrize("suite, payload, field", [
        ("kprofile", {"generators": [{"kind": "bogus"}]}, "generators[0]"),
        ("kprofile", {"generators": [{"kind": "rational", "values": ["3/2"]}]},
         "generators[0]"),
        ("dpi", {"functions": [{"name": "scale"}]}, "functions[0]"),
        ("dpi", {"functions": [{"name": "identity", "params": {"n": 1}},
                               {"name": "nosuch"}]}, "functions[1]"),
        ("dpi", {"functions": [{"name": "sum", "params": {"n": 3}}]},
         "arity 3"),
        ("mdim", {"window": ["a", 2048]}, "window"),
        ("geometry", {"seed": "x"}, "seed"),
        ("machine", {"machine": []}, "machine"),
        ("machine", {"machine": {"max_program_len": -1}}, "machine"),
        ("mdim", {"backend": "exact_machine"}, "backend"),
        ("machine", {"backend": "exact_machine"}, "backend"),
        ("machine", {"machine": FAST_MACHINE, "out": 5}, "out"),
        ("machine", {"machine": FAST_MACHINE, "out": "/nonexistent/x.json"},
         "out"),
    ])
    def test_malformed_config_exit(self, tmp_path, capsys, monkeypatch,
                                   suite, payload, field):
        # rejected before any suite work: no report, no enumeration
        monkeypatch.setattr(machine, "_ENUM_CACHE", {})
        path = self._config_file(tmp_path, {"suite": suite, **payload})
        assert main([suite, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert field in captured.err
        assert machine._ENUM_CACHE == {}

    def test_unusable_out_flag_exit(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(machine, "_ENUM_CACHE", {})
        path = self._config_file(
            tmp_path, {"suite": "machine", "machine": FAST_MACHINE}
        )
        for out in (tmp_path / "missing" / "rep.json", tmp_path):
            assert main(["machine", "--config", path, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: out ")
        assert machine._ENUM_CACHE == {}

    def test_compressor_backend_report_unchanged(self, tmp_path, capsys):
        base = {"suite": "mdim", "window": [1024, 16384]}
        reports = []
        for payload in (base, {**base, "backend": "compressor"}):
            path = self._config_file(tmp_path, payload)
            main(["mdim", "--config", path])
            reports.append(capsys.readouterr().out)
        assert json.loads(reports[0])["rows"]
        assert reports[0] == reports[1]

    def test_unpinned_version_tag_exit(self, tmp_path, capsys):
        path = self._config_file(
            tmp_path, {"suite": "coding-bounds",
                       "machine": {"version_tag": "v9"}}
        )
        assert main(["coding-bounds", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "version_tag 'v9'" in captured.err

    def test_suite_mismatch_exit(self, tmp_path):
        path = self._config_file(
            tmp_path, {"suite": "geometry"}
        )
        assert main(["machine", "--config", path]) == 2

    def test_csv_out_file(self, tmp_path, capsys):
        path = self._config_file(
            tmp_path, {"suite": "machine", "machine": FAST_MACHINE}
        )
        out = tmp_path / "rep.csv"
        code = main(["machine", "--config", path,
                     "--format", "csv", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows[0] == ["check", "detail", "value", "bound", "status"]
