"""Experiment harness: configs, suite dispatch, report rendering, CLI."""

import csv
import io
import json
import os

import pytest

from mdimlab import constants as C
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
        assert cfg.backend.kind == "compressor"
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


class TestThreadCap:
    def test_threaded_report_identical(self, monkeypatch):
        cfg = config_from_mapping({
            "suite": "kprofile",
            "generators": [
                {"kind": "rational", "values": ["1/3"]},
                {"kind": "constant", "coords": ["1/2"]},
            ],
            "window": [1024, 4096],
        })
        serial = run_suite(cfg).to_json()
        monkeypatch.setenv("MDIMLAB_THREADS", "3")
        threaded = run_suite(cfg).to_json()
        assert serial == threaded


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
