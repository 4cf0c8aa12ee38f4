"""Experiment harness: configs, suite dispatch, report rendering, CLI."""

import ast
import csv
import hashlib
import importlib
import io
import json
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest

from mdimlab import constants as C
from mdimlab import harness, machine
from mdimlab.cli import main
from mdimlab.complexity import point_columns
from mdimlab.functions import ImageOracle, library_function
from mdimlab.harness import (
    SUITE_NAMES,
    InvalidConfigError,
    config_from_mapping,
    load_config,
    run_suite,
    write_report,
)
from mdimlab.oracles import make_oracle

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

    def test_deep_values_refused(self):
        # deeper than a JSON file can hold, so only a caller builds these
        generator = {"kind": "rational", "values": ["1/3"]}
        window = [1024, 2048]
        for _ in range(3000):
            generator = {"kind": "product", "factors": [generator]}
            window = [window]
        with pytest.raises(InvalidConfigError, match=r"generators\[0\]"):
            config_from_mapping({"suite": "kprofile", "generators": [generator]})
        with pytest.raises(InvalidConfigError, match="window"):
            config_from_mapping({"suite": "mdim", "window": window})

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidConfigError):
            load_config(str(path))

    def test_unpinned_version_tag(self):
        with pytest.raises(InvalidConfigError, match="'version_tag'"):
            config_from_mapping({"suite": "coding-bounds",
                                 "machine": {"version_tag": "v9"}})

    def test_pinned_version_tag(self):
        # the key selected nothing, so no value of it is accepted
        with pytest.raises(InvalidConfigError, match="'version_tag'"):
            config_from_mapping({"suite": "coding-bounds",
                                 "machine": {"version_tag": "v0"}})

    def test_defaults(self):
        cfg = config_from_mapping({"suite": "machine"})
        assert cfg.machine.max_program_len == C.BOUNDS_MAX_PROGRAM_LEN
        assert cfg.seed == 0
        assert cfg.out_format == "json"

    def test_dpi_images_checked_at_every_grid_precision(self):
        # random-7 agrees with diluted-1/2 through bit 1026, so x + 128 - c,
        # for c just above diluted-1/2 at 1024 bits, maps both below 128 at
        # r = 1024 and lifts random-7 to 128 only at r = 2048
        spec = {"kind": "diluted", "seed": 7, "rho": "1/2", "n": 1}
        d12 = make_oracle(spec)
        c = d12.query(1024).coords[0].to_fraction() + Fraction(1, 1 << 1100)
        shift = {"name": "affine",
                 "params": {"matrix": [["1"]], "offset": [str(128 - c)]}}
        f = library_function(shift["name"], shift["params"])
        for x in (d12, make_oracle({"kind": "random", "seed": 7, "n": 1})):
            point_columns(ImageOracle(f, x).query(1024), 1024)
        with pytest.raises(InvalidConfigError, match=r"functions\[0\]"):
            config_from_mapping({"suite": "dpi", "window": [1024, 2048],
                                 "functions": [shift]})

    def test_readme_example_parses(self):
        # every key and value of the documented example is accepted, so the
        # README cannot drift from the parser
        readme = Path(__file__).resolve().parents[1] / "README.md"
        (example,) = re.findall(r"```json\n(.*?)```",
                                readme.read_text(encoding="utf-8"), re.S)
        data = json.loads(example)
        assert config_from_mapping(data).suite == data["suite"]


class TestMachineSuite:
    def test_kraft_alias_and_pins(self):
        # the former alias is an unknown suite; its pins live on machine
        with pytest.raises(InvalidConfigError, match="unknown suite"):
            config_from_mapping({"suite": "kraft", "machine": FAST_MACHINE})
        cfg = config_from_mapping({"suite": "machine",
                                   "machine": FAST_MACHINE})
        report = run_suite(cfg)
        assert report.suite == "machine"
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
        # one exhaustive pass feeds the counts, the mass and both prefix
        # checks: the unconditional walk starts once for every level, its
        # classes share prefix runs instead of running payloads one by one,
        # and they count every halting program of the per-program reference
        walks = []
        executed = 0
        straight_walk = machine._straight_walk
        execute = machine._execute

        def counted_walk(top, budget, record):
            walks.append(record.__self__.given)
            return straight_walk(top, budget, record)

        def counted_execute(*args):
            nonlocal executed
            executed += 1
            return execute(*args)

        monkeypatch.setattr(machine, "_ENUM_CACHE", {})
        monkeypatch.setattr(machine, "_straight_walk", counted_walk)
        monkeypatch.setattr(machine, "_execute", counted_execute)
        cfg = config_from_mapping({"suite": "machine",
                                   "machine": FAST_MACHINE})
        assert run_suite(cfg).fail_count == 0
        assert walks == [""]
        assert executed == 0
        enum = machine.get_enumeration(cfg.machine)
        assert enum.halting_count == len(machine.enumerate_halting(cfg.machine))


# sha256 of the json and csv report of every suite: the estimator suites at
# their default config, geometry with seed 5, the machine suites and
# coding-bounds at (24, 256); a refactor must leave each byte unchanged
GOLDEN_MACHINE = {"max_program_len": 24, "step_budget": 256}
GOLDEN_DIGESTS = {
    "machine": (
        "4d7b1121c5ea090465d83675f88642944fe3557cbdc586ebc98fb3bf0869d9a8",
        "56ae5e79c33815273efb05b940ccc9d30196ee73dbf5cb22ea0fc32d206ed2d9",
    ),
    "geometry": (
        "d31e9aa986bb57a6025360034173ed3017c6a20ff1b05a388c5ca5f82d03c3af",
        "dc3e01514e48aae084e0d1ae99c74cdf23102423917eaadb6abb91c71dc4c7e9",
    ),
    "coding-bounds": (
        "953ecfb60c0111c4a48cf7619e5044b1ede3d6c7053d179e021852bce4310793",
        "fa13904da130f0533ac457059351067a692afb2979f08f4897c6665a1fffccd2",
    ),
    "kprofile": (
        "9d8800abd1b39490d462b656293e9aaf152e78afd1b2e5c995c17a912ce7abbe",
        "0832eb40ca5b704fc7e46a4f52c7d05876572e4e236b383824acffece8256cb5",
    ),
    "mdim": (
        "e147720bc937afcbe3ae3d3f605b7b86efe87afc9cfd8488574d03ddee2e94a6",
        "562effa9345623e1e7bdfd41cc5a1681242fd4cb83fd18bae2cf9abbd7ef3bd9",
    ),
    "dpi": (
        "e96b3c0f4828407c10cb913655434d33a52aa1f4b79a37e01f21dcf721deac21",
        "aa93ac0d2f1d5763d328fc285729969a7e65d31cf1e1e878c4b09c5b8953595c",
    ),
    "reverse-dpi": (
        "fbbc5ff890fade100b9487ac4008ebd0a0583a3f3c81a9647057e64e07ed46ad",
        "da00b93944bbbc092d1bfd0e1135a0bcdd66cee0ba5deda0f4430b4c05828169",
    ),
    "conservation": (
        "a1e57f57348132853c3dcac7de3650c861195c40d60271e168c07e238ba2d9ab",
        "96ba18d2083e9a6b496242dc41ece979507884f8f27bcdbeac574a02850d4bcb",
    ),
    "counterexample": (
        "47526c646906ff9928cabb3a504c623850e87085f48f36ebaac3b73638ac0396",
        "9e9e7f698e1b953ea1c42a6f6c7983307f3fbf2eeb46d05111109fd34e389704",
    ),
}


def test_golden_digests_cover_every_suite():
    assert set(GOLDEN_DIGESTS) == set(SUITE_NAMES)


@pytest.mark.parametrize("suite", sorted(GOLDEN_DIGESTS))
def test_report_golden_digest(suite):
    payload = {"suite": suite}
    if suite == "geometry":
        payload["seed"] = 5
    if suite in ("machine", "coding-bounds"):
        payload["machine"] = GOLDEN_MACHINE
    report = run_suite(config_from_mapping(payload))
    digests = tuple(
        hashlib.sha256(report.render(fmt).encode()).hexdigest()
        for fmt in ("json", "csv")
    )
    assert digests == GOLDEN_DIGESTS[suite]


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

    def test_kraft_is_an_unknown_suite(self, tmp_path, capsys):
        # the machine suite's former alias gets exit 2 from a config and
        # from the command line
        path = self._config_file(tmp_path, {"suite": "kraft",
                                            "machine": FAST_MACHINE})
        assert main(["machine", "--config", path]) == 2
        assert capsys.readouterr().err == "error: unknown suite: 'kraft'\n"
        with pytest.raises(SystemExit) as exc:
            main(["kraft"])
        assert exc.value.code == 2
        assert "invalid choice: 'kraft'" in capsys.readouterr().err

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
        ("machine", {"machine": {"max_program_len": 40}}, "item cap"),
        ("coding-bounds", {"machine": {"max_program_len": 40}}, "item cap"),
        ("kprofile", {"window": [1024, 1024]}, "window"),
        ("mdim", {"window": [5000, 6000]}, "window"),
        ("machine", {"machine": {"max_program_len": 16, "step_budgett": 5},
                     "formatt": "csv"}, "'formatt'"),
        ("machine", {"machine": {"max_program_len": 16, "step_budgett": 5}},
         "'step_budgett'"),
        ("machine", {"window": [5000, 6000]}, "window"),
        ("dpi", {"functions": [{"name": "scale", "params": {"c": "1/3"}}]},
         "functions[0]"),
        ("dpi", {"functions": [{"name": "affine", "params": {
            "matrix": [["1/3", "0"]], "offset": ["0"]}}]}, "functions[0]"),
        ("machine", {"machine": {"max_program_len": 16.9,
                                 "step_budget": True}}, "max_program_len"),
        ("dpi", {"functions": [{"name": "sum", "params": {"n": 2.7}}]},
         "functions[0]"),
        ("dpi", {"functions": [{"name": "projection",
                                "params": {"n": 2, "S": [1.5]}}]},
         "functions[0]"),
        ("geometry", {"seed": "5"}, "seed"),
        ("mdim", {"window": [1024, 4096.0]}, "window"),
        ("kprofile", {"generators": [{"kind": "random", "seed": 7.5}]},
         "generators[0]"),
        ("dpi", {"functions": [{"name": "scale", "params": {"c": 0.5}}]},
         "c must be"),
        ("kprofile", {"generators": [{"kind": "diluted", "seed": 7,
                                      "rho": 0.3}]}, "rho must be"),
        ("kprofile", {"generators": [{"kind": "rational", "values": [0.1]}]},
         "values[0] must be"),
        ("kprofile", {"generators": [{"kind": "constant", "coords": [0.5]}]},
         "coords[0] must be"),
        ("dpi", {"functions": [{"name": "affine", "params": {
            "matrix": [["1", 0.5]], "offset": ["0"]}}]}, "matrix[0][1] must be"),
        ("dpi", {"functions": [{"name": "scale", "params": {"c": True}}]},
         "c must be"),
        ("kprofile", {"generators": [{"kind": "constant", "coords": ["1000"]}]},
         "generators[0]"),
        ("kprofile", {"generators": [
            {"kind": "random", "seed": 7},
            {"kind": "product", "factors": [
                {"kind": "constant", "coords": ["-129"]}]}]}, "generators[1]"),
        ("counterexample", {"generators": [{"kind": "random", "seed": 1},
                                           {"kind": "random", "seed": 2}]},
         "one generator"),
        ("mdim", {"generators": [{"kind": "random", "seed": 1}]}, "generators"),
        ("dpi", {"generators": []}, "generators"),
        ("machine", {"functions": [{"name": "identity", "params": {"n": 1}}]},
         "functions"),
        ("kprofile", {"functions": []}, "functions"),
        ("dpi", {"functions": [{"name": "projection",
                                "params": {"n": 2, "S": []}}]},
         "functions[0]"),
        ("dpi", {"window": [1024, 2048], "functions": [
            {"name": "scale", "params": {"c": "4096"}}]}, "functions[0]"),
        # a key its builder does not read
        ("dpi", {"functions": [{"name": "scale", "params": {"c": "2", "typo": 1}}]},
         "scale params key 'typo'"),
        ("dpi", {"functions": [{"name": "hilbert2d", "params": {"n": 5}}]},
         "hilbert2d params key 'n'"),
        ("dpi", {"functions": [{"name": "affine", "params": {
            "matrix": [["1"]], "offset": ["0"],
            "inverse_modulus": {"S": [1], "s": 0, "alpha": "1/2"}}}]},
         "inverse_modulus key 'alpha'"),
        ("dpi", {"functions": [{"name": "identity", "params": {"n": 1},
                                "parms": {"n": 1}}]}, "function key 'parms'"),
        ("kprofile", {"generators": [{"kind": "random", "seed": 1,
                                      "rho": "1/2"}]}, "generator key 'rho'"),
        ("kprofile", {"generators": [{"kind": "product", "factors": [
            {"kind": "rational", "values": ["1/3"], "n": 1}]}]},
         "generator key 'n'"),
        ("dpi", {"functions": [{"name": "affine", "params": {
            "matrix": [[]], "offset": ["0"]}}]}, "matrix has no columns"),
        # a suite that is not a string, here an unhashable list
        ("machine", {"suite": ["machine"]}, "unknown suite: ['machine']"),
        # the program count has over 4,300 digits; the refusal must not
        # format it, nor walk 10**9 lengths to find it
        ("machine", {"machine": {"max_program_len": 15000}}, "item cap"),
        ("machine", {"machine": {"max_program_len": 10**9}}, "item cap"),
        # sizes that multiply work, refused before anything of that size
        # is built: a library function's arity and a generator's dimension
        ("dpi", {"functions": [{"name": "identity", "params": {"n": 20000}}]},
         "dimension cap"),
        ("dpi", {"functions": [{"name": "sum", "params": {"n": 10**8}}]},
         "dimension cap"),
        ("dpi", {"functions": [{"name": "projection",
                                "params": {"n": 10**8, "S": [1]}}]},
         "dimension cap"),
        ("kprofile", {"generators": [{"kind": "random", "seed": 1,
                                      "n": 10**8}]}, "dimension cap"),
        ("kprofile", {"generators": [{"kind": "random", "seed": 1,
                                      "n": 1000}]}, "dimension cap"),
        ("kprofile", {"generators": [{"kind": "diluted", "seed": 1,
                                      "rho": "1/2", "n": 10**8}]},
         "dimension cap"),
        ("kprofile", {"generators": [{"kind": "product", "factors": [
            {"kind": "random", "seed": s, "n": 64} for s in range(10**4)]}]},
         "dimension cap"),
        ("kprofile", {"generators": [{"kind": "rational",
                                      "values": ["1/3"] * 65}]}, "dimension cap"),
        # the first bound over the item cap: level 22 takes the count of
        # programs to 8,388,607
        ("machine", {"machine": {"max_program_len": 31}},
         "max_program_len=31 has more programs than the item cap"),
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
        assert captured.err.count("\n") == 1
        assert field in captured.err
        assert machine._ENUM_CACHE == {}

    @pytest.mark.parametrize("suite, raw, message", [
        ("machine", b"\xff\xfe{}", "config is not valid JSON"),
        ("machine", b'{"suite": "machine", "seed": ' + b"9" * 5000 + b"}",
         "config is not valid JSON"),
        # json.load recurses once per level and overflows the stack
        ("mdim", b"[" * 100000 + b"]" * 100000, "config nests too deeply"),
        ("kprofile", b'{"suite": "kprofile", "generators": ['
         + b'{"kind": "product", "factors": [' * 900
         + b'{"kind": "rational", "values": ["1/3"]}' + b"]}" * 900 + b"]}",
         "config nests too deeply"),
        ("mdim", b'{"suite": "mdim", "window": '
         + b"[" * 3000 + b"1024" + b"]" * 3000 + b"}",
         "config nests too deeply"),
    ], ids=["not-utf8", "long-integer", "deep-list", "deep-generator",
            "deep-window"])
    def test_unreadable_config_exit(self, tmp_path, capsys, suite, raw,
                                    message):
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        assert main([suite, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}: ")
        assert captured.err.count("\n") == 1

    def test_unreachable_precision_exit(self, tmp_path, capsys):
        # refused before the sweep: this machine has no program printing 1
        path = self._config_file(
            tmp_path, {"suite": "coding-bounds",
                       "machine": {"max_program_len": 12}}
        )
        assert main(["coding-bounds", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: precision 1 ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("generator", [
        {"kind": "rational", "values": ["1/3"]},
        {"kind": "constant", "coords": ["3/8"]},
        {"kind": "product", "factors": [{"kind": "rational", "values": ["1/3"]}]},
        {"kind": "constant", "coords": ["200"]},
    ])
    def test_exact_point_is_not_a_witness(self, tmp_path, capsys, generator):
        path = self._config_file(
            tmp_path, {"suite": "counterexample", "generators": [generator],
                       "window": [1024, 4096]}
        )
        assert main(["counterexample", "--config", path]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["detail"], r["status"]) for r in rows] == [
            ("not a counterexample witness", "info")
        ]

    def test_ordering_states_true_relations(self, tmp_path, capsys):
        # a diluted point at rho 1/4 has an image of dimension below 1, so
        # the first link reads "<=" and the report states no false relation
        path = self._config_file(
            tmp_path, {"suite": "counterexample", "window": [1024, 4096],
                       "generators": [{"kind": "diluted", "seed": 7,
                                       "rho": "1/4", "n": 1}]}
        )
        assert main(["counterexample", "--config", path]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        (text,) = [r["value"] for r in rows if r["check"] == "ordering"]
        a, first, one, second, b, third, c = text.split()
        assert one == "1" and first == "<="
        holds = {">": float.__gt__, "<=": float.__le__,
                 ">=": float.__ge__, "<": float.__lt__}
        for left, rel, right in ((a, first, one), (one, second, b),
                                 (b, third, c)):
            assert holds[rel](float(left), float(right)), text

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

    def test_seed_flag_replaces_config_seed(self, tmp_path, capsys):
        reports = []
        for payload, flags in (({"suite": "geometry", "seed": 1},
                                ["--seed", "5"]),
                               ({"suite": "geometry", "seed": 5}, [])):
            path = self._config_file(tmp_path, payload)
            assert main(["geometry", "--config", path, *flags]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_format_and_out_flags_replace_config(self, tmp_path, capsys):
        path = self._config_file(
            tmp_path, {"suite": "machine", "machine": FAST_MACHINE,
                       "format": "json"}
        )
        out = tmp_path / "rep.csv"
        assert main(["machine", "--config", path,
                     "--format", "csv", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("check,detail,value,bound,status\n")
        assert out.read_text(encoding="utf-8") == text

    def test_unpinned_version_tag_exit(self, tmp_path, capsys):
        path = self._config_file(
            tmp_path, {"suite": "coding-bounds",
                       "machine": {"version_tag": "v9"}}
        )
        assert main(["coding-bounds", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown machine key 'version_tag'" in captured.err

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


# ---- the suite table ---------------------------------------------------------
# harness._SUITES declares the optional config keys each suite reads; the
# parse refuses every other key, so the declaration must match the runner


# config keys every suite reads, and fields named apart from their key
COMMON_KEYS = {"suite", "format", "out"}
FIELD_KEYS = {"grid": "window", "out_format": "format", "out_path": "out"}
# a well-formed value of each optional key
KEY_VALUES = {
    "machine": FAST_MACHINE,
    "window": [1024, 2048],
    "seed": 5,
    "generators": [{"kind": "random", "seed": 1}],
    "functions": [{"name": "identity", "params": {"n": 1}}],
}


def _runner(suite):
    """The parsed runner of ``suite``, from its own module's source."""
    module = importlib.import_module(f"mdimlab.{harness._SUITES[suite][0]}")
    name = module.RUNNERS[suite].__name__
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def _config_reads(runner):
    """The config keys a runner reads as ``cfg.<field>``."""
    assert [a.arg for a in runner.args.args] == ["cfg"]
    uses = [n for n in ast.walk(runner)
            if isinstance(n, ast.Name) and n.id == "cfg"]
    fields = [n.attr for n in ast.walk(runner)
              if isinstance(n, ast.Attribute) and n.value in uses]
    # a runner that hands cfg on whole would hide reads from this scan
    assert len(fields) == len(uses)
    return {FIELD_KEYS.get(f, f) for f in fields} - COMMON_KEYS


def test_config_reads_scan():
    runner = ast.parse(
        "def run(cfg):\n"
        "    return f(cfg.grid, cfg.seed, cfg.suite, cfg.out_format, x.machine)\n"
    ).body[0]
    assert _config_reads(runner) == {"window", "seed"}
    with pytest.raises(AssertionError):
        _config_reads(ast.parse("def run(cfg):\n    return f(cfg)\n").body[0])


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_table_names_the_keys_its_runner_reads(suite):
    keys = harness._SUITES[suite][1]
    assert len(set(keys)) == len(keys)
    assert set(keys) == _config_reads(_runner(suite))


def test_only_coding_bounds_refuses_config_in_its_runner():
    # every other check is made by the parse, before any suite work
    refusing = {
        runner.name for runner in map(_runner, SUITE_NAMES)
        if any(isinstance(n, ast.Raise) and "InvalidConfigError" in ast.unparse(n)
               for n in ast.walk(runner))
    }
    assert refusing == {"_coding_suite"}


def test_key_values_cover_every_read_key():
    assert set(KEY_VALUES) == {
        key for _, keys in harness._SUITES.values() for key in keys}


@pytest.mark.parametrize("suite, key", [
    (suite, key) for suite in SUITE_NAMES for key in KEY_VALUES
    if key not in harness._SUITES[suite][1]
])
def test_unread_key_exit(tmp_path, capsys, monkeypatch, suite, key):
    monkeypatch.setattr(machine, "_ENUM_CACHE", {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"suite": suite, key: KEY_VALUES[key]}))
    assert main([suite, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} is read only by ")
    assert captured.err.endswith(f", not {suite}\n")
    assert captured.err.count("\n") == 1
    assert machine._ENUM_CACHE == {}
