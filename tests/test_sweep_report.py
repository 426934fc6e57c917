import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _module(monkeypatch):
    # The module puts bench/ and tests/ on sys.path; the copy it edits is
    # dropped after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "scripts" / "sweep_report.py"
    spec = importlib.util.spec_from_file_location("sweep_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_header_names_the_tree_and_the_host(monkeypatch):
    header = _module(monkeypatch).header("scripts/some_sweep.py")
    keys = ["script", "commit", "src_sha256", "python", "implementation", "nproc"]
    assert list(header) == keys
    assert header["script"] == "scripts/some_sweep.py"
    assert len(header["src_sha256"]) == 16
    assert header["python"] and header["implementation"] and header["nproc"] > 0


def test_dash_writes_one_json_object_to_stdout(monkeypatch, capsys):
    report = {"a": 1, "b": [2.5, "c"]}
    _module(monkeypatch).write(report, "-")
    out = capsys.readouterr().out
    decoded, end = json.JSONDecoder().raw_decode(out)
    assert decoded == report and out[end:] == "\n"


def test_a_path_gets_the_same_text(monkeypatch, capsys, tmp_path):
    module = _module(monkeypatch)
    module.write({"a": 1}, "-")
    module.write({"a": 1}, str(tmp_path / "report.json"))
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == capsys.readouterr().out
