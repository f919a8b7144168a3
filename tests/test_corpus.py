import importlib.util
import json
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "corpus", Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
)
corpus = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(corpus)

# a dense and a thermal report, and an exit-1 run on a file the corpus writes
SUBSET = ["respond-dense-both", "respond-thermal-both", "fail-unparsable-file"]


def test_runs_repeat_and_a_changed_value_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(corpus, "INVOCATIONS", {k: corpus.INVOCATIONS[k] for k in SUBSET})
    a, b = tmp_path / "a", tmp_path / "b"
    for directory in (a, b):
        assert corpus.main(["run", str(directory)]) == 0
    capsys.readouterr()
    assert corpus.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    summary = "3 invocations: 3 identical, 0 differ, 0 missing; 0 exit codes changed"
    assert out.splitlines()[-1] == summary
    assert json.loads((a / "reports" / "fail-unparsable-file.json").read_text())["exit_code"] == 1

    path = b / "reports" / "respond-thermal-both.json"
    record = json.loads(path.read_text())
    assert "timing" not in record["report"]
    record["report"]["results"]["mu0"] += 1.0
    path.write_text(json.dumps(record))
    assert corpus.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "respond-thermal-both: differs in report.results.mu0\n" in out
    assert "respond-dense-both: identical\n" in out
