"""Smoke test: the CLI walkthrough in demos/ runs every step cleanly."""

import importlib.util
import os
import tempfile

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                    "icu_walkthrough.py")


def test_icu_walkthrough_runs_every_step(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("icu_walkthrough", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    real_main, codes = demo.main, []

    def main(argv):
        codes.append(real_main(argv))
        return codes[-1]

    monkeypatch.setattr(demo, "main", main)
    monkeypatch.setattr(tempfile, "mkdtemp", lambda prefix="": str(tmp_path))
    monkeypatch.chdir(tmp_path)  # restores the working directory afterwards
    assert demo.run() == 0
    out = capsys.readouterr().out
    assert len(codes) == 8 and set(codes) == {0}
    assert "(exit code" not in out
    assert "case = matched" in out
