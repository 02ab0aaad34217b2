import io
import os

import pytest

from polydawg import canonical, cli
from polydawg.canonical import CanonicalTable, save_cif
from polydawg.engines import base
from polydawg.errors import InternalConsistencyError


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def seed_dataset(workspace, capsys):
    code, out, _ = run(["datagen", "--scale", "1", "--out", "ds"], capsys)
    assert code == 0
    code, _, err = run(["load", "--manifest", "ds/manifest.json"], capsys)
    assert code == 0, err


def test_datagen_is_deterministic(workspace, capsys):
    run(["datagen", "--scale", "1", "--out", "a"], capsys)
    run(["datagen", "--scale", "1", "--out", "b"], capsys)
    for name in ("patients.cif", "manifest.json"):
        assert (workspace / "a" / name).read_bytes() == \
            (workspace / "b" / name).read_bytes()


def test_datagen_rejects_bad_scale(workspace, capsys):
    code, _, err = run(["datagen", "--scale", "0", "--out", "x"], capsys)
    assert code == 2
    assert "scale" in err


def test_commands_that_write_nothing_leave_no_data_directory(
        workspace, capsys):
    code, _, _ = run(["datagen", "--scale", "1", "--out", "ds"], capsys)
    assert code == 0
    code, _, err = run(["query", "relational(SELECT * FROM nowhere)"],
                       capsys)
    assert code == 2 and "unknown object" in err
    assert sorted(os.listdir(workspace)) == ["ds"]
    # the first monitor record creates the log's directory
    code, _, _ = run(["load", "--manifest", "ds/manifest.json"], capsys)
    assert code == 0
    (workspace / "cfg").write_text("monitor_log = logs/monitor.log\n")
    code, _, _ = run(["--config", "cfg", "query",
                      "relational(SELECT id FROM patients)"], capsys)
    assert code == 0
    assert (workspace / "logs" / "monitor.log").read_text().count("\n") == 1


def test_load_single_object_and_query(workspace, capsys):
    table = CanonicalTable(
        [("id", "text"), ("age", "int")], [("p1", 70), ("p2", 50)])
    save_cif(table, str(workspace / "t.cif"))
    code, out, _ = run(
        ["load", "rel", "people", "t.cif", "--key", "id"], capsys)
    assert code == 0 and "2 rows" in out

    # the catalog persists: a separate invocation can query it
    code, out, _ = run(
        ["query", "relational(SELECT id FROM people WHERE age > 60)"],
        capsys)
    assert code == 0
    assert "p1" in out and "p2" not in out
    assert "phase = production" in out
    assert "case = " in out


def test_training_then_production_via_cli(workspace, capsys):
    seed_dataset(workspace, capsys)
    doses = ("cast(relational(SELECT patient_id, SUM(dose) AS dose "
             "FROM meds GROUP BY patient_id), d4m, key=patient_id)")
    text = f"d4m(matmul({doses}, transpose({doses})))"
    code, out, _ = run(["query", "--training", text], capsys)
    assert code == 0
    assert "phase = training" in out
    assert out.count("trained-plan = ") >= 2

    code, out, _ = run(["query", text], capsys)
    assert code == 0
    assert "phase = production" in out
    assert "case = matched\nmatch-score = 1.000\n" in out


def test_untrained_production_notes_random_choice(workspace, capsys):
    seed_dataset(workspace, capsys)
    code, out, _ = run(
        ["query", "text(grep(notes, 'sedated'))"], capsys)
    assert code == 0
    assert "case = random\nmatch-score = none\n" in out
    assert "note = untrained signature; randomly selected plan" in out


def test_explain_and_monitor_commands(workspace, capsys):
    seed_dataset(workspace, capsys)
    code, out, _ = run(
        ["explain", "relational(SELECT id FROM patients)"], capsys)
    assert code == 0
    assert "containers:" in out and "plans (1):" in out

    run(["query", "--training", "text(grep(notes, 'stable'))"], capsys)
    code, out, _ = run(["monitor", "dump"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines and all(len(l.split("\t")) == 8 for l in lines)
    structure = lines[0].split("\t")[2][:12]
    code, out, _ = run(["monitor", "stats", structure], capsys)
    assert code == 0 and out.strip()

    run(["query", "relational(SELECT id FROM patients)"], capsys)
    code, out, _ = run(["monitor", "stats"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 2  # one per signature
    assert rows[0][:2] == [structure, "kv.notes"]
    assert rows[1][1] == "rel.patients"
    assert all(len(row) == 6 and row[2] == "1" for row in rows)


def test_torn_monitor_log_is_repaired_and_reported_once(workspace, capsys):
    seed_dataset(workspace, capsys)
    run(["query", "--training", "text(grep(notes, 'stable'))"], capsys)
    run(["query", "text(grep(notes, 'fever'))"], capsys)
    log = workspace / "polydawg_data" / "monitor.log"
    whole = log.read_bytes()
    log.write_bytes(whole[:-5])  # the second append was cut short

    code, out, err = run(["monitor", "dump"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1
    assert "warning: dropped an incomplete final record" in err
    assert log.read_bytes() == whole[:whole.index(b"\n") + 1]

    code, out, err = run(["query", "text(grep(notes, 'fever'))"], capsys)
    assert code == 0 and err == ""
    code, out, _ = run(["monitor", "dump"], capsys)
    assert len(out.splitlines()) == 2


def test_syntax_errors_print_carets_and_exit_2(workspace, capsys):
    seed_dataset(workspace, capsys)
    code, _, err = run(
        ["query", "relational(SELECT FROM patients)"], capsys)
    assert code == 2
    assert "error:" in err and "^" in err

    code, _, err = run(["query", "text(grep(nothere, 'x'))"], capsys)
    assert code == 2 and "nothere" in err


def test_old_list_format_snapshot_exits_2_naming_it(workspace, capsys):
    (workspace / "polydawg_data").mkdir()
    (workspace / "polydawg_data" / "manifest.json").write_text(
        '[{"engine": "rel", "object": "t", "file": "rel__t.cif", '
        '"options": {}}]')
    code, out, err = run(["query", "relational(SELECT a FROM t)"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "manifest.json" in err


def test_manifest_entry_without_a_file_exits_2_and_loads_nothing(
        workspace, capsys):
    seed_dataset(workspace, capsys)
    (workspace / "more.json").write_text('{"extra": {"engine": "rel"}}')
    code, out, err = run(["load", "--manifest", "more.json"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: more.json") and "'extra'" in err
    code, out, _ = run(["query", "relational(SELECT id FROM patients)"],
                       capsys)
    assert code == 0 and "p00001" in out


def test_internal_consistency_exits_3(workspace, capsys, monkeypatch):
    seed_dataset(workspace, capsys)

    def explode(self, text):
        raise InternalConsistencyError("plans disagree")

    monkeypatch.setattr(cli.System, "run_training", explode)
    code, _, err = run(
        ["query", "--training", "text(grep(notes, 'x'))"], capsys)
    assert code == 3
    assert "internal consistency" in err


def test_config_file_controls_the_system(workspace, capsys):
    (workspace / "polydawg.conf").write_text(
        "# comment\ndata_dir = store\nplan_cap = 2\nseed = 42\n")
    seed = ["--config", "polydawg.conf"]
    table = CanonicalTable([("id", "text"), ("v", "int")], [("a", 1)])
    save_cif(table, str(workspace / "t.cif"))
    code, _, _ = run(seed + ["load", "rel", "t", "t.cif"], capsys)
    assert code == 0
    assert (workspace / "store").is_dir()
    code, out, _ = run(
        seed + ["query", "relational(SELECT id FROM t)"], capsys)
    assert code == 0

    (workspace / "bad.conf").write_text("w_structure = 0.9\n")
    code, _, err = run(["--config", "bad.conf", "monitor", "dump"], capsys)
    assert code == 2 and "weights" in err
    (workspace / "bad.conf").write_text(
        "w_structure = 1.2\nw_objects = -0.3\n")
    code, _, err = run(["--config", "bad.conf", "monitor", "dump"], capsys)
    assert code == 2 and "non-negative" in err


def test_repl_runs_lines_and_directives(workspace, capsys, monkeypatch):
    seed_dataset(workspace, capsys)
    monkeypatch.setattr("sys.stdin", io.StringIO(
        "text(grep(notes, 'fever'))\n"
        ":explain relational(SELECT id FROM patients)\n"
        ":train text(scan(notes, rows='p00001':'p00009'))\n"
        ":q\n"))
    code = cli.main(["repl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "phase = production" in out
    assert "containers:" in out
    assert "phase = training" in out


def test_malformed_load_options_exit_2_naming_the_entry(workspace, capsys):
    table = CanonicalTable([("p", "int"), ("v", "real")], [(0, 1.0)])
    save_cif(table, str(workspace / "w.cif"))
    for dims in ("p", "p:x"):
        code, out, err = run(["load", "arr", "w", "w.cif", "--dims", dims],
                             capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and repr(dims) in err
    (workspace / "m.json").write_text(
        '{"w": {"engine": "arr", "file": "w.cif", '
        '"options": {"dims": [["p"]]}}}')
    code, out, err = run(["load", "--manifest", "m.json"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: m.json: entry 'w'") and "dims" in err
    assert not (workspace / "polydawg_data" / "manifest.json").exists()


def _data_files(workspace):
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns)
            for p in (workspace / "polydawg_data").iterdir()}


def test_load_writes_only_its_object_and_the_manifest(workspace, capsys):
    seed_dataset(workspace, capsys)
    before = _data_files(workspace)
    table = CanonicalTable([("k", "text"), ("v", "real")], [("a", 1.0)])
    save_cif(table, str(workspace / "x.cif"))
    code, _, err = run(["load", "rel", "extra", "x.cif", "--key", "k"],
                       capsys)
    assert code == 0, err
    after = _data_files(workspace)
    # the manifest stays; the load appends one line to its journal
    assert {name for name in after if before.get(name) != after[name]} == {
        "extra.cif", "manifest.journal"}


def test_a_query_parses_only_the_objects_it_names(workspace, capsys,
                                                  monkeypatch):
    seed_dataset(workspace, capsys)
    parsed = []
    parse = canonical.parse_cif
    monkeypatch.setattr(canonical, "parse_cif",
                        lambda text: parsed.append(text) or parse(text))
    code, out, _ = run(["query", "relational(SELECT id FROM patients)"],
                       capsys)
    assert code == 0 and "p00001" in out
    data = workspace / "polydawg_data"
    assert parsed == [(data / "patients.cif").read_text()]


def test_a_truncated_object_file_fails_only_the_queries_naming_it(
        workspace, capsys):
    seed_dataset(workspace, capsys)
    wave = workspace / "polydawg_data" / "waveform.cif"
    text = wave.read_text()
    wave.write_text(text[:text.rindex(",", 0, len(text) // 2)])
    code, out, err = run(["query", "array(filter(waveform, v > 90))"],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: polydawg_data/waveform.cif: ")
    code, out, _ = run(["monitor", "dump"], capsys)
    assert code == 0 and out == ""  # it failed before any plan ran
    code, out, _ = run(["query", "relational(SELECT id FROM patients)"],
                       capsys)
    assert code == 0 and "p00001" in out


def test_a_load_that_dies_before_the_manifest_keeps_the_old_snapshot(
        workspace, capsys, monkeypatch):
    seed_dataset(workspace, capsys)
    save_cif(CanonicalTable([("k", "text")], [("a",)]),
             str(workspace / "x.cif"))
    write_line = base._write_line

    def crash_in_journal_append(path, manifest, mode="a"):
        if os.path.basename(path) != base.JOURNAL:
            return write_line(path, manifest, mode)
        with open(path, "a", encoding="ascii") as fh:
            fh.write('{"x":{"engine":"rel"')  # a torn line
        raise OSError("simulated crash")

    monkeypatch.setattr(base, "_write_line", crash_in_journal_append)
    code, _, err = run(["load", "rel", "x", "x.cif"], capsys)
    assert code == 2 and "simulated crash" in err
    assert (workspace / "polydawg_data" / base.JOURNAL).exists()
    monkeypatch.setattr(base, "_write_line", write_line)
    for text in ("relational(SELECT id FROM patients)",
                 "relational(SELECT drug FROM meds)",
                 "text(grep(notes, 'fever'))",
                 "array(subarray(waveform, patient=0:1, t=0:1))"):
        code, out, err = run(["query", text], capsys)
        assert code == 0, err
    code, _, err = run(["query", "relational(SELECT k FROM x)"], capsys)
    assert code == 2 and "unknown object 'x'" in err


def test_validation_errors_print_carets_and_run_time_errors_do_not(
        workspace, capsys):
    seed_dataset(workspace, capsys)
    text = "relational(SELECT id FROM patients WHERE age > 'x')"
    caret = " " * text.index("age") + "^" * len("age > 'x'")
    for args in (["query", text], ["query", "--training", text],
                 ["explain", text]):
        code, out, err = run(args, capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: cross-tag comparison: int vs text", text, caret]
    text = "text(grep(nothere, 'x'))"
    code, _, err = run(["query", text], capsys)
    assert code == 2 and err.splitlines() == [
        "error: unknown object 'nothere'", text, "          ^^^^^^^"]
    # division by zero waits for a row, and a run-time error's span would
    # point into native text, so it prints no caret
    code, out, err = run(
        ["query", "relational(SELECT id FROM patients WHERE age / 0 > 1)"],
        capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "division by zero" in err


def test_an_array_operator_error_prints_a_caret_under_the_operator(
        workspace, capsys):
    seed_dataset(workspace, capsys)
    text = "array(subarray(waveform, v=0:1))"
    op = "subarray(waveform, v=0:1)"
    caret = " " * text.index(op) + "^" * len(op)
    code, out, err = run(["query", text], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: unknown dimension 'v'", text, caret]
