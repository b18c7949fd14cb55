import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "csv_parity", Path(__file__).resolve().parent.parent / "tools" / "csv_parity.py")
csv_parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(csv_parity)


def write(path, text):
    path.write_text(text)
    return path


def test_matrix_report_gives_the_largest_change_and_a_still_support(tmp_path):
    old = write(tmp_path / "old.txt", "2 0.5 0\n0.5 1 1e-12\n")
    new = write(tmp_path / "new.txt", "2 0.5000000001 0\n0.5 1 3e-12\n")
    assert csv_parity.differing_entries(old, new) == (
        "2 of 6 entries (max rel 6.67e-01); support unchanged")


def test_matrix_report_sees_the_support_move(tmp_path):
    old = write(tmp_path / "old.txt", "1 0\n0 1\n")
    new = write(tmp_path / "new.txt", "1 2e-8\n0 1\n")
    assert csv_parity.differing_entries(old, new).endswith("support moved")


def test_matrix_report_of_another_shape(tmp_path):
    old = write(tmp_path / "old.txt", "1 0\n0 1\n")
    new = write(tmp_path / "new.txt", "1 0 0\n0 1 0\n")
    assert csv_parity.differing_entries(old, new) == "shape differs"


def test_stdout_report_gives_the_first_differing_line_of_each_side(tmp_path):
    old = write(tmp_path / "old.stdout", "wrote 4 rows\nmethod=clime iterations=3\nend\n")
    new = write(tmp_path / "new.stdout", "wrote 4 rows\nmethod=clime iterations=1\nend\n")
    assert csv_parity.differing_line(old, new) == (
        "line 2: method=clime iterations=3 -> method=clime iterations=1")


def test_stdout_report_of_a_missing_line(tmp_path):
    old = write(tmp_path / "old.stdout", "one\n")
    new = write(tmp_path / "new.stdout", "one\ntwo\n")
    assert csv_parity.differing_line(old, new) == "line 2: (none) -> two"
