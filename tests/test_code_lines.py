from code_lines import PACKAGE, code_lines, main

_SAMPLE = '''\
"""A module docstring,
over two lines."""
# a comment

def f():
    """A function docstring."""
    return 1  # a comment after code
'''


def test_code_lines_count_neither_docstrings_nor_comments_nor_blank_lines():
    assert code_lines(_SAMPLE) == 2


def test_with_another_tree_each_module_and_the_totals_print_side_by_side(tmp_path, capsys):
    other = tmp_path / "acorns"
    other.mkdir()
    (other / "record.py").write_text((PACKAGE / "record.py").read_text())
    (other / "only_there.py").write_text(_SAMPLE)
    main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    here = {path.name: code_lines(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert lines[0].split() == ["other", "here"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows.pop("total") == [str(here["record.py"] + 2), str(sum(here.values()))]
    assert rows.pop("only_there.py") == ["2", "-"]
    assert rows.pop("record.py") == [str(here["record.py"])] * 2
    assert rows == {name: ["-", str(n)] for name, n in here.items() if name != "record.py"}
