from code_lines import code_lines

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
