"""tests/code_lines.py counts the code lines every simplicity change is measured in."""

import textwrap

import pytest

import code_lines


def count(source: str) -> int:
    return code_lines.code_lines(textwrap.dedent(source))


@pytest.mark.parametrize("source", [
    pytest.param('"""Module docstring,\n\nover three lines."""\n', id="module"),
    pytest.param('class A:\n    """Class docstring."""\n', id="class"),
    pytest.param('def f():\n    """Function docstring,\n    over two lines."""\n', id="function"),
    pytest.param('async def f():\n    """Coroutine docstring."""\n', id="async-function"),
])
def test_docstrings_are_not_counted(source):
    # only the def and class lines count
    assert count(source) == source.count("def ") + source.count("class ")


def test_blank_and_comment_lines_are_not_counted():
    assert count("""
        # a comment line

            # an indented comment

        x = 1
    """) == 1


def test_a_line_with_code_and_a_trailing_comment_is_counted():
    assert count("x = 1  # why\ny = 2\n") == 2


def test_each_physical_line_of_a_multi_line_call_is_counted():
    assert count("""
        total = add(
            1,
            2,  # a comment inside the call
        )
    """) == 4


def test_a_string_that_is_not_a_docstring_is_counted():
    # a second string statement, and strings bound or passed, are code
    assert count('''
        def f():
            """Docstring."""
            """Not a docstring: the second statement."""
            return """a
            multi-line value"""
    ''') == 4


def test_a_docstring_after_code_is_counted():
    # a string is a docstring only as the first statement of its scope
    assert count('x = 1\n"""Trailing string."""\n') == 2
