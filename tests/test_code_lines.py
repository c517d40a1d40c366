"""The code-line count of ``tests/code_lines.py``, pinned on a fixed snippet."""

import textwrap

from code_lines import code_lines, main

SNIPPET = textwrap.dedent('''\
    """A module docstring,
    over two lines."""

    import os  # a comment after code


    # a comment line
    def f(a,
          b):
        """A function docstring."""
        x = "a string, not a docstring"
        """a bare string after the first statement is code"""
        return (a +
                b) + \\
            len(x)


    class C:
        """A class docstring."""

        y = """a string
    over two lines"""
    ''')


def test_code_lines_counts_lines_holding_a_token_that_is_not_a_comment_docstring_or_layout():
    # import, def f(a, / b):, x =, the bare string, return (a + / b) + \\ / len(x), class C:, and y's two lines
    assert code_lines(SNIPPET) == 11
    assert code_lines("") == code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    main([str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == ["    11  a.py", "     1  b.py", "    12  total", ""]
