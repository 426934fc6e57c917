import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    source = textwrap.dedent('''\
        """Module docstring,
        two lines."""

        # A comment line.
        import os  # a trailing comment


        def f(a,
              b):
            """Function docstring."""
            x = """not a docstring,
            a string value"""
            return a + b


        class C:
            """Class docstring."""

            y = 1
        ''')
    # import, the two-line def, both lines of x, return, class, y.
    assert _script().code_lines(source) == 8


def test_counts_the_package(capsys):
    assert _script().main([str(ROOT / "src" / "graphabac")]) == 0
    assert int(capsys.readouterr().out) > 0
