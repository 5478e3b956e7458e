import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parents[1] / "tools" / "loc.py"


def _loc():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_neither_docstrings_nor_comments_nor_blanks(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "X = '''a string\n"
        "that is code'''  # trailing comment\n"
        "\n"
        "class A:\n"
        "    '''Class docstring.'''\n"
        "\n"
        "    def f(self):\n"
        '        """One\n        more."""\n'
        "        return (1 +\n"
        "                2)\n"
    )
    # code: X's two lines, class, def, and the two-line return
    assert _loc().count(str(source)) == (6, 16)
