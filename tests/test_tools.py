import importlib.util
from importlib import resources
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / (name + ".py"))
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
    assert _tool("loc").count(str(source)) == (6, 16)


def test_outputs_gives_the_same_line_for_every_command_twice(capsys):
    path = str(resources.files("curlflux") / "configs" / "fdr_twolevel.yaml")
    outputs = _tool("outputs")
    runs = []
    for _ in range(2):
        outputs.main([path])
        runs.append(capsys.readouterr().out.splitlines())
    # stdout names the temporary directory, different in each run
    assert runs[0] == runs[1]
    assert "fdr_twolevel_flux.json:" in runs[0][1]
    assert [line.split(" ")[1:3] for line in runs[0]] == [
        [command, "0"] for command in outputs.COMMANDS]
