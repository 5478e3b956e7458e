import importlib.util
import inspect
import subprocess
import sys
from importlib import resources
from pathlib import Path

from curlflux import config, response

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


def test_corpus_writes_57_run_files_with_the_same_bytes_each_run(tmp_path):
    first = _tool("corpus").write(str(tmp_path / "first"))
    out = subprocess.run([sys.executable, str(TOOLS / "corpus.py"),
                          str(tmp_path / "second")],
                         capture_output=True, text=True, check=True).stdout
    second = out.splitlines()
    assert len(set(first)) == len(first) == 57
    assert [Path(p).relative_to(tmp_path / "first") for p in first] == [
        Path(p).relative_to(tmp_path / "second") for p in second]
    for path, again in zip(first, second):
        config.load_config(path)
        assert Path(path).read_bytes() == Path(again).read_bytes()


def test_reach_lists_singular_and_no_core_branch_of_the_walk():
    configs = resources.files("curlflux") / "configs"
    paths = sorted(str(p) for p in configs.iterdir() if p.name.endswith(".yaml"))
    assert len(paths) == 7
    out = subprocess.run([sys.executable, str(TOOLS / "reach.py"), *paths],
                         capture_output=True, text=True, check=True).stdout
    *stretches, summary = out.splitlines()
    assert summary.startswith("missed ")
    missed = set()
    for stretch in stretches:
        path, span = stretch.split()[0].rsplit(":", 1)
        first, last = map(int, span.split("-"))
        missed.update((Path(path).name, n) for n in range(first, last + 1))

    code = response._singular.__code__
    body = {n for _, _, n in code.co_lines() if n and n > code.co_firstlineno}
    assert body and {("response.py", n) for n in body} <= missed
    source, first = inspect.getsourcelines(config._walk)
    walk = {first + i: line.strip() for i, line in enumerate(source)}
    # the def line runs at import only, so the tracer was on by then
    assert ("config.py", first) not in missed
    refusals = {n for n, line in walk.items() if line.startswith("raise")}
    core = {n for n, line in walk.items() if line.startswith((
        "return node.value", "return _SCALARS", "return [_walk", "out = {}",
        "name = _walk", "out[name] = _walk", "return out"))}
    assert len(refusals) == 5 and len(core) == 7
    assert {("config.py", n) for n in refusals} <= missed
    assert not {("config.py", n) for n in core} & missed
