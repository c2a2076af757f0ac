import ast
import re

from conftest import REPO


def test_library_use_block_runs_from_the_repo_root(monkeypatch, capsys):
    # the README's python example must keep up with the library's signatures
    readme = (REPO / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme[readme.index("## Library use"):], re.S).group(1)
    monkeypatch.chdir(REPO)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert float(lines[0]) == 0.2708333333333333
    rates = ast.literal_eval(lines[1])
    assert rates.keys() == {"f16", "f32", "f64"}
    assert rates["f16"] > 0.0 and rates["f32"] == rates["f64"] == 0.0
