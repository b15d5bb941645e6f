"""The README's Python API example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_api_block() -> str:
    match = re.search(r"^## Python API\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S)
    assert match, "README has no fenced python block under 'Python API'"
    return match.group(1)


def test_readme_python_api_example_runs(tmp_path, monkeypatch, capsys):
    # x --r0--> y --r1--> z, with r2 closing the composition for most x
    train = [(f"x{i}", "r0", f"y{i % 3}") for i in range(6)]
    train += [(f"y{j}", "r1", f"z{j + k}") for j in range(3) for k in (0, 1)]
    train += [(f"x{i}", "r2", f"z{i % 3 + k}") for i in range(4) for k in (0, 1)]
    splits = {"train": train, "valid": [("x4", "r2", "z1")], "test": [("x5", "r2", "z2")]}
    for name, rows in splits.items():
        (tmp_path / f"{name}.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))
    monkeypatch.chdir(tmp_path)
    exec(compile(python_api_block(), str(README), "exec"), {})
    table = capsys.readouterr().out
    assert "mrr" in table and table.rstrip().endswith("filtered")
    assert re.search(r"^ranked\s+2$", table, re.M)  # both sides of the one test triplet
