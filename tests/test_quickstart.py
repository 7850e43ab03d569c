"""The README's Quickstart and Library use run as written; the Quickstart leaves the artifacts
the README names."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from fleetrank.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> tuple[list[str], str]:
    """The Quickstart block's shell lines, continuations joined and comments
    dropped, and the prose from the block's end to the next section."""
    section = README.read_text(encoding="utf-8").split("\n## Quickstart\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block, prose = section.split("```bash\n", 1)[1].split("```", 1)
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line and not line.startswith("#")], prose


def test_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines, prose = quickstart()
    outs = []
    for line in lines:
        words = shlex.split(line)
        if words[0] == "echo":
            assert len(words) == 4 and words[2] == ">", line
            Path(words[3]).write_text(words[1] + "\n")
            continue
        assert words[0] == "fleetrank", line
        assert main(words[1:]) == 0, (line, capsys.readouterr().err)
        outs.append(tmp_path / words[words.index("--out") + 1])
    assert [out.name for out in outs] == ["data", "bundle", "ranking", "placement", "surface"]
    for out in outs:
        manifest = json.loads((out / "manifest.json").read_text())
        assert all((out / name).is_file() for name in manifest["outputs"]), out
    named = set(re.findall(r"`([\w.]+\.(?:json|csv|txt|npy))`", prose))
    assert {"ranking.txt", "placement.json", "meta.json", "trips.npy"} <= named
    written = {path.name for path in tmp_path.rglob("*") if path.is_file()}
    assert named <= written, named - written


def test_library_use_runs_as_written(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # each block goes on from the names the ones before it made
        exec(compile(block, str(README), "exec"), namespace)
    # the fleet's top driver sits at the behavior optimum: ranking and placement both find it
    top = namespace["truth"].optimum_driver_id
    assert capsys.readouterr().out == f"{top} {top}\n"
    np.testing.assert_allclose(namespace["result"].best_point, namespace["center"], atol=1e-6)
