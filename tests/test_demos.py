import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_every_demo_runs_and_reproduces_the_committed_outputs(tmp_path):
    # each demo writes to the output/ directory beside itself, so copies run
    # in tmp_path leave the committed files untouched
    scripts = sorted(DEMOS.glob("*.py"))
    for script in scripts:
        shutil.copy(script, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script in scripts:
        proc = subprocess.run([sys.executable, script.name], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"
    committed = sorted((DEMOS / "output").iterdir())
    assert len(committed) == 7
    for path in committed:
        assert (tmp_path / "output" / path.name).read_bytes() == path.read_bytes(), path.name
