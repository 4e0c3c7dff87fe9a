"""Smoke tests: the runnable examples must keep running.

Only the fast examples are executed end-to-end (the heavier studies are
parameter-identical to code paths the integration tests already cover).
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestFastExamples:
    def test_reram_technology(self):
        out = run_example("reram_technology.py")
        assert "Cell failed after" in out
        assert "lifetime" in out

    def test_criticality_predictor_demo(self):
        out = run_example("criticality_predictor_demo.py", "milc")
        assert "Threshold sweep" in out
        assert "numLoads" in out

    def test_dnuca_migration_demo(self):
        out = run_example("dnuca_migration_demo.py")
        assert "Migrations performed" in out
        assert "D-NUCA" in out

    def test_all_examples_have_docstrings_and_main(self):
        for script in EXAMPLES.glob("*.py"):
            text = script.read_text()
            assert '"""' in text.split("\n", 2)[2][:10] or text.startswith(
                "#!"
            ), script
            assert "__main__" in text, script
