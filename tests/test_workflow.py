"""The CI workflow runs the tier-1 command of ROADMAP.md, then validates
every shipped model."""

import pathlib
import re

import yaml

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workflow_runs_the_tier1_command_and_validates_the_models():
    steps = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = steps["jobs"]["tier1"]["steps"]
    runs = [step["run"] for step in steps if "run" in step]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert tier1.group(1) in runs
    python = next(s["with"]["python-version"] for s in steps if "setup-python" in s.get("uses", ""))
    assert python == "3.11"
    validate = next(run.split() for run in runs if "qodesign.cli validate" in run)
    models = sorted((ROOT / "src" / "qodesign" / "models").glob("*.model"))
    assert validate[-len(models):] == [str(m.relative_to(ROOT)) for m in models]
