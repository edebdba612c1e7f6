"""The CI workflows are valid YAML, and every step either runs a command or
uses an action.  A workflow that does not parse is refused by GitHub as a
whole, so none of its steps would run."""

from pathlib import Path

import pytest
import yaml

WORKFLOWS = sorted((Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml"))


def test_workflows_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_every_step_runs_or_uses(path):
    doc = yaml.safe_load(path.read_text())
    assert isinstance(doc.get("jobs"), dict) and doc["jobs"], f"{path.name}: no jobs"
    for job_name, job in doc["jobs"].items():
        steps = job.get("steps")
        assert isinstance(steps, list) and steps, f"{path.name}: job {job_name} has no steps"
        for i, step in enumerate(steps):
            kinds = [key for key in ("run", "uses") if key in step]
            assert len(kinds) == 1, f"{path.name}: job {job_name} step {i} has {kinds or 'neither'}"
            assert isinstance(step[kinds[0]], str) and step[kinds[0]].strip(), (
                f"{path.name}: job {job_name} step {i} has an empty {kinds[0]}")
