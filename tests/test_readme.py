"""The README's examples run as written: each JSON job document through
its command and then `verify-cert`, and the Library snippet."""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from blocksplit.cli import main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(
    encoding="utf-8")


def fenced(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


# the other JSON blocks show report entries, some with placeholders
JOBS = [json.loads(block) for block in fenced("json") if '"ring"' in block]


def command(doc: dict) -> str:
    if "quiver" in doc:
        return "check-quiver"
    return "check-rect" if "ideals" in doc else "check-square"


def test_the_readme_has_a_job_for_each_check():
    assert sorted(map(command, JOBS)) == ["check-quiver", "check-rect",
                                          "check-square"]


@pytest.mark.parametrize("doc", JOBS, ids=[command(d) for d in JOBS])
def test_a_readme_job_runs_and_its_report_verifies(tmp_path, capsys, doc):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command(doc), "--input", str(job)]) == 0
    report = tmp_path / "report.json"
    report.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["verify-cert", "--cert", str(report)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_the_library_snippet_runs():
    (snippet,) = fenced("python")
    exec(snippet, {})
