"""Byte-identity net: the rendered report of every shipped scenario.

The files under ``tests/golden/`` hold ``Report.render()`` of each
scenario run below.  Any change to the engine that moves a single byte
of a report fails here; regenerate a file only for a deliberate change
of the report format or semantics, and say so in the change log:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_all()"
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ailtl.dsl import parse_program, parse_trace
from ailtl.runtime import run
from ailtl.scenarios import gen_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CASES = {
    "queue_gated": ("queue", {"size": 100, "seed": 7}),
    "queue_inject3": ("queue", {"size": 100, "seed": 7, "inject_duplicates": 3}),
    "supply_hard": ("supply", {}),
    "supply_soft": ("supply", {"soft": True}),
    "battery_normal": ("battery", {"variant": "normal"}),
    "battery_fault": ("battery", {"variant": "fault"}),
    "battery_extensive": ("battery", {"variant": "extensive"}),
    "temperature": ("temperature", {}),
    "ambulance": ("ambulance", {}),
    "ethics": ("ethics", {}),
}


def rendered(case: str) -> str:
    name, params = CASES[case]
    program_text, trace_text = gen_scenario(name, **params)
    return run(parse_program(program_text), parse_trace(trace_text)).render()


def write_all() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN_DIR / f"{case}.txt").write_bytes(rendered(case).encode("utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden_bytes(case):
    expected = (GOLDEN_DIR / f"{case}.txt").read_bytes()
    assert rendered(case).encode("utf-8") == expected
