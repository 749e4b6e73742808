"""Smoke test of the benchmark: every workload at tiny sizes, in process."""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, env = run.run_workload(
        name, seed=3, seconds=0.0, trace=trace, size="tiny", setup_probes=1,
        out_dir=tmp_path,
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    expected = _units("per_layer" if trace else "end_to_end")
    assert {key: m["unit"] for key, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert env["seed"] == 3 and env["src_lines"] > 0
    record = json.loads((tmp_path / f"{name}-seed3-trace{int(trace)}.json").read_text())
    assert record["result"] == result
    if trace:
        # Self time is a difference of clock readings; allow their rounding.
        assert record["spans"] and all(s["self"] > -1e-9 for s in record["spans"])


def test_spec_names_the_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert _units("end_to_end") == run.END_TO_END_UNITS


def test_table_with_a_dropped_start_fails_the_decode_check():
    workload, (inputs,), _ = run.setup("trajectory-mine", 3, "tiny")
    outputs = workload.run(inputs)
    decode_failures = run._import_workloads().decode_failures
    assert decode_failures(outputs.loaded, outputs.data) == []
    row = outputs.loaded.rows[0]
    assert not row.residual and row.starts
    broken = dataclasses.replace(
        outputs.loaded,
        rows=(dataclasses.replace(row, starts=row.starts[1:]),) + outputs.loaded.rows[1:],
    )
    assert decode_failures(broken, outputs.data)
    assert workload.check(inputs, dataclasses.replace(outputs, loaded=broken))
