"""Seeded inputs: same seed, same bytes — in any process."""

from __future__ import annotations

import os
import subprocess
import sys

from bench import inputs
from bench.catalogue import ROOT

FINGERPRINT = """
import sys, tempfile
from pathlib import Path
from bench.inputs import fingerprint
from bench.workloads import WORKLOADS
with tempfile.TemporaryDirectory() as scratch:
    workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), 0.05, Path(scratch))
    workload.setup()
    print(fingerprint(workload.input_parts()))
    workload.close()
"""


def fingerprint_in_new_process(workload: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=f"{ROOT}{os.pathsep}{ROOT / 'src'}")
    done = subprocess.run(
        [sys.executable, "-c", FINGERPRINT, workload, str(seed)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )  # fmt: skip
    return done.stdout.strip()


def test_fingerprint_is_stable_across_processes_and_moves_with_the_seed():
    for workload in ("adhoc_hunt", "intel_corpus"):
        first = fingerprint_in_new_process(workload, 7, hash_seed="1")
        again = fingerprint_in_new_process(workload, 7, hash_seed="2")
        other = fingerprint_in_new_process(workload, 8, hash_seed="1")
        assert len(first) == 64
        assert first == again
        assert first != other


def test_report_stream_alternates_variants_and_unique_rotations():
    stream = inputs.report_stream(seed=3, count=40)
    assert [case.rotated for case in stream] == [False, True] * 20
    rotated = [case.text for case in stream if case.rotated]
    assert len(set(rotated)) == len(rotated)
    assert all("/tmp/r3x" in text for text in rotated)
    assert stream == inputs.report_stream(seed=3, count=40)


def test_query_mix_has_seven_types_with_ground_truth_on_the_chains():
    mix = inputs.query_mix(inputs.campaign(seed=5, noise_scale=2.0))
    assert [query.name for query in mix] == [
        "staging", "exfiltration", "wide", "selective", "path",
        "staging_windowed", "wide_windowed",
    ]  # fmt: skip
    expected = {query.name: query.expected for query in mix}
    assert expected["staging"] == expected["staging_windowed"]
    assert expected["exfiltration"] and expected["wide"] is None
    assert mix[5].text.count("during") == 3
