"""E6 — Figure 4: the five-step test-generation process.

Builds prescriptions for three application domains, binds each to every
engine its workload supports, and runs the prescribed tests — step 5's
"prescribed test for a specific system and software stack".
"""

from __future__ import annotations

import pytest
from conftest import print_banner

from repro.core.spec import BenchmarkSpec
from repro.core.test_generator import TestGenerator
from repro.execution.report import ascii_table

CASES = {
    "basic database operations": ("database-aggregate-join", 80),
    "cloud OLTP": ("oltp-read-write", 100),
    "micro benchmarks": ("micro-wordcount", 80),
}


@pytest.mark.parametrize("domain", sorted(CASES))
def test_generate_and_bind(benchmark, domain):
    prescription_name, volume = CASES[domain]
    generator = TestGenerator()
    engines = BenchmarkSpec(prescription_name).resolved_engines(
        generator.repository
    )

    def generate_all():
        return [
            generator.generate(prescription_name, engine, volume)
            for engine in engines
        ]

    tests = benchmark.pedantic(generate_all, rounds=2, iterations=1)
    rows = []
    for test in tests:
        result = test.run()
        rows.append(
            {
                "prescribed test": test.name,
                "engine": test.engine.name,
                "stack": test.engine.software_stack,
                "records in": result.records_in,
                "records out": result.records_out,
            }
        )
    print_banner("E6", f"test generation — {domain}")
    print(ascii_table(rows))
    assert len(tests) >= 1


def test_custom_prescription_roundtrip(benchmark):
    """Steps 2-4 driven manually: operations → pattern → prescription."""
    from repro.core.operations import operations
    from repro.core.patterns import MultiOperationPattern
    from repro.core.prescription import DataRequirement
    from repro.datagen.base import DataType

    def build_and_run():
        generator = TestGenerator()
        prescription = generator.make_prescription(
            name="bench-custom-grep",
            domain="micro benchmarks",
            data=DataRequirement("random-text", DataType.TEXT, volume=60),
            operations=operations("grep"),
            pattern=MultiOperationPattern(operations("grep")),
            workload="grep",
            params={"pattern_text": "stone"},
        )
        test = generator.generate(prescription, "mapreduce")
        return test.run()

    result = benchmark.pedantic(build_and_run, rounds=2, iterations=1)
    print_banner("E6", "custom prescription assembled from parts")
    print(f"  matched {result.records_out}/{result.records_in} documents")
    assert result.records_in == 60
