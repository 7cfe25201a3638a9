"""Derive the paper's Table 1 classifications from capability facts.

Section 4.1 defines the vocabulary:

* **Volume** — "the volume of synthetic data is *scalable*. By contrast,
  some benchmarks such as HiBench and LinkBench also use fixed-size data
  as inputs. Hence we call these benchmarks *partially scalable*."
* **Velocity** — "benchmarks [that] provide parallel strategies … the
  data generation rate can be controlled. However, … the data updating
  frequency is not considered … hence *semi-controllable*. We also call
  benchmarks *un-controllable* if both … are not considered."  A suite
  controlling both would be *fully controllable* (Section 5.1's goal).
* **Veracity** — *un-considered* when "the generation process of
  synthetic data is independent of the benchmarking applications";
  *partially considered* when a portion of data uses distributions
  derived from real data; *considered* when per-type data models capture
  and preserve real-data characteristics.

These rules are code here, so Table 1 is regenerated, not transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.suites.registry import GeneratorCapability, SuiteModel


@dataclass(frozen=True)
class Table1Row:
    """One derived row of Table 1."""

    benchmark: str
    volume: str
    velocity: str
    variety: str
    veracity: str


def classify_volume(capability: GeneratorCapability) -> str:
    if capability.scalable_volume and capability.fixed_size_inputs:
        return "Partially scalable"
    if capability.scalable_volume:
        return "Scalable"
    return "Fixed"


def classify_velocity(capability: GeneratorCapability) -> str:
    if capability.parallel_generation and capability.update_frequency_control:
        return "Fully controllable"
    if capability.parallel_generation:
        return "Semi-controllable"
    return "Un-controllable"


def classify_variety(capability: GeneratorCapability) -> str:
    return ", ".join(capability.data_sources)


def classify_veracity(capability: GeneratorCapability) -> str:
    if capability.full_real_data_models:
        return "Considered"
    if capability.partial_real_data_models:
        return "Partially considered"
    if capability.generation_independent_of_apps:
        return "Un-considered"
    return "Un-considered"


def classify_suite(model: SuiteModel) -> Table1Row:
    """Derive one suite's Table 1 row from its capability facts."""
    capability = model.capability
    return Table1Row(
        benchmark=model.name,
        volume=classify_volume(capability),
        velocity=classify_velocity(capability),
        variety=classify_variety(capability),
        veracity=classify_veracity(capability),
    )


def classify_generator(generator) -> Table1Row:
    """Classify one of *our own* data generators on the same axes.

    Used by the benchmarks to show where this framework's generators land
    in the paper's taxonomy (the Section 5.1 'fully controllable' goal).
    """
    from repro.datagen.base import DataGenerator

    assert isinstance(generator, DataGenerator)
    capability = GeneratorCapability(
        data_sources=(generator.data_type.label,),
        scalable_volume=True,
        fixed_size_inputs=False,
        parallel_generation=True,  # every generator partitions
        update_frequency_control=True,  # StreamGenerator's update mix × rate
        generation_independent_of_apps=not generator.veracity_aware,
        partial_real_data_models=False,
        full_real_data_models=generator.veracity_aware,
    )
    return Table1Row(
        benchmark=f"repro:{generator.name}",
        volume=classify_volume(capability),
        velocity=classify_velocity(capability),
        variety=classify_variety(capability),
        veracity=classify_veracity(capability),
    )
