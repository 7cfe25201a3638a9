"""The built-in component catalogue: three ``name → "module:attr"`` tables.

Importing :mod:`repro` calls :func:`register_default_components`, which
enters the tables into the framework registries as references.  No
generator, workload or engine module is imported until
:meth:`~repro.core.registry.Registry.create` asks for that entry.
"""

from __future__ import annotations

from repro.core import registry

GENERATORS = {
    "random-text": "repro.datagen.text:RandomTextGenerator",
    "unigram-text": "repro.datagen.text:UnigramTextGenerator",
    "lda-text": "repro.datagen.text:default_lda_text_generator",
    "fitted-table": "repro.datagen.table:FittedTableGenerator",
    "rmat-graph": "repro.datagen.graph:RmatGraphGenerator",
    "pa-graph": "repro.datagen.graph:PreferentialAttachmentGenerator",
    "er-graph": "repro.datagen.graph:ErdosRenyiGenerator",
    "poisson-stream": "repro.datagen.stream:default_poisson_stream_generator",
    "kv-records": "repro.datagen.kv:KeyValueGenerator",
    "mixture-table": "repro.datagen.mixture:GaussianMixtureGenerator",
    "texture-images": "repro.datagen.media:SyntheticImageGenerator",
    "resumes": "repro.datagen.resume:ResumeGenerator",
}

#: Each key is the class's ``name``.
WORKLOADS = {
    "sort": "repro.workloads.micro:SortWorkload",
    "cfs": "repro.workloads.cfs:CfsWorkload",
    "terasort": "repro.workloads.micro:TeraSortWorkload",
    "wordcount": "repro.workloads.micro:WordCountWorkload",
    "grep": "repro.workloads.micro:GrepWorkload",
    "inverted-index": "repro.workloads.search:InvertedIndexWorkload",
    "pagerank": "repro.workloads.search:PageRankWorkload",
    "kmeans": "repro.workloads.social:KMeansWorkload",
    "connected-components": "repro.workloads.social:ConnectedComponentsWorkload",
    "collaborative-filtering":
        "repro.workloads.ecommerce:CollaborativeFilteringWorkload",
    "naive-bayes": "repro.workloads.ecommerce:NaiveBayesWorkload",
    "relational-query": "repro.workloads.relational:RelationalQueryWorkload",
    "count-url-links": "repro.workloads.relational:CountUrlLinksWorkload",
    "ycsb": "repro.workloads.oltp:YcsbWorkload",
    "windowed-aggregation":
        "repro.workloads.streaming_workloads:WindowedAggregationWorkload",
    "rolling-update-rate":
        "repro.workloads.streaming_workloads:RollingUpdateRateWorkload",
    "hybrid": "repro.workloads.hybrid:HybridWorkload",
    "image-classification":
        "repro.workloads.multimedia:ImageClassificationWorkload",
    "mlp-classification":
        "repro.workloads.deeplearning:MlpClassificationWorkload",
}

ENGINES = {
    "mapreduce": "repro.engines.mapreduce.runtime:MapReduceEngine",
    "dfs": "repro.engines.dfs.filesystem:DistributedFileSystem",
    "dbms": "repro.engines.dbms.engine:DbmsEngine",
    "nosql": "repro.engines.nosql.store:NoSqlStore",
    "streaming": "repro.engines.streaming.engine:StreamingEngine",
}


def register_default_components(force: bool = False) -> None:
    """Idempotently register the built-in generators, workloads, engines.

    ``force=True`` clears the three registries first.
    """
    for target, table in (
        (registry.generators, GENERATORS),
        (registry.workloads, WORKLOADS),
        (registry.engines, ENGINES),
    ):
        if force:
            target.clear()
        for name, reference in table.items():
            if name not in target:
                target.register(name, reference)
