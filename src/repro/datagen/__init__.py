"""Data generators preserving the 4V properties of big data (Figure 3).

The sub-modules cover the representative data sources of Section 2.1 —
table, text, stream, and graph — plus the semi-structured derivatives
(web logs, reviews), scale-down sampling, the veracity metrics, and
format conversion.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.datagen.base": (
            "DEFAULT_CHUNK_SIZE", "DataGenerator", "DataSet", "DataType",
            "RecordBatch", "StructureClass", "as_dataset", "mix_seed",
        ),
        "repro.datagen.cache": ("CacheStats", "DatasetCache"),
        "repro.datagen.models": ("ModelCache",),
        "repro.datagen.formats": (
            "available_formats", "convert", "convert_batches",
        ),
        "repro.datagen.source": (
            "DatasetSource", "GeneratorSource", "as_source", "ensure_dataset",
        ),
        "repro.datagen.graph": (
            "ErdosRenyiGenerator", "PreferentialAttachmentGenerator",
            "RmatGraphGenerator",
        ),
        "repro.datagen.media": ("SyntheticImageGenerator", "image_features"),
        "repro.datagen.resume": ("ResumeGenerator", "cluster_cohesion"),
        "repro.datagen.sampling": ("scale_down",),
        "repro.datagen.stream": (
            "BurstyArrivals", "DiurnalArrivals", "EmpiricalArrivals",
            "EventKind", "PoissonArrivals", "StreamEvent", "StreamGenerator",
            "UniformArrivals",
        ),
        "repro.datagen.table": (
            "Categorical", "FittedTableGenerator", "ForeignKey", "Gaussian",
            "SequentialKey", "TableGenerator", "TableSchema", "TextColumn",
            "UniformFloat", "UniformInt", "Zipf", "retail_star_schema",
        ),
        "repro.datagen.text": (
            "LdaModel", "LdaTextGenerator", "RandomTextGenerator",
            "UnigramTextGenerator", "tokenize", "word_distribution",
        ),
        "repro.datagen.veracity": (
            "VeracityReport", "chi_square_statistic", "graph_veracity",
            "jensen_shannon_divergence", "kl_divergence", "model_veracity",
            "stream_veracity", "table_veracity", "text_veracity",
            "topic_structure_veracity", "total_variation",
        ),
        "repro.datagen.weblog": ("ReviewGenerator", "WebLogGenerator"),
    },
)
