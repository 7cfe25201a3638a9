"""A simulated distributed file system (the HDFS substitute)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.engines.dfs.filesystem": (
            "DataNode", "DfsOpReport",
            "DistributedFileSystem", "FileEntry",
        ),
    },
)
