"""The one SparkSession bootstrap, shared by the test suite and ``jobs/``."""
from __future__ import annotations

import os


#: Where a container's memory limit may be read: cgroup v2, then v1.
CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env > cgroup v2/v1 limit > half of
    physical memory, clamped to 2–8g (the rule of the tier-1 test command).
    The cgroup read is best-effort: a container runtime's sysfs emulation
    may not pass the host limit through, and an unbounded value (cgroup
    v1's ~9.2e18 "unlimited" sentinel) is treated as absent so the JVM is
    never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in CGROUP_LIMITS:
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    half_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (1 << 31)
    return f"{min(8, max(2, half_gib))}g"


def get_spark(app_name: str):
    """A local SparkSession: 64 shuffle partitions, Arrow on.

    Master and driver memory are JVM launch options, read from
    ``PYSPARK_SUBMIT_ARGS`` when ``getOrCreate`` starts the JVM, so they
    are set first.  No spark-mode fetch aggregates: the shuffle partitions
    serve only the tests' reference aggregations, ``build_bitmap``'s
    distinct and the Spark ``GROUP BY`` checks.
    """
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
