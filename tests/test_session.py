"""The Spark driver's heap: an explicit setting, else the container's
limit, else half of physical memory clamped to 2–8g."""
from repro import session


def _half_ram_rule() -> str:
    """The rule of the tier-1 test command, from ``/proc/meminfo``:
    ``MemTotal`` (KiB) over 2 GiB, clamped to [2, 8], in gigabytes."""
    with open("/proc/meminfo") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return f"{min(8, max(2, kib // 2097152))}g"


def test_driver_mem_fallback_is_half_of_ram(monkeypatch, tmp_path):
    """With no setting and no readable cgroup limit (missing files, cgroup
    v1's "unlimited" sentinel, v2's "max"), the heap is half of RAM."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    (tmp_path / "v1").write_text("9223372036854771712\n")
    (tmp_path / "v2").write_text("max\n")
    paths = (str(tmp_path / "missing"), str(tmp_path / "v1"), str(tmp_path / "v2"))
    monkeypatch.setattr(session, "CGROUP_LIMITS", paths)
    assert session._driver_mem() == _half_ram_rule()


def test_driver_mem_fallback_clamps(monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    monkeypatch.setattr(session, "CGROUP_LIMITS", ())
    page = 4096
    for ram_gib, want in ((1, "2g"), (3, "2g"), (11, "5g"), (16, "8g"), (64, "8g")):
        pages = ram_gib * 2**30 // page
        monkeypatch.setattr(session.os, "sysconf", {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": pages}.get)
        assert session._driver_mem() == want, ram_gib


def test_driver_mem_precedence(monkeypatch, tmp_path):
    """An explicit ``SPARK_DRIVER_MEM`` wins; else a real cgroup limit
    gives 75% of it."""
    limit = tmp_path / "memory.max"
    limit.write_text(str(12 * 2**30))
    monkeypatch.setattr(session, "CGROUP_LIMITS", (str(limit),))
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert session._driver_mem() == "3g"
    monkeypatch.delenv("SPARK_DRIVER_MEM")
    assert session._driver_mem() == "9g"
