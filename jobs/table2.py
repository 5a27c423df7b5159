"""Regenerate Table 2 (dataset summary): ``python jobs/table2.py [--sf SF]``."""
import argparse
import os

from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=float(os.environ.get("REPRO_SF", 0.4)))
    args = ap.parse_args()
    spark = get_spark("table2")
    from repro.tables import table2

    rows = table2.rows(spark, sf=args.sf)
    print(table2.format_table(rows))
    spark.stop()


if __name__ == "__main__":
    main()
