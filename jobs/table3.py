"""Regenerate Table 3 (query summary): ``python jobs/table3.py [--sf SF]``."""
import argparse

from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.4)
    args = ap.parse_args()
    spark = get_spark("table3")
    from repro.tables import table3

    rows = table3.rows(spark, sf=args.sf)
    print(table3.format_table(rows))
    spark.stop()


if __name__ == "__main__":
    main()
