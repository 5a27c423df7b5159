"""Regenerate Table 2 (dataset summary): ``python jobs/table2.py [--sf SF]``."""
import argparse

from repro.tables import table2
from repro.workloads.datasets import scale_factor


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=scale_factor, default=0.4)
    args = ap.parse_args()
    print(table2.format_table(table2.rows(sf=args.sf)))


if __name__ == "__main__":
    main()
