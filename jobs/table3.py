"""Regenerate Table 3 (query summary): ``python jobs/table3.py [--sf SF]``."""
import argparse

from repro.tables import table3
from repro.workloads.datasets import scale_factor


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=scale_factor, default=0.4)
    args = ap.parse_args()
    print(table3.format_table(table3.rows(sf=args.sf)))


if __name__ == "__main__":
    main()
