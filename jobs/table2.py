"""Regenerate Table 2 (dataset summary): ``python jobs/table2.py [--sf SF]``."""
import argparse

from repro.tables import table2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.4)
    args = ap.parse_args()
    print(table2.format_table(table2.rows(sf=args.sf)))


if __name__ == "__main__":
    main()
