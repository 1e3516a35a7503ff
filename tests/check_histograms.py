"""Check that each report's score histogram holds every test document.

    python tests/check_histograms.py [--docs N] REPORT.json...

The normal and anomalous counts of a report's histogram bins must sum to its
``meta.n_test_docs``, and to N when ``--docs`` is given.  Exits 1 at the
first report that fails, naming it.
"""

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, help="test document count of every report")
    parser.add_argument("reports", nargs="+", help="report.json files")
    args = parser.parse_args(argv)
    for path in args.reports:
        with open(path) as fh:
            report = json.load(fh)
        docs = sum(normal + anomaly for _, _, normal, anomaly in report["histogram"])
        n_test = report["meta"]["n_test_docs"]
        if docs != n_test or args.docs not in (None, docs):
            expected = "" if args.docs is None else f", expected {args.docs}"
            print(f"{path}: the histogram holds {docs} documents, n_test_docs is {n_test}"
                  f"{expected}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
