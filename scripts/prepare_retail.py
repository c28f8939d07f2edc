"""Convert the public Retail Rocket event log into the interaction TSV
this package trains on.

Input: events.csv from the Retail Rocket kaggle dump (columns: timestamp,
visitorid, event, itemid, transactionid) with events view / addtocart /
transaction, or any file already in `user<TAB>item<TAB>relation` form.

Typical use:

    python scripts/prepare_retail.py events.csv data/retail.tsv --min-buys 1
    CHAINREC_RETAIL=data/retail.tsv pytest -s tests/test_acceptance.py -k retail

Event-log preprocessing pipelines differ in their filtering rules; tune
--min-buys / --min-views until the printed user/item counts match the
statistics you are reproducing, then train with the package defaults.
"""

import argparse
import csv
import sys
from collections import defaultdict

EVENT_MAP = {"view": "view", "addtocart": "cart", "transaction": "buy"}


def read_events(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        head = fh.readline()
        fh.seek(0)
        if "\t" in head and head.count("\t") >= 2 and "," not in head.split("\t")[0]:
            for line in fh:
                parts = line.rstrip("\r\n").split("\t")
                if len(parts) >= 3:
                    yield parts[0], parts[1], parts[2]
            return
        reader = csv.DictReader(fh)
        for row in reader:
            event = EVENT_MAP.get(row.get("event", "").strip())
            if event:
                yield row["visitorid"], row["itemid"], event


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("events", help="events.csv or a 3-column TSV")
    parser.add_argument("out", help="output interaction TSV")
    parser.add_argument("--min-buys", type=int, default=1,
                        help="keep users with at least this many buys")
    parser.add_argument("--min-views", type=int, default=0,
                        help="keep users with at least this many views")
    args = parser.parse_args(argv)

    per_user = defaultdict(lambda: defaultdict(set))
    for user, item, rel in read_events(args.events):
        per_user[user][rel].add(item)

    kept_users = [u for u, rels in per_user.items()
                  if len(rels.get("buy", ())) >= args.min_buys
                  and len(rels.get("view", ())) >= args.min_views]
    kept_users.sort()

    n_lines = 0
    items = set()
    with open(args.out, "w", encoding="utf-8") as fh:
        for u in kept_users:
            for rel in ("view", "cart", "buy"):
                for item in sorted(per_user[u].get(rel, ())):
                    fh.write(f"{u}\t{item}\t{rel}\n")
                    items.add(item)
                    n_lines += 1
    print(f"wrote {args.out}: {len(kept_users)} users, {len(items)} items, "
          f"{n_lines} interactions", file=sys.stderr)


if __name__ == "__main__":
    main()
