"""Record the FM counts and genus representatives that the checks compare
against, for every cell the workloads can request.

FM counts and genus representatives have no closed form yet, so the
benchmark pins them to the values of a trusted commit.  Run from the
repository root at that commit (about two minutes on one core):

    python3 perfbench/record_expected.py

It rewrites ``perfbench/expected.json``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from k3fm.discforms import ns_form  # noqa: E402
from k3fm.lagrangians import GSpec  # noqa: E402
from k3fm.surfaces import fm_count, genus_representatives  # noqa: E402

from workloads import BIGCELL, QUERY_T_MAX  # noqa: E402


def main():
    cells = [(d, t) for t in range(1, QUERY_T_MAX + 1) for d in range(t)]
    extra = {argv[0]: (int(argv[2]), int(argv[4])) for _, argv in BIGCELL}
    fm = {}
    genus = {}
    for d, t in cells + [extra["fm"]]:
        fm[f"{d},{t}"] = fm_count(d, t, GSpec.sign_group(ns_form(d, t).form))
    for d, t in cells + [extra["genus"]]:
        genus[f"{d},{t}"] = list(genus_representatives(d, t))
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump({"fm": fm, "genus": genus}, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
