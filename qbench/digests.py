"""The benchmark's committed data: the ``table-n4`` row digests, checked
independently, and the lengths of the n = 6 diagrams.

    python3 qbench/digests.py    # check, then rewrite table_n4.digests and n6.lengths

Every one of the 11025 products at n = 4 is first compared, at r = q^N with
N in {1, 2, 3} and q -> 1, with the loop count of the classical diagram
concatenation.  Only when all agree are the row digests accepted: without
this the digest would only check the code against itself.  ``oracle-n6``
stratifies its pairs by diagram length, which takes seconds to compute for
all 10395 diagrams, so the lengths are committed too.
"""

from __future__ import annotations

import sys

import rep


def checked_digests() -> tuple[list[str], list[tuple]]:
    """Row digests for n = 4, and the pairs that fail the classical oracle."""
    qb = rep.Qb()
    st = rep.table_inputs(qb)
    ctx, ds, ids = st["ctx"], st["ds"], st["ids"]
    digests, bad = [], []
    for d1 in ds:
        parts = []
        for d2 in ds:
            P = qb.algebra.product(ctx, qb.algebra.QBrauerElement.basis(d1),
                                   qb.algebra.QBrauerElement.basis(d2))
            if not rep.oracle_agrees(qb, d1, d2, P):
                bad.append((ids[d1], ids[d2]))
            parts.append(rep.table_rows(ids, d1, d2, P))
        digests.append(rep.row_digest("".join(parts)))
    return digests, bad


def n6_lengths() -> str:
    """The lengths of the n = 6 diagrams as ``rep.load_lengths`` reads them."""
    qb = rep.Qb()
    ds = sorted(qb.diagrams.enumerate_diagrams(6), key=lambda d: d.partner)
    return "".join("0123456789abcdefghijklmnopqrstuvwxyz"[qb.diagrams.diagram_length(d)]
                   for d in ds)


def main() -> int:
    digests, bad = checked_digests()
    if bad:
        print(f"{len(bad)} products disagree with the classical oracle, "
              f"first {bad[:5]}; digests not written", file=sys.stderr)
        return 1
    with open(rep.DIGESTS, "w") as f:
        f.write("# left-factor id, first 16 hex digits of the sha256 of its "
                "`qbrauer table 4` rows\n")
        for i, h in enumerate(digests):
            f.write(f"{i} {h}\n")
    print(f"wrote {len(digests)} row digests to {rep.DIGESTS}")
    lengths = n6_lengths()
    with open(rep.LENGTHS, "w") as f:
        f.write("# diagram_length of each n = 6 diagram, one base-36 digit each, "
                "in the order of the sorted partner tuples\n")
        f.write(lengths + "\n")
    print(f"wrote {len(lengths)} diagram lengths to {rep.LENGTHS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
