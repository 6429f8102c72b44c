"""Workload definitions, input generators and expected answers.

Inputs are built here, from the seed, and handed to reslat only as
documents on disk and command lines; nothing below calls into reslat's
algebra.  The constructions are the textbook ones: chains, direct
products and relabelings, whose mp verdicts are known theorems:

* every chain is mp;
* mp(A x B) = mp(A) and mp(B);
* relabeling the carrier changes no verdict.

The expected census counts come from sources independent of reslat:
bounded lattices per order are OEIS A006966; residuated lattices per
order are from Belohlavek & Vychodil, "Residuated lattices of size <= 12"
(Order 27, 2010).  The mp, rickart, baer and domains rows have no
published source and are pinned from the first commit that had this
benchmark, where all 28 mp characterizations agreed on every lattice.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# census-7 expectations, one entry per order 1..7
LATTICES = (1, 1, 1, 2, 5, 15, 53)  # OEIS A006966
RESIDUATED = (1, 1, 2, 7, 26, 129, 723)  # Belohlavek & Vychodil
PINNED = {
    "mp": (1, 1, 2, 7, 25, 126, 709),
    "rickart": (1, 1, 2, 7, 25, 126, 709),
    "baer": (1, 1, 2, 7, 25, 126, 709),
    "domains": (0, 1, 2, 6, 25, 124, 709),
}

# enum-7 expectations: line count and sha256 of the 1-worker stream
ENUM7_LINES = 723
ENUM7_SHA256 = "a81d29894d8e395b1092bb9f0496955f441cd1fb07fdc84f79b778f5b84129af"

# the number of characterizations mp_check runs
VERDICTS = 28


# ---------------------------------------------------------------------------
# document constructions (plain dicts in the lattice file format)


def chain(n: int, kind: str) -> dict:
    """The n-element Lukasiewicz ("luk") or Goedel ("godel") chain."""
    top = n - 1
    if kind == "luk":
        prod = lambda x, y: max(0, x + y - top)  # noqa: E731
    elif kind == "godel":
        prod = min
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    labels = [str(i) for i in range(n)]
    return {
        "name": f"{kind}{n}",
        "size": n,
        "labels": labels,
        "order": [[labels[i], labels[i + 1]] for i in range(top)],
        "odot": [[labels[prod(x, y)] for y in range(n)] for x in range(n)],
    }


def product(a: dict, b: dict) -> dict:
    """Direct product: componentwise order and componentwise product."""
    la, lb = a["labels"], b["labels"]
    pa = {s: i for i, s in enumerate(la)}
    pb = {s: i for i, s in enumerate(lb)}
    nb = len(lb)
    labels = [f"{x}.{y}" for x in la for y in lb]
    if len(set(labels)) != len(labels):
        raise ValueError(f"product labels collide: {a['name']} x {b['name']}")
    order = [[f"{lo}.{y}", f"{hi}.{y}"] for lo, hi in a["order"] for y in lb]
    order += [[f"{x}.{lo}", f"{x}.{hi}"] for x in la for lo, hi in b["order"]]
    odot = []
    for x1 in la:
        for y1 in lb:
            row_a = a["odot"][pa[x1]]
            row_b = b["odot"][pb[y1]]
            odot.append([f"{row_a[i // nb]}.{row_b[i % nb]}" for i in range(len(labels))])
    return {
        "name": f"{a['name']}x{b['name']}",
        "size": len(labels),
        "labels": labels,
        "order": order,
        "odot": odot,
    }


def power(a: dict, k: int) -> dict:
    out = a
    for _ in range(k - 1):
        out = product(out, a)
    return out


def relabel(doc: dict, rng: random.Random) -> dict:
    """Permute the element order of a document without changing the algebra.

    Position i of the result holds old element perm[i]: the labels and the
    rows and columns of odot move together.  Entries name elements by label
    and stay as they are; so do the cover pairs, whose list order is
    shuffled too.  imp is dropped, since reslat derives it from odot.
    """
    n = doc["size"]
    perm = list(range(n))
    rng.shuffle(perm)
    order = [list(pair) for pair in doc["order"]]
    rng.shuffle(order)
    return {
        "name": doc["name"],
        "size": n,
        "labels": [doc["labels"][p] for p in perm],
        "order": order,
        "odot": [[doc["odot"][p][q] for q in perm] for p in perm],
    }


# ---------------------------------------------------------------------------
# workloads


def _bundled(root: Path, name: str) -> dict:
    text = (root / "src" / "reslat" / "data" / f"{name}.json").read_text("utf-8")
    doc = json.loads(text)
    doc.pop("imp", None)
    return doc


MP_NAMES = ("luk30", "g2p5", "g3p3", "a6xa6", "a6xa8", "a8xg3")


def mp_documents(root: Path, seed: int) -> list[tuple[str, dict, bool]]:
    """The mp-large documents as (name, document, expected mp verdict).

    a6 is mp and a8 is not, so exactly the two products with a8 fail.
    """
    a6, a8 = _bundled(root, "a6"), _bundled(root, "a8")
    g2, g3 = chain(2, "godel"), chain(3, "godel")
    docs = {
        "luk30": (chain(30, "luk"), True),
        "g2p5": (power(g2, 5), True),
        "g3p3": (power(g3, 3), True),
        "a6xa6": (product(a6, a6), True),
        "a6xa8": (product(a6, a8), False),
        "a8xg3": (product(a8, g3), False),
    }
    rng = random.Random(seed)
    return [(name, dict(relabel(docs[name][0], rng), name=name), docs[name][1])
            for name in MP_NAMES]


# Each workload: the reslat argv (FILE stands for each mp document) and the
# RESLAT_THREADS value of its timed passes.
WORKLOADS = {
    "census-7": {"argv": ["enumerate", "--size", "7", "--census", "--json"], "threads": "1"},
    "mp-large": {"argv": ["mp", "FILE", "--json", "--witness"], "threads": "1"},
    "enum-7": {"argv": ["enumerate", "--size", "7"], "threads": "2"},
}
# Spans recorded in pool workers are lost, so traced runs use one worker.
TRACE_THREADS = "1"
