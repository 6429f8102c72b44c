"""Command-line surface.

Exit codes: 0 success / property holds, 1 input error, 2 internal
consistency error, 3 property fails (mp).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool

from .core import (
    MAX_DOCUMENT_BYTES,
    ContractError,
    InternalCheckError,
    StructureError,
    ValidationFailed,
    bits,
    boolean_center,
    format_set,
)
from .filters import all_filters, is_domain, is_filter, quotient
from .coann import classify_baer_rickart, coannulet
from .spectra import hull_kernel_topology, prime_spectrum, separation_check
from .purity import pure_part, pure_spectrum
from .mp import MpDisagreement, mp_check
from .enumerator import DEFAULT_CAP, census, enumerate_residuated
from .latfile import (
    LatticeDocument,
    LatticeFormatError,
    dot_hasse,
    dot_spectrum,
    parse_document,
    serialize_document,
    to_document_dict,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_PROPERTY = 3


def _load(path: str) -> LatticeDocument:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_DOCUMENT_BYTES + 1)
    except OSError as exc:
        raise LatticeFormatError(f"{path}: {exc.strerror}") from exc
    if len(data) > MAX_DOCUMENT_BYTES:
        raise LatticeFormatError(f"{path}: larger than {MAX_DOCUMENT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LatticeFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    return parse_document(text)


def cmd_validate(args) -> int:
    doc = _load(args.file)  # parse_document has validated it
    if args.json:
        print(json.dumps({"name": doc.name, "valid": True}))
    else:
        print(f"{doc.name}: valid ({doc.lattice.size} elements)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    doc = _load(args.file)
    lat = doc.lattice
    spec = prime_spectrum(lat)
    cls = classify_baer_rickart(lat)
    domain, _ = is_domain(lat)
    center = boolean_center(lat)
    data = {
        "name": doc.name,
        "size": lat.size,
        "filters": [lat.label_set(f) for f in all_filters(lat)],
        "primes": [lat.label_set(p) for p in spec.primes],
        "maximal": [lat.label_set(spec.primes[i]) for i in spec.maximal],
        "minimal": [lat.label_set(spec.primes[i]) for i in spec.minimal],
        "boolean_center": lat.label_set(center),
        "coannulets": sorted(
            {format_set(lat, coannulet(lat, x)) for x in range(lat.size)}
        ),
        "domain": domain,
        "baer": cls.baer,
        "rickart": cls.rickart,
    }
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"{doc.name}: {lat.size} elements")
    print(f"  filters ({len(data['filters'])}):")
    for f in all_filters(lat):
        print(f"    {format_set(lat, f)}")
    print(f"  primes: {', '.join(format_set(lat, p) for p in spec.primes)}")
    print(f"  maximal: {', '.join(format_set(lat, spec.primes[i]) for i in spec.maximal)}")
    print(f"  minimal: {', '.join(format_set(lat, spec.primes[i]) for i in spec.minimal)}")
    print(f"  boolean center: {format_set(lat, center)}")
    print(f"  domain: {domain}   baer: {cls.baer}   rickart: {cls.rickart}")
    return EXIT_OK


def cmd_mp(args) -> int:
    doc = _load(args.file)
    report = mp_check(doc.lattice)
    k = len(report.verdicts)
    if args.json:
        payload = {
            "name": doc.name,
            "mp": report.final,
            "agree": report.agree,
            "verdicts": {name: v.value for name, v in report.verdicts.items()},
        }
        if args.witness:
            payload["witnesses"] = report.witnesses()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"mp: {str(report.final).lower()} ({k}/{k} characterizations agree)")
        if args.witness and not report.final:
            for name, v in report.verdicts.items():
                if v.witness is not None:
                    print(f"  {name}: {json.dumps(v.witness)}")
    return EXIT_OK if report.final else EXIT_PROPERTY


def cmd_pure(args) -> int:
    doc = _load(args.file)
    lat = doc.lattice
    ps = pure_spectrum(lat)
    spec = prime_spectrum(lat)
    data = {
        "name": doc.name,
        "pure_filters": [lat.label_set(f) for f in ps.pure],
        "purely_maximal": [lat.label_set(f) for f in ps.purely_maximal],
        "purely_prime": [lat.label_set(f) for f in ps.purely_prime],
        "pure_parts_of_maximals": {
            format_set(lat, spec.primes[i]): lat.label_set(pure_part(lat, spec.primes[i]))
            for i in spec.maximal
        },
    }
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"{doc.name}: {len(ps.pure)} pure filters")
    for f in ps.pure:
        print(f"    {format_set(lat, f)}")
    print(f"  purely maximal: {', '.join(format_set(lat, f) for f in ps.purely_maximal)}")
    print(f"  purely prime:   {', '.join(format_set(lat, f) for f in ps.purely_prime)}")
    return EXIT_OK


def cmd_topology(args) -> int:
    doc = _load(args.file)
    lat = doc.lattice
    top = hull_kernel_topology(lat, args.space, args.variant)
    sep = separation_check(top)
    points = [format_set(lat, p) for p in top.point_filters]
    data = {
        "name": doc.name,
        "space": args.space,
        "variant": args.variant,
        "points": points,
        "min_nbhd": {
            points[i]: [points[j] for j in bits(top.min_nbhd[i])]
            for i in range(len(points))
        },
        # T1 and Hausdorff: one property on a finite space
        "t1": sep.discrete,
        "hausdorff": sep.discrete,
        "normal": sep.normal,
    }
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"{doc.name}: {args.variant} topology on {args.space} ({len(points)} points)")
    for i, p in enumerate(points):
        nb = ", ".join(points[j] for j in bits(top.min_nbhd[i]))
        print(f"  min_nbhd {p} = [{nb}]")
    print(f"  t1: {sep.discrete}   hausdorff: {sep.discrete}   normal: {sep.normal}")
    return EXIT_OK


def cmd_quotient(args) -> int:
    doc = _load(args.file)
    lat = doc.lattice
    pos = {s: i for i, s in enumerate(lat.labels)}
    mask = 0
    for s in args.filter.split(","):
        s = s.strip()
        if s not in pos:
            raise LatticeFormatError(f"--filter: unknown label {s!r}")
        mask |= 1 << pos[s]
    if not is_filter(lat, mask):
        raise ContractError(f"--filter: {{{args.filter}}} is not a filter")
    q = quotient(lat, mask)
    if len(set(q.labels)) < q.size:
        same = next(s for i, s in enumerate(q.labels) if s in q.labels[:i])
        raise ContractError(f"--filter: two classes print the same label {same}")
    sys.stdout.write(
        serialize_document(LatticeDocument(f"{doc.name}/{{{args.filter}}}", q))
    )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if not 1 <= args.size <= DEFAULT_CAP:
        raise ContractError(f"--size must be between 1 and {DEFAULT_CAP}")
    if args.census:
        rows = census(args.size)
        if args.json:
            print(json.dumps([row.__dict__ for row in rows], indent=2))
            return EXIT_OK
        print("order  lattices  residuated  mp  rickart  baer  domains")
        for r in rows:
            print(
                f"{r.order:>5}  {r.lattices:>8}  {r.residuated:>10}"
                f"  {r.mp:>2}  {r.rickart:>7}  {r.baer:>4}  {r.domains:>7}"
            )
        return EXIT_OK
    for i, lat in enumerate(enumerate_residuated(args.size)):
        doc = to_document_dict(lat, f"R{args.size}_{i}")
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def cmd_dot(args) -> int:
    doc = _load(args.file)
    if args.what == "hasse":
        sys.stdout.write(dot_hasse(doc.lattice, doc.name))
    else:
        sys.stdout.write(dot_spectrum(doc.lattice, doc.name))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not internal errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reslat",
        description="Analyze finite residuated lattices: filters, spectra, "
        "pure filters, and the mp property.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, with_file=True, with_json=True):
        p = sub.add_parser(name, help=help_)
        if with_file:
            p.add_argument("file", help="lattice document (JSON)")
        if with_json:
            p.add_argument("--json", action="store_true", help="machine output")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, "check the axioms of a lattice document")
    add("analyze", cmd_analyze, "filters, primes, center, classifications")
    p = add("mp", cmd_mp, "decide the mp property (exit 3 when it fails)")
    p.add_argument("--witness", action="store_true", help="print failure witnesses")
    add("pure", cmd_pure, "pure filters and the pure spectrum")
    p = add("topology", cmd_topology, "hull-kernel style topologies on the spectrum")
    p.add_argument("--space", choices=["spec", "min"], default="spec")
    p.add_argument("--variant", choices=["hull", "dual", "patch"], default="dual")
    p = add("quotient", cmd_quotient, "quotient by a filter, as a document")
    p.add_argument("--filter", required=True, help="comma-separated labels")
    p = add("enumerate", cmd_enumerate, "enumerate residuated lattices", with_file=False)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--census", action="store_true", help="counts per order instead")
    p = add("dot", cmd_dot, "DOT output", with_json=False)
    p.add_argument("--what", choices=["hasse", "spec"], default="hasse")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LatticeFormatError, StructureError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValidationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in exc.report.violations:
            print(f"  {v.axiom} at {v.witness}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalCheckError, MpDisagreement) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenProcessPool as exc:
        print(f"internal error: enumerator: a worker process died: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
