"""Command line entry points.

Subcommands:

- `cosets`: enumerate coset representatives of T(G)\\G within a word ball
- `eval`:   evaluate a truncated series at one or more points
- `verify`: run named verification checks (or --all); exit 1 on failure
- `limits`: check the large-x_n limit of a series against its coset count

Every subcommand writes through `_write`: JSON by default (`--out csv`
for flat tables, `--outfile` to write to a file).  `verify` and `limits`
share the report driver `_report`.  With `--deterministic`, runtimes are
zeroed and keys sorted so repeated runs are byte-identical.  Exit codes: 0 success /
all checks pass, 1 a check or limit failed, 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .clifford import Multivector
from .congruence import VARIANTS, GroupDescriptor, contains_neg_identity, enumerate_cosets, translation_lattice
from .harness import _REPORT_FIELDS, CHECK_BUILDERS, THRESHOLDS_VERSION, check_limits, run_checks
from .series import EISENSTEIN_KINDS, EVALUATE_KINDS, SeriesSpec, evaluate


def _add_group_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=5, help="ambient dimension (2..12)")
    p.add_argument("--p", type=int, default=1, help="translation rank, 1 <= p <= n-1")
    p.add_argument("--group", choices=VARIANTS, default=None,
                   help="subgroup variant (default: principal with --level, else full)")
    p.add_argument("--level", type=int, default=None, help="congruence level N (variants with [N])")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--out", choices=("json", "csv"), default="json", help="output format")
    p.add_argument("--outfile", default=None, help="write output here instead of stdout")
    p.add_argument("--deterministic", action="store_true",
                   help="byte-identical output: fixed seed, zeroed runtimes, sorted keys")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cliffmod",
                                 description="Clifford modular groups, kernels and truncated series")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("cosets", help="enumerate translation-coset representatives")
    pc.set_defaults(run=_run_cosets)
    _add_group_args(pc)
    pc.add_argument("--maxlen", type=int, default=6, help="generator word length bound")
    _add_output_args(pc)

    pe = sub.add_parser("eval", help="evaluate a truncated series")
    pe.set_defaults(run=_run_eval)
    _add_group_args(pe)
    pe.add_argument("--series", choices=EVALUATE_KINDS, default="scalar")
    pe.add_argument("--s", type=int, default=2, help="kernel weight s")
    pe.add_argument("--t", type=int, default=None, help="second weight (biregular)")
    pe.add_argument("--m", default=None, help="derivative multi-index, e.g. 3,0,0,0 (vector series)")
    pe.add_argument("--maxlen", type=int, default=6, help="coset word length bound")
    pe.add_argument("--box", type=int, default=2, help="lattice box radius (vector series)")
    pe.add_argument("--points", default=None,
                    help="JSON file with a list of coordinate lists; default: e_n and 2 e_n")
    pe.add_argument("--y-points", default=None,
                    help="JSON file with second arguments (biregular); default: same as --points")
    _add_output_args(pe)

    pv = sub.add_parser("verify", help="run verification checks")
    pv.set_defaults(run=_run_verify)
    pv.add_argument("--all", action="store_true", help="run every check")
    pv.add_argument("--check", action="append", default=None, metavar="NAME",
                    help=f"run one named check (repeatable); names: {', '.join(sorted(CHECK_BUILDERS))}")
    pv.add_argument("--seed", type=int, default=0, help="RNG seed for sampled checks")
    pv.add_argument("--threshold", action="append", default=None, metavar="NAME=VALUE",
                    help="override a tolerance from the defaults table; a pair is NAME=LO,HI")
    _add_output_args(pv)

    pl = sub.add_parser("limits", help="check the x_n -> infinity limit of a series")
    pl.set_defaults(run=_run_limits)
    _add_group_args(pl)
    pl.add_argument("--series", choices=EISENSTEIN_KINDS, default="scalar")
    pl.add_argument("--s", type=int, default=2)
    pl.add_argument("--t", type=int, default=None)
    pl.add_argument("--maxlen", type=int, default=8)
    pl.add_argument("--tvals", default="10,30,100", help="comma-separated heights")
    _add_output_args(pl)

    return ap


def _emit(text: str, outfile: str | None):
    if outfile:
        with open(outfile, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj, deterministic: bool) -> str:
    return json.dumps(obj, indent=2, sort_keys=deterministic)


def _write(args, payload: dict, header: list[str], rows):
    """The one output path: `payload` as JSON, or with `--out csv` the table
    `header` + `rows`, to `--outfile` or stdout."""
    if args.out == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    else:
        text = _json_dumps(payload, args.deterministic)
    _emit(text, args.outfile)


def _report(args, reports, payload) -> int:
    """The one report driver of `verify` and `limits`: summary lines to
    stderr, runtimes zeroed under `--deterministic`, then `payload(reports)`
    or the reports as one table; exit 1 when a report failed."""
    for rep in reports:
        if args.deterministic:
            rep.seconds = 0.0
        print(rep.summary_line(), file=sys.stderr)
    _write(args, payload(reports), ["check", "pass", *_REPORT_FIELDS, "seconds"],
           ([r.check, r.passed, *(getattr(r, k) for k in _REPORT_FIELDS), r.seconds] for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _parse_multi_index(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad multi-index {text!r}") from exc


def _load_points(path: str | None, n: int) -> list[Multivector]:
    if path is None:
        pts = [[0.0] * (n - 1) + [1.0], [0.0] * (n - 1) + [2.0]]
    else:
        with open(path) as fh:
            pts = json.load(fh)
        if not isinstance(pts, list) or not pts:
            raise ValueError("points file must hold a nonempty JSON list of coordinate lists")
    out = []
    for row in pts:
        if not isinstance(row, list) or len(row) != n or not all(type(c) in (int, float) for c in row):
            raise ValueError(f"each point needs {n} JSON-number coordinates, got {row!r}")
        try:
            coords = [float(c) for c in row]
        except OverflowError as exc:
            raise ValueError("a coordinate is too large for a float") from exc
        out.append(Multivector.vector(coords))
    return out


def _mv_json(v: Multivector) -> dict:
    return {"dim": v.dim, "repr": v.to_string(),
            "components": {format(mask, "b").zfill(v.dim)[::-1]: float(c)
                           for mask, c in sorted(v.coeffs.items())}}


def _result_json(res) -> dict:
    return {
        "value": _mv_json(res.value),
        "partial_sums": [{"level": lvl, "value": _mv_json(v)} for lvl, v in res.partial_sums],
        "coset_count_c0": res.coset_count_c0,
        "n_terms": res.n_terms,
    }


# ---- subcommand drivers -----------------------------------------------------


_COSET_COLUMNS = ["word_length", "height", "c_zero", "a", "b", "c", "d"]


def _run_cosets(args) -> int:
    group = GroupDescriptor(args.n, args.p, args.group, args.level)
    reps = enumerate_cosets(group, args.maxlen)
    rows = [{
        "word_length": r.word_length,
        "height": r.height,
        "c_zero": r.is_c_zero(),
        "a": r.matrix.a.to_string(), "b": r.matrix.b.to_string(),
        "c": r.matrix.c.to_string(), "d": r.matrix.d.to_string(),
        "word": list(r.matrix.word),
    } for r in reps]
    payload = {
        "group": group.label, "n": group.n, "p": group.p, "maxlen": args.maxlen,
        "count": len(rows),
        "count_c_zero": sum(1 for r in rows if r["c_zero"]),
        "contains_neg_identity": contains_neg_identity(group),
        "translation_lattice_scale": translation_lattice(group).scale,
        "cosets": rows,
    }
    _write(args, payload, _COSET_COLUMNS, ([row[k] for k in _COSET_COLUMNS] for row in rows))
    return 0


def _run_eval(args) -> int:
    group = GroupDescriptor(args.n, args.p, args.group, args.level)
    spec = SeriesSpec(args.series, group, s=args.s, t=args.t,
                      m=_parse_multi_index(args.m) if args.m else None,
                      word_limit=args.maxlen, box_radius=args.box)
    pts = _load_points(args.points, args.n)
    if args.y_points:
        ypts = _load_points(args.y_points, args.n)
        if len(ypts) != len(pts):
            raise ValueError("--y-points must list as many points as --points")
    else:
        ypts = pts if spec.two_sided else [None] * len(pts)
    results = [(x, y, evaluate(spec, x, y)) for x, y in zip(pts, ypts)]
    payload = {
        "series": spec.kind, "group": group.label,
        "spec": {k: getattr(spec, k) for k in ("s", "t", "m", "word_limit", "box_radius")},
        "results": [dict({"point": _mv_json(x)},
                         **({} if y is None else {"second_point": _mv_json(y)}),
                         **_result_json(res))
                    for x, y, res in results],
    }
    _write(args, payload, ["point", "second_point", "value"],
           ([x.to_string(), "" if y is None else y.to_string(), res.value.to_string()]
            for x, y, res in results))
    return 0


def _parse_threshold_overrides(items) -> dict | None:
    if not items:
        return None
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"threshold override must look like NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = tuple(map(float, value.split(","))) if "," in value else float(value)
    return out


def _run_verify(args) -> int:
    if not args.all and not args.check:
        raise ValueError("verify needs --all or at least one --check NAME")
    names = None if args.all else args.check
    thresholds = _parse_threshold_overrides(args.threshold)
    seed = 0 if args.deterministic else args.seed
    reports = run_checks(names, seed=seed, thresholds=thresholds)
    return _report(args, reports, lambda reps: {
        "thresholds_version": THRESHOLDS_VERSION,
        "seed": seed,
        "all_passed": all(r.passed for r in reps),
        "reports": [r.to_json_dict() for r in reps],
    })


def _run_limits(args) -> int:
    try:
        tvals = tuple(int(v) for v in args.tvals.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --tvals {args.tvals!r}") from exc
    rep = check_limits(args.series, n=args.n, p=args.p, s=args.s, t=args.t,
                       level=args.level, variant=args.group,
                       word_limit=args.maxlen, t_values=tvals)
    return _report(args, [rep], lambda reps: reps[0].to_json_dict())


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
