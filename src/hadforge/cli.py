"""Command-line interface.

Exit codes: 0 success (and passed checks), 1 a requested check failed,
2 usage or input error, 3 float rank verdict refused (rerun in exact mode).
All JSON output is byte-deterministic: sorted keys, compact separators.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from . import catalog as cat
from ._exactrank import RankCertificationError
from .analyze import (
    IndeterminateRankError,
    assignment_search,
    defect,
    haagerup_set,
    inequivalent_by_invariants,
)
from .construct import BlockAssignment, MUPreconditionError, theorem1_build
from .matrices import (
    ComplexMatrix,
    ExponentMatrix,
    NotHadamardFormError,
    butson_min_root,
    dephase,
    is_butson,
    is_unitary,
    load_matrix,
    matrix_to_json,
    move_to_json,
    to_complex,
)
from .mub import complete_mub_set

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(obj, path: Optional[str]) -> None:
    text = _dump(obj)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_matrix(path: str):
    try:
        return load_matrix(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot read matrix from {path!r}: {exc}")


def _read_assignment(spec: str) -> BlockAssignment:
    try:
        if spec.lstrip().startswith("{"):
            obj = json.loads(spec)
        else:
            with open(spec) as fh:
                obj = json.load(fh)
        return BlockAssignment.from_json(obj)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot read assignment from {spec!r}: {exc}")


def _cmd_gen(args) -> int:
    a = _read_assignment(args.assignment)
    H = theorem1_build(a)
    if args.dephase:
        H, _ = dephase(H)
    if args.mode == "float":
        H = to_complex(H)
    _emit(matrix_to_json(H), args.output)
    return EXIT_OK


def _cmd_dephase(args) -> int:
    H = _read_matrix(args.matrix)
    Hd, move = dephase(H)
    _emit(matrix_to_json(Hd), args.output)
    if args.move:
        with open(args.move, "w") as fh:
            fh.write(_dump(move_to_json(move)))
    return EXIT_OK


def _cmd_unitary(args) -> int:
    H = _read_matrix(args.matrix)
    ok = is_unitary(H)
    mode = "exact" if isinstance(H, ExponentMatrix) else "float"
    _emit({"unitary": ok, "mode": mode, "d": H.d}, args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_butson(args) -> int:
    H = _read_matrix(args.matrix)
    if isinstance(H, ComplexMatrix) and args.exact:
        raise SystemExit("--exact needs an exponent-form matrix")
    if isinstance(H, ComplexMatrix) and args.root is None:
        raise SystemExit("float input: supply --root to test a specific type")
    try:
        ok = args.root is None or is_butson(H, args.root)
    except ValueError as exc:
        raise SystemExit(f"--root: {exc}")
    if isinstance(H, ComplexMatrix):
        _emit({"is_butson": ok, "root": args.root, "d": H.d}, args.output)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    root, _ = butson_min_root(H)
    out = {"min_root": root, "d": H.d}
    if args.root is not None:
        out["root"] = args.root
        out["is_butson"] = ok
    _emit(out, args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_haagerup(args) -> int:
    H = _read_matrix(args.matrix)
    if not is_unitary(H):
        raise NotHadamardFormError("matrix is not unitary, so it has no Haagerup set")
    hs = haagerup_set(H)
    out = {"d": H.d, "size": len(hs)}
    if hs.exact:
        out["members"] = [list(p) for p in hs.members]
        out["fingerprint"] = hs.digest()
    else:
        out["angles"] = list(hs.members)
    _emit(out, args.output)
    return EXIT_OK


def _cmd_defect(args) -> int:
    H = _read_matrix(args.matrix)
    if args.mode == "exact" and isinstance(H, ComplexMatrix):
        raise SystemExit("exact defect needs an exponent-form matrix")
    try:
        rep = defect(H, mode=args.mode)
    except IndeterminateRankError as exc:
        _emit({"indeterminate": True, "reason": str(exc)}, args.output)
        return EXIT_INDETERMINATE
    _emit(
        {
            "d": H.d,
            "defect": rep.defect,
            "variables": rep.variables,
            "rank": rep.rank,
            "mode": rep.mode,
            "isolated": rep.defect == 0,
            "evidence": rep.evidence,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_mub(args) -> int:
    try:
        s = complete_mub_set(args.q, diagonal=args.diagonal)
    except ValueError as exc:
        raise SystemExit(str(exc))
    _emit(s.to_json(), args.output)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.action == "list":
        out = []
        for n in cat.names():
            e = cat.entry(n)
            out.append(
                {
                    "name": n,
                    "d": e.d,
                    "root": e.expected_root,
                    "defect": e.expected_defect,
                    "has_recipe": e.recipe is not None,
                    "has_literal": e.literal is not None,
                }
            )
        _emit(out, args.output)
        return EXIT_OK
    if args.action == "show":
        if not args.names:
            raise SystemExit("catalog show needs an entry name")
        name = args.names[0]
        try:
            e = cat.entry(name)
        except KeyError as exc:
            raise SystemExit(str(exc))
        out = {
            "name": name,
            "d": e.d,
            "expected_root": e.expected_root,
            "expected_defect": e.expected_defect,
            "notes": e.notes,
            "recipe": e.recipe,
        }
        if args.matrix:
            out["matrix"] = matrix_to_json(cat.load(name))
        _emit(out, args.output)
        return EXIT_OK
    # verify
    try:
        report = cat.verify_all(args.names or None)
    except KeyError as exc:
        raise SystemExit(str(exc))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(_dump(report))
    sys.stdout.write(cat.format_report(report) + "\n")
    return EXIT_OK if report["all_pass"] else EXIT_CHECK_FAILED


def _cmd_search(args) -> int:
    t0 = time.monotonic()
    try:
        res = assignment_search(
            args.p, args.q, budget=args.budget, time_limit=args.time_limit
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    stop = f", stopped by {res.stopped_by}" if res.stopped_by else ""
    print(
        f"hadforge: search {args.p} {args.q}: {res.examined} candidates in "
        f"{len(res.representatives)} orbits, {len(res.classes)} classes, "
        f"{len(res.findings)} isolated, {time.monotonic() - t0:.1f} s{stop}",
        file=sys.stderr,
    )
    out = {
        "p": args.p,
        "q": args.q,
        "examined": res.examined,
        "partial": res.partial,
        "classes": [{"fingerprint": f, "defect": d} for f, d in res.classes],
        "isolated": [
            {
                "assignment": f.assignment.to_json(),
                "butson_root": f.butson_root,
                "defect": f.report.defect,
                "variables": f.report.variables,
                "fingerprint": f.fingerprint,
            }
            for f in res.findings
        ],
    }
    _emit(out, args.output)
    return EXIT_OK


def _cmd_compare(args) -> int:
    A = _read_matrix(args.a)
    B = _read_matrix(args.b)
    verdict, info = inequivalent_by_invariants(A, B, details=True)
    out = {"verdict": verdict, "reasons": list(info["reasons"])}
    for key in ("order", "butson_root", "haagerup_size", "defect"):
        if key in info:
            out[key] = list(info[key])
    _emit(out, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hadforge",
        description="Construct and analyze complex Hadamard matrices of "
        "composite order from mutually unbiased product bases.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def out_opt(p):
        p.add_argument("-o", "--output", help="write JSON here instead of stdout")

    p = sub.add_parser("gen", help="build a matrix from a block assignment")
    p.add_argument("assignment", help="path to or inline JSON {p,q,K,L}")
    p.add_argument(
        "--mode",
        choices=("auto", "exact", "float"),
        default="auto",
        help="the build is exact; float prints its complex entries",
    )
    p.add_argument("--dephase", action="store_true", help="dephase the result")
    out_opt(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dephase", help="normalize first row and column to 1")
    p.add_argument("matrix")
    p.add_argument("--move", help="also write the applied equivalence move")
    out_opt(p)
    p.set_defaults(func=_cmd_dephase)

    p = sub.add_parser("unitary", help="check d * H H^dagger = d I")
    p.add_argument("matrix")
    out_opt(p)
    p.set_defaults(func=_cmd_unitary)

    p = sub.add_parser("butson", help="minimal root-of-unity order of the entries")
    p.add_argument("matrix")
    p.add_argument("--root", type=int, help="check membership in BH(d, root)")
    p.add_argument("--exact", action="store_true", help="refuse float input")
    out_opt(p)
    p.set_defaults(func=_cmd_butson)

    p = sub.add_parser("haagerup", help="set of quadruple phase products")
    p.add_argument("matrix")
    out_opt(p)
    p.set_defaults(func=_cmd_haagerup)

    p = sub.add_parser("defect", help="dimension bound for deformations")
    p.add_argument("matrix")
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    out_opt(p)
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("mub", help="complete set of mutually unbiased bases")
    p.add_argument("q", type=int)
    p.add_argument(
        "--diagonal", choices=("standard", "triangular"), default="standard"
    )
    out_opt(p)
    p.set_defaults(func=_cmd_mub)

    p = sub.add_parser("catalog", help="list, show, or verify stored matrices")
    p.add_argument("action", choices=("list", "show", "verify"))
    p.add_argument("names", nargs="*", help="entry names (show/verify)")
    p.add_argument("--matrix", action="store_true", help="include the grid (show)")
    p.add_argument("--json", help="write the machine-readable report (verify)")
    out_opt(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("search", help="enumerate assignments, report isolated ones")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--budget", type=int, help="max assignments to examine")
    p.add_argument("--time-limit", type=float, help="wall-time cap in seconds")
    out_opt(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("compare", help="screen two matrices by invariants")
    p.add_argument("a")
    p.add_argument("b")
    out_opt(p)
    p.set_defaults(func=_cmd_compare)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        MemoryError,
        MUPreconditionError,
        NotHadamardFormError,
        RankCertificationError,
    ) as exc:
        print(f"hadforge: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"hadforge: {exc.code}", file=sys.stderr)
            return EXIT_USAGE
        raise


if __name__ == "__main__":
    sys.exit(main())
