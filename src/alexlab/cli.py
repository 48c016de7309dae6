"""Command-line front end.

Exit codes: 0 success, 1 parse error (bad files or invocation), 2 computation
limit exceeded, 3 invalid mathematical input, 4 internal error (any other
exception, reported on one stderr line).  Every sub-command accepts --machine
for a deterministic single-line JSON document.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import alexinv, builders, fpgroup, laurent, norms, obstruct, torusgeo
from .errors import AlexlabError, DomainError, LimitError, ParseError


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for
    # computation limits here, so route usage problems through ParseError.
    def error(self, message):
        raise ParseError(message)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc.strerror or exc))


def _load_presentation(path: str) -> fpgroup.GroupPresentation:
    return fpgroup.parse_presentation(_read_file(path))


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise ParseError("expected comma-separated integers, got %r" % text)


def _csv_fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(x) for x in text.split(",")] if text else []
    except (ValueError, ZeroDivisionError):
        raise ParseError("expected comma-separated rationals, got %r" % text)


_TUPLE_RE = re.compile(r"\(([^()]*)\)")


def parse_torus_spec(text: str) -> torusgeo.TranslatedTorus:
    """Grammar: `n=2;rows=(1,0),(0,1);q=(1/2,0)`; rows and q optional."""
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError("bad torus spec field %r" % part)
        key, _, value = part.partition("=")
        fields[key.strip()] = value.strip()
    if "n" not in fields:
        raise ParseError("torus spec needs n=<ambient rank>")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ParseError("bad ambient rank %r" % fields["n"])
    rows = []
    for group in _TUPLE_RE.findall(fields.get("rows", "")):
        rows.append(_csv_ints(group))
    translate = [Fraction(0)] * n
    if fields.get("q"):
        m = _TUPLE_RE.findall(fields["q"])
        if len(m) != 1:
            raise ParseError("bad translate %r" % fields["q"])
        translate = _csv_fractions(m[0])
    return torusgeo.make_torus(n, rows, translate)


# -- document helpers ----------------------------------------------------------


def _emit(doc: dict, human: str, machine: bool) -> str:
    if machine:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return human


def _first_order(p: fpgroup.GroupPresentation):
    return alexinv.first_order(fpgroup.fox_matrix(p))


def _report_doc(r: obstruct.ObstructionReport) -> dict:
    return {
        "test": r.test,
        "b1": r.b1,
        "k0": r.k0,
        "kmax": r.kmax,
        "thickness": r.thickness,
        "verdict": r.verdict,
        "witnesses": list(r.witnesses),
        "per_k": [
            {
                "k": f.k,
                "delta": f.delta.to_doc(),
                "newton_dim": f.newton_dim,
                "cyclotomic": f.cyclotomic,
                "remainder": None if f.remainder is None else f.remainder.to_doc(),
            }
            for f in r.per_k
        ],
    }


def _report_human(r: obstruct.ObstructionReport) -> str:
    lines = ["verdict: %s" % r.verdict, "b1: %d" % r.b1, "thickness: %d" % r.thickness]
    for f in r.per_k:
        extra = "; newton dim %d" % f.newton_dim
        if f.cyclotomic != "n/a":
            extra += "; cyclotomic %s" % f.cyclotomic
        lines.append("Delta^%d = %s%s" % (f.k, f.delta.text(), extra))
    for w in r.witnesses:
        lines.append("witness: %s" % w)
    return "\n".join(lines) + "\n"


# -- sub-command implementations -------------------------------------------------


def _cmd_abelianize(args) -> str:
    p = _load_presentation(args.file)
    ab = fpgroup.abelianize(p)
    doc = {
        "command": "abelianize",
        "file": args.file,
        "result": {
            "generators": list(p.generators),
            "b1": ab.b1,
            "torsion": list(ab.torsion),
            "images": [list(v) for v in ab.images],
        },
    }
    lines = ["b1: %d" % ab.b1]
    lines.append("torsion: %s" % (" ".join(str(t) for t in ab.torsion) or "none"))
    for name, img in zip(p.generators, ab.images):
        lines.append("image %s: (%s)" % (name, ", ".join(str(x) for x in img)))
    return _emit(doc, "\n".join(lines) + "\n", args.machine)


def _cmd_delta(args) -> str:
    F = fpgroup.fox_matrix(_load_presentation(args.file))
    d = alexinv.order_k(F, args.k)
    doc = {
        "command": "delta",
        "file": args.file,
        "k": args.k,
        "result": {"delta": d.to_doc(), "text": d.text()},
    }
    return _emit(doc, d.text() + "\n", args.machine)


def _cmd_thickness(args) -> str:
    k0, delta = _first_order(_load_presentation(args.file))
    th = laurent.newton_dim(delta)
    doc = {
        "command": "thickness",
        "file": args.file,
        "result": {"k0": k0, "delta": delta.to_doc(), "thickness": th},
    }
    return _emit(doc, "%d\n" % th, args.machine)


def _cmd_norm(args) -> str:
    _, delta = _first_order(_load_presentation(args.file))
    phi = norms.CohomologyClass.of(_csv_ints(args.phi))
    value = norms.alexander_norm(delta, phi)
    doc = {
        "command": "norm",
        "file": args.file,
        "phi": list(phi.phi),
        "result": {"alexander_norm": value, "delta": delta.to_doc()},
    }
    return _emit(doc, "%d\n" % value, args.machine)


def _cmd_ball(args) -> str:
    _, delta = _first_order(_load_presentation(args.file))
    ball = norms.support_polytope(delta)
    doc = {
        "command": "ball",
        "file": args.file,
        "result": {
            "role": ball.role,
            "vertices": [[str(x) for x in v] for v in ball.vertices],
        },
    }
    human = "".join("(%s)\n" % ", ".join(str(x) for x in v) for v in ball.vertices)
    return _emit(doc, human, args.machine)


def _cmd_cv(args) -> str:
    p = _load_presentation(args.file)
    F = fpgroup.fox_matrix(p)
    rho = alexinv.CharacterPoint(tuple(_csv_fractions(args.rho)))
    if len(rho.rho) != F.nvars:
        raise DomainError(
            "character has %d entries but b1 = %d" % (len(rho.rho), F.nvars)
        )
    rep = alexinv.cv_dim(F, rho, kmax=args.k)
    doc = {
        "command": "cv",
        "file": args.file,
        "rho": [str(x) for x in rho.rho],
        "k": args.k,
        "result": {
            "dim": rep.dim,
            "order": rho.order,
            "memberships": list(rep.memberships),
        },
    }
    lines = ["dim: %d" % rep.dim]
    for k, flag in enumerate(rep.memberships, start=1):
        lines.append("V_%d: %s" % (k, "yes" if flag else "no"))
    return _emit(doc, "\n".join(lines) + "\n", args.machine)


def _cmd_test(args) -> str:
    p = _load_presentation(args.file)
    run = obstruct.kahler_test if args.which == "kahler" else obstruct.qp_test
    rep = run(p, kmax=args.kmax)
    doc = {
        "command": "test",
        "file": args.file,
        "kmax": args.kmax,
        "result": _report_doc(rep),
    }
    return _emit(doc, _report_human(rep), args.machine)


def _cmd_sum(args) -> str:
    ps = [_load_presentation(f) for f in args.files]
    rep = obstruct.connected_sum_report(ps, kmax=args.kmax)
    doc = {
        "command": "sum",
        "files": list(args.files),
        "kmax": args.kmax,
        "result": {
            "factors": [
                {
                    "b1": f.b1,
                    "k0": f.k0,
                    "delta": f.delta.to_doc(),
                    "thickness": f.thickness,
                }
                for f in rep.factors
            ],
            "product": {
                "presentation": fpgroup.serialize_presentation(rep.product),
                "b1": rep.product_b1,
                "k0": rep.product_k0,
                "delta": rep.product_delta.to_doc(),
                "thickness": rep.product_thickness,
            },
            "thickness_additive": rep.thickness_additive,
            "delta_divisible": rep.delta_divisible,
            "qp": _report_doc(rep.qp),
        },
    }
    lines = []
    for i, f in enumerate(rep.factors, start=1):
        lines.append(
            "factor %d: b1 %d, k0 %d, delta %s, thickness %d"
            % (i, f.b1, f.k0, f.delta.text(), f.thickness)
        )
    lines.append(
        "product: b1 %d, k0 %d, delta %s, thickness %d"
        % (rep.product_b1, rep.product_k0, rep.product_delta.text(), rep.product_thickness)
    )
    lines.append("thickness additive: %s" % ("yes" if rep.thickness_additive else "no"))
    lines.append("delta divisible by factor product: %s" % ("yes" if rep.delta_divisible else "no"))
    lines.append("qp verdict: %s" % rep.qp.verdict)
    for w in rep.qp.witnesses:
        lines.append("witness: %s" % w)
    return _emit(doc, "\n".join(lines) + "\n", args.machine)


def _cmd_tori(args) -> str:
    t1 = parse_torus_spec(args.t1)
    t2 = parse_torus_spec(args.t2)
    rep = torusgeo.intersect(t1, t2)
    doc = {
        "command": "tori.intersect",
        "t1": args.t1,
        "t2": args.t2,
        "result": {"meets": rep.meets, "dim": rep.dim, "parallel": rep.parallel},
    }
    lines = ["meets: %s" % ("yes" if rep.meets else "no")]
    if rep.meets:
        lines.append("dim: %d" % rep.dim)
    lines.append("parallel: %s" % ("yes" if rep.parallel else "no"))
    return _emit(doc, "\n".join(lines) + "\n", args.machine)


def _cmd_build(args) -> str:
    if args.family == "torusbundle":
        vals = _csv_ints(args.matrix)
        if len(vals) != 4:
            raise ParseError("--matrix needs 4 comma-separated integers (row-major)")
        p = builders.torus_bundle(builders.MonodromyMatrix.of(*vals))
    elif args.family == "torusknot":
        p = builders.torus_knot(args.p, args.q)
    else:
        m = args.rank
        names = {"x%d" % (i + 1): i for i in range(m)}
        images = []
        for text in args.image or []:
            toks = text.split()
            images.append(
                fpgroup.Word.from_pairs(
                    fpgroup._parse_token(t, names) for t in toks
                )
            )
        if len(images) != m:
            raise ParseError(
                "freebycyclic needs exactly --rank many --image words (%d != %d)"
                % (len(images), m)
            )
        p = builders.free_by_cyclic(images)
    text = fpgroup.serialize_presentation(p)
    doc = {"command": "build", "family": args.family, "result": {"presentation": text}}
    return _emit(doc, text, args.machine)


def _cmd_mcmullen(args) -> str:
    p = _load_presentation(args.file)
    data = norms.parse_thurston_data(_read_file(args.data))
    _, delta = _first_order(p)
    rep = norms.mcmullen_check(delta, data)
    doc = {
        "command": "mcmullen",
        "file": args.file,
        "data": args.data,
        "result": {
            "delta": delta.to_doc(),
            "entries": [
                {
                    "phi": list(e.datum.phi.phi),
                    "thurston": e.datum.thurston,
                    "fibered": e.datum.fibered,
                    "alexander": e.alexander,
                    "status": e.status,
                    "reason": e.reason,
                }
                for e in rep.entries
            ],
            "all_pass": rep.all_pass,
        },
    }
    lines = []
    for e in rep.entries:
        lines.append(
            "%s phi=(%s) alexander=%d thurston=%d%s"
            % (
                e.status,
                ",".join(str(x) for x in e.datum.phi.phi),
                e.alexander,
                e.datum.thurston,
                " fibered" if e.datum.fibered else "",
            )
        )
    lines.append("all: %s" % ("PASS" if rep.all_pass else "FAIL"))
    return _emit(doc, "\n".join(lines) + "\n", args.machine)


# -- wiring -----------------------------------------------------------------------


def _add_machine(sp):
    sp.add_argument("--machine", action="store_true", help="emit a JSON document")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="alexlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("abelianize", help="b1, torsion, generator images")
    sp.add_argument("file")
    _add_machine(sp)
    sp.set_defaults(func=_cmd_abelianize)

    sp = sub.add_parser("delta", help="k-th order polynomial of the Fox matrix")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, required=True)
    _add_machine(sp)
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("thickness", help="Newton dimension of the first order")
    sp.add_argument("file")
    _add_machine(sp)
    sp.set_defaults(func=_cmd_thickness)

    sp = sub.add_parser("norm", help="Alexander norm of a cohomology class")
    sp.add_argument("file")
    sp.add_argument("--phi", required=True, help="comma-separated integers")
    _add_machine(sp)
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("ball", help="support polytope of the first order")
    sp.add_argument("file")
    _add_machine(sp)
    sp.set_defaults(func=_cmd_ball)

    sp = sub.add_parser("cv", help="twisted homology dimension at a character")
    sp.add_argument("file")
    sp.add_argument("--rho", required=True, help="comma-separated rationals")
    sp.add_argument("--k", type=int, default=None, help="report V_k up to this k")
    _add_machine(sp)
    sp.set_defaults(func=_cmd_cv)

    sp = sub.add_parser("test", help="Kahler / quasi-projective necessary conditions")
    sp.add_argument("which", choices=("kahler", "qp"))
    sp.add_argument("file")
    sp.add_argument("--kmax", type=int, default=obstruct.DEFAULT_KMAX)
    _add_machine(sp)
    sp.set_defaults(func=_cmd_test)

    sp = sub.add_parser("sum", help="free product analysis of several groups")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--kmax", type=int, default=obstruct.DEFAULT_KMAX)
    _add_machine(sp)
    sp.set_defaults(func=_cmd_sum)

    sp = sub.add_parser("tori", help="translated subtorus geometry")
    tsub = sp.add_subparsers(dest="tori_command", required=True)
    ip = tsub.add_parser("intersect")
    ip.add_argument("--t1", required=True, help="e.g. n=2;rows=(1,0);q=(1/2,0)")
    ip.add_argument("--t2", required=True)
    _add_machine(ip)
    ip.set_defaults(func=_cmd_tori)

    sp = sub.add_parser("build", help="construct corpus presentations")
    bsub = sp.add_subparsers(dest="family", required=True)
    bp = bsub.add_parser("torusbundle")
    bp.add_argument("--matrix", required=True, help="a11,a12,a21,a22")
    _add_machine(bp)
    bp.set_defaults(func=_cmd_build)
    bp = bsub.add_parser("torusknot")
    bp.add_argument("--p", type=int, required=True)
    bp.add_argument("--q", type=int, required=True)
    _add_machine(bp)
    bp.set_defaults(func=_cmd_build)
    bp = bsub.add_parser("freebycyclic")
    bp.add_argument("--rank", type=int, required=True)
    bp.add_argument("--image", action="append", help="word over x1..xm, repeatable")
    _add_machine(bp)
    bp.set_defaults(func=_cmd_build)

    sp = sub.add_parser("mcmullen", help="compare against supplied Thurston data")
    sp.add_argument("file")
    sp.add_argument("--data", required=True)
    _add_machine(sp)
    sp.set_defaults(func=_cmd_mcmullen)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        sys.stdout.write(args.func(args))
        return 0
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except LimitError as exc:
        print("limit exceeded: %s" % exc, file=sys.stderr)
        return 2
    except (DomainError, AlexlabError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
