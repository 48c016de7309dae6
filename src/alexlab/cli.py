"""Command-line front end.

Exit codes: 0 success, 1 parse error (bad files or invocation), 2 computation
limit exceeded, 3 invalid mathematical input, 4 internal error (any other
exception, reported on one stderr line).  Every sub-command accepts --machine
for a deterministic single-line JSON document; where a command returns a
report class, its `result` object uses the names in that class's field
tuple (`_fields`), and its bytes are those of json.dumps with sorted keys and
compact separators.

An option is `--opt value` or `--opt=value`, named in full or by a unique
prefix, anywhere among the positionals.  A value may be a negative number
(`--kmax -2`) but no other word that starts with "-": write `--rho=-1/6`.
A repeated option keeps its last value; --image collects every value.
After `--` every word is a positional.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from types import SimpleNamespace

from . import alexinv, builders, fpgroup, laurent, norms, obstruct, torusgeo
from ._value import Value
from .errors import AlexlabError, LimitError, ParseError


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, a NUL in the path
        raise ParseError("cannot read %s: %s" % (path, getattr(exc, "strerror", None) or exc))


def _load_presentation(path: str) -> fpgroup.GroupPresentation:
    return fpgroup.parse_presentation(_read_file(path))


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise ParseError("expected comma-separated integers, got %r" % text)


def _csv_fractions(text: str) -> list[Fraction]:
    """Rationals written p/q or as decimals.  An exponent is refused: Fraction
    would expand 1e10000000 to ten million digits."""
    if "e" in text or "E" in text:
        raise ParseError("rationals take no exponent, got %r" % text)
    try:
        return [Fraction(x) for x in text.split(",")] if text else []
    except (ValueError, ZeroDivisionError):
        raise ParseError("expected comma-separated rationals, got %r" % text)


_TUPLE_RE = re.compile(r"\(([^()]*)\)")
TORUS_MAX_RANK = 10_000  # the largest ambient rank of a torus spec


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
        n = -1
    if n < 0:
        raise ParseError("bad ambient rank %r" % fields["n"])
    if n > TORUS_MAX_RANK:  # checked before the n translate entries are made
        raise LimitError("ambient rank %d is over %d" % (n, TORUS_MAX_RANK))
    rows = [_csv_ints(group) for group in _TUPLE_RE.findall(fields.get("rows", ""))]
    translate = [Fraction(0)] * n
    if fields.get("q"):
        m = _TUPLE_RE.findall(fields["q"])
        if len(m) != 1:
            raise ParseError("bad translate %r" % fields["q"])
        translate = _csv_fractions(m[0])
    return torusgeo.make_torus(n, rows, translate)


# -- the --machine encoder --------------------------------------------------------


def _fields(report) -> dict:
    """A report as a dict of its fields by name, values as they are."""
    return {name: getattr(report, name) for name in report._fields}


def _poly_json(p: laurent.LaurentPoly) -> str:
    """`p.to_doc()` as JSON text, terms ascending.  A univariate key is the
    exponent itself, so only nvars 0 and two or more decode `terms`."""
    if p.nvars == 1:
        terms = ['{"c":%d,"e":[%d]}' % (c, k) for k, c in p._items]
    else:
        terms = ['{"c":%d,"e":[%s]}' % (c, ",".join(map(str, e))) for e, c in p.terms]
    return '{"nvars":%d,"terms":[%s]}' % (p.nvars, ",".join(terms))


def _json(value) -> str:
    """Compact JSON text of a result, every dict's keys sorted, written
    straight from the value: a dict (str keys), list or tuple, str, bool,
    int or None as JSON writes it; a Fraction as its str; a LaurentPoly as
    its `to_doc()`; any other `Value` as a dict of its fields."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return "{%s}" % ",".join([_json_str(k) + ":" + _json(v) for k, v in sorted(value.items())])
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(map(_json, value))
    if isinstance(value, laurent.LaurentPoly):
        return _poly_json(value)
    if isinstance(value, Fraction):
        return _json_str(str(value))
    if isinstance(value, Value):
        return _json(_fields(value))
    raise TypeError("no JSON form for %s" % type(value).__name__)


def _emit(doc) -> str:
    """The --machine form of a result: one line of `_json`, byte for byte
    what json.dumps(.., sort_keys=True, separators=(",", ":")) gives for the
    same document.  Each command builds its document only under --machine
    and its human text only without it."""
    return _json(doc) + "\n"


def _first_order(p: fpgroup.GroupPresentation):
    return alexinv.first_order(fpgroup.fox_matrix(p))


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
    if args.machine:
        return _emit(
            {
                "command": "abelianize",
                "file": args.file,
                "result": dict(_fields(ab), generators=p.generators),
            }
        )
    lines = ["b1: %d" % ab.b1]
    lines.append("torsion: %s" % (" ".join(str(t) for t in ab.torsion) or "none"))
    for name, img in zip(p.generators, ab.images):
        lines.append("image %s: (%s)" % (name, ", ".join(str(x) for x in img)))
    return "\n".join(lines) + "\n"


def _cmd_delta(args) -> str:
    F = fpgroup.fox_matrix(_load_presentation(args.file))
    d = alexinv.order_k(F, args.k)
    text = d.text()
    if args.machine:
        return _emit(
            {
                "command": "delta",
                "file": args.file,
                "k": args.k,
                "result": {"delta": d, "text": text},
            }
        )
    return text + "\n"


def _cmd_thickness(args) -> str:
    k0, delta = _first_order(_load_presentation(args.file))
    th = laurent.newton_dim(delta)
    if args.machine:
        return _emit(
            {
                "command": "thickness",
                "file": args.file,
                "result": {"k0": k0, "delta": delta, "thickness": th},
            }
        )
    return "%d\n" % th


def _cmd_norm(args) -> str:
    _, delta = _first_order(_load_presentation(args.file))
    phi = norms.CohomologyClass.of(_csv_ints(args.phi))
    value = norms.alexander_norm(delta, phi)
    if args.machine:
        return _emit(
            {
                "command": "norm",
                "file": args.file,
                "phi": phi.phi,
                "result": {"alexander_norm": value, "delta": delta},
            }
        )
    return "%d\n" % value


def _cmd_ball(args) -> str:
    _, delta = _first_order(_load_presentation(args.file))
    ball = norms.support_polytope(delta)
    if args.machine:
        return _emit({"command": "ball", "file": args.file, "result": ball})
    return "".join("(%s)\n" % ", ".join(str(x) for x in v) for v in ball.vertices)


def _cmd_cv(args) -> str:
    F = fpgroup.fox_matrix(_load_presentation(args.file))
    rho = alexinv.CharacterPoint(tuple(_csv_fractions(args.rho)))
    rep = alexinv.cv_dim(F, rho, kmax=args.k)
    if args.machine:
        return _emit(
            {
                "command": "cv",
                "file": args.file,
                "rho": rho.rho,
                "k": args.k,
                "result": dict(_fields(rep), order=rho.order),
            }
        )
    lines = ["dim: %d" % rep.dim]
    for k, flag in enumerate(rep.memberships, start=1):
        lines.append("V_%d: %s" % (k, "yes" if flag else "no"))
    return "\n".join(lines) + "\n"


def _cmd_test(args) -> str:
    p = _load_presentation(args.file)
    run = obstruct.kahler_test if args.which == "kahler" else obstruct.qp_test
    rep = run(p, kmax=args.kmax)
    if args.machine:
        return _emit(
            {
                "command": "test",
                "file": args.file,
                "kmax": args.kmax,
                "result": rep,
            }
        )
    return _report_human(rep)


def _cmd_sum(args) -> str:
    ps = [_load_presentation(f) for f in args.files]
    rep = obstruct.connected_sum_report(ps, kmax=args.kmax)
    if args.machine:
        return _emit(
            {
                "command": "sum",
                "files": args.files,
                "kmax": args.kmax,
                "result": {
                    "factors": rep.factors,
                    "product": {
                        "presentation": fpgroup.serialize_presentation(rep.product),
                        "b1": rep.product_b1,
                        "k0": rep.product_k0,
                        "delta": rep.product_delta,
                        "thickness": rep.product_thickness,
                    },
                    "thickness_additive": rep.thickness_additive,
                    "delta_divisible": rep.delta_divisible,
                    "qp": rep.qp,
                },
            }
        )
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
    return "\n".join(lines) + "\n"


def _cmd_tori(args) -> str:
    t1 = parse_torus_spec(args.t1)
    t2 = parse_torus_spec(args.t2)
    rep = torusgeo.intersect(t1, t2)
    if args.machine:
        return _emit(
            {
                "command": "tori.intersect",
                "t1": args.t1,
                "t2": args.t2,
                "result": rep,
            }
        )
    lines = ["meets: %s" % ("yes" if rep.meets else "no")]
    if rep.meets:
        lines.append("dim: %d" % rep.dim)
    lines.append("parallel: %s" % ("yes" if rep.parallel else "no"))
    return "\n".join(lines) + "\n"


def _cmd_build(args) -> str:
    if args.family == "torusbundle":
        vals = _csv_ints(args.matrix)
        if len(vals) != 4:
            raise ParseError("--matrix needs 4 comma-separated integers (row-major)")
        p = builders.torus_bundle(builders.MonodromyMatrix.of(*vals))
    elif args.family == "torusknot":
        p = builders.torus_knot(args.p, args.q)
    else:
        m, texts = args.rank, args.image or []
        if len(texts) != m:
            raise ParseError(
                "freebycyclic needs exactly --rank many --image words (%d != %d)"
                % (len(texts), m)
            )
        names = {"x%d" % (i + 1): i for i in range(m)}
        images = [[fpgroup._parse_token(t, names) for t in text.split()] for text in texts]
        p = builders.free_by_cyclic(images)
    text = fpgroup.serialize_presentation(p)
    if args.machine:
        return _emit({"command": "build", "family": args.family, "result": {"presentation": text}})
    return text


def _cmd_mcmullen(args) -> str:
    p = _load_presentation(args.file)
    data = norms.parse_thurston_data(_read_file(args.data))
    _, delta = _first_order(p)
    rep = norms.mcmullen_check(delta, data)
    if args.machine:
        return _emit({"command": "mcmullen", "file": args.file, "data": args.data, "result": rep})
    lines = []
    for e in rep.entries:
        fibered = " fibered" if e.fibered else ""
        lines.append(
            "%s phi=(%s) alexander=%d thurston=%d%s"
            % (e.status, ",".join(map(str, e.phi)), e.alexander, e.thurston, fibered)
        )
    lines.append("all: %s" % ("PASS" if rep.all_pass else "FAIL"))
    return "\n".join(lines) + "\n"


# -- reading argv -----------------------------------------------------------------

_REQUIRED_INT = dict(type=int, required=True)
_KMAX = dict(type=int, default=obstruct.DEFAULT_KMAX)

# The commands in help order: a leaf is (help, positionals, options), a nest
# (help, dest, sub-commands) stores its sub-command's name under dest, and
# `_cmd_<name>` runs each.  Positionals and options map names to argparse's
# add_argument kwargs (the tests' reference parser); leaves take --machine.
_COMMANDS = {
    "abelianize": ("b1, torsion, generator images", dict(file={}), {}),
    "delta": ("k-th order polynomial of the Fox matrix", dict(file={}), dict(k=_REQUIRED_INT)),
    "thickness": ("Newton dimension of the first order", dict(file={}), {}),
    "norm": (
        "Alexander norm of a cohomology class", dict(file={}),
        dict(phi=dict(required=True, help="comma-separated integers")),
    ),
    "ball": ("support polytope of the first order", dict(file={}), {}),
    "cv": (
        "twisted homology dimension at a character", dict(file={}),
        dict(
            rho=dict(required=True, help="comma-separated rationals; write -1/6 as --rho=-1/6"),
            k=dict(type=int, help="report V_k up to this k"),
        ),
    ),
    "test": (
        "Kahler / quasi-projective necessary conditions",
        dict(which=dict(choices=("kahler", "qp")), file={}), dict(kmax=_KMAX),
    ),
    "sum": (
        "free product analysis of several groups", dict(files=dict(nargs="+")), dict(kmax=_KMAX),
    ),
    "tori": ("translated subtorus geometry", "tori_command", {
        "intersect": ("intersection of two translated subtori", {}, dict(
            t1=dict(required=True, help="e.g. n=2;rows=(1,0);q=(1/2,0)"), t2=dict(required=True),
        )),
    }),
    "build": ("construct corpus presentations", "family", {
        "torusbundle": (
            "torus bundle of a 2x2 monodromy", {},
            dict(matrix=dict(required=True, help="a11,a12,a21,a22")),
        ),
        "torusknot": ("torus knot group", {}, dict(p=_REQUIRED_INT, q=_REQUIRED_INT)),
        "freebycyclic": ("free-by-cyclic group", {}, dict(
            rank=_REQUIRED_INT, image=dict(action="append", help="word over x1..xm, repeatable"),
        )),
    }),
    "mcmullen": (
        "compare against supplied Thurston data", dict(file={}), dict(data=dict(required=True)),
    ),
}


def _is_option(word: str) -> bool:
    """Whether `word` starts with "-" and is neither "-" nor, as argparse
    has it, a negative number."""
    return word[:1] == "-" and word != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", word)


def _option(word: str, names) -> tuple:
    """(name, the text after "=" or None) of an option word: -h, or --<name>
    for one of `names`, in full or by a unique prefix."""
    key, eq, text = word.partition("=")
    key = "--help" if key == "-h" else key
    hits = [name for name in names if key[:2] == "--" and name.startswith(key[2:])]
    if key[2:] in hits:
        hits = [key[2:]]
    if len(hits) != 1:
        raise ParseError("%s option: %s" % ("ambiguous" if hits else "unrecognized", word))
    return hits[0], text if eq else None


def _convert(name: str, kw: dict, text):
    """`text` as the argument `name`, with add_argument kwargs `kw`, keeps it."""
    try:
        value = kw["type"](text) if "type" in kw else text
    except ValueError:
        raise ParseError("argument %s: invalid int value: %r" % (name, text))
    if "choices" in kw and value not in kw["choices"]:
        raise ParseError("argument %s: %r is not in %s" % (name, text, ", ".join(kw["choices"])))
    return value


def _help(usage: str, spec) -> str:
    """The -h text of `spec`, the command that `usage` ("alexlab" and the
    words that chose it) names."""
    text, middle, table = spec
    usage += " [-h]"
    if isinstance(middle, str):
        usage += " {%s} ..." % ",".join(table)
        rows = [(name, dict(help=sub[0])) for name, sub in table.items()]
    else:
        for dest, kw in middle.items():
            usage += " {%s}" % ",".join(kw["choices"]) if "choices" in kw else " " + dest
            usage += "..." if "nargs" in kw else ""
        rows = [("--%s %s" % (key, key.upper()), kw) for key, kw in table.items()]
        rows.append(("--machine", dict(help="emit a JSON document")))
        usage += "".join(" " + row if kw.get("required") else " [%s]" % row for row, kw in rows)
    rows = "".join(("  %-15s%s" % (row, kw.get("help", ""))).rstrip() + "\n" for row, kw in rows)
    return "usage: %s\n\n%s\n\n%s" % (usage, text.strip(), rows)


def read_argv(argv):
    """The namespace of the command that `argv` names, read from its spec in
    `_COMMANDS` as the module docstring says, with the function that runs
    it as `func`; None once -h has printed that command's help.  Every
    usage error raises ParseError."""
    ns, usage, spec = SimpleNamespace(machine=False), "alexlab", (__doc__, "command", _COMMANDS)
    given, words, rest = {}, [], iter(argv)
    for word in rest:
        nest = isinstance(spec[1], str)  # the next word names a sub-command
        if word == "--":
            words.extend(rest)
        elif nest and not _is_option(word):
            setattr(ns, spec[1], _convert(spec[1], dict(choices=spec[2]), word))
            usage, spec = usage + " " + word, spec[2][word]
        elif not _is_option(word):
            words.append(word)
        else:
            name, text = _option(word, ["help"] if nest else [*spec[2], "machine", "help"])
            if name in ("help", "machine") and text is not None:
                raise ParseError("argument --%s: ignored explicit argument %r" % (name, text))
            if name == "help":
                sys.stdout.write(_help(usage, spec))
                return None
            if name == "machine":
                ns.machine = True
                continue
            if text is None:
                text = next(rest, "--")
                if _is_option(text):
                    raise ParseError("argument --%s: expected one argument" % name)
            value = _convert("--" + name, spec[2][name], text)
            given[name] = given.get(name, []) + [value] if "action" in spec[2][name] else value
    if isinstance(spec[1], str):
        raise ParseError("%s needs a command: %s" % (usage, ", ".join(spec[2])))
    _, positionals, options = spec
    for i, (dest, kw) in enumerate(positionals.items()):
        if i == len(words):
            raise ParseError("the following arguments are required: %s" % dest)
        if "nargs" in kw:  # one or more: the last positional takes every word left
            words[i:] = [words[i:]]
        setattr(ns, dest, _convert(dest, kw, words[i]))
    if len(words) > len(positionals):
        raise ParseError("unrecognized arguments: %s" % " ".join(words[len(positionals):]))
    for key, kw in options.items():
        if key not in given and kw.get("required"):
            raise ParseError("the following arguments are required: --%s" % key)
        setattr(ns, key, given.get(key, kw.get("default")))
    ns.func = globals()["_cmd_" + ns.command]
    return ns


def run(argv=None) -> int:
    """Run one command and return its exit code (see the module docstring):
    `read_argv` reads argv, or prints the help and the code is 0, and the
    command runs on what it read.  Any failure is one line on stderr."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = read_argv(argv)
        if args is not None:
            sys.stdout.write(args.func(args))
        return 0
    except ParseError as exc:
        code, message = 1, "error: %s" % exc
    except LimitError as exc:
        code, message = 2, "limit exceeded: %s" % exc
    except AlexlabError as exc:
        code, message = 3, "invalid input: %s" % exc
    except Exception as exc:
        code, message = 4, "internal error: %s: %s" % (type(exc).__name__, exc)
    # One line even when the message quotes an argument with a newline.
    print(message.replace("\n", "\\n"), file=sys.stderr)
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
